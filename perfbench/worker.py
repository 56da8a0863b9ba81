"""One workload in its own process: set-up, the timed closed loop, the
references and the correctness gate.

Run by run.py, which starts this script several times per run to take the
median set-up time.  The script prints ``READY`` when it is ready for the
first timed item, then (unless ``--setup-only``) one JSON line with the
run's raw measurements.

Set-up is everything before ``READY``: imports, input generation, loading
the stored references and one untimed warm-up item.  The timed loop runs
whole cycles of the workload's items, one item at a time, and stops at the
cycle end closest to ``--seconds``.  References that are not stored (any
seed but the default one) are computed after the loop, outside the timed
region and outside the trace, by up to REF_PROCESSES processes at once, and
kept in perfbench/out/references/ for later runs of the same seed and the
same library sources.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
CACHE = os.path.join(HERE, "out", "references")
REF_PROCESSES = 2


def load_package():
    """Import bosefredholm from the checkout's src/ and no other place."""
    if not os.path.isfile(os.path.join(SRC, "bosefredholm", "__init__.py")):
        raise SystemExit(f"no bosefredholm sources under {SRC}")
    sys.path.insert(0, SRC)
    import importlib
    import types

    pkg = importlib.import_module("bosefredholm")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bosefredholm imported from {pkg.__file__}, not {SRC}")
    from tracing import MODULES
    return types.SimpleNamespace(**{m: importlib.import_module(f"bosefredholm.{m}")
                                    for m in MODULES})


def source_digest():
    """sha256 of the library sources: the code a reference was computed with."""
    digest = hashlib.sha256()
    src = os.path.join(SRC, "bosefredholm")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cache_path(workload, seed, digest):
    return os.path.join(CACHE, f"{workload}-seed{seed}-{digest[:16]}.json")


def load_references(workload, seed, items, digest):
    """References by item label: stored ones for the default seed, and ones
    an earlier run of the same sources computed for this seed."""
    from workloads import DEFAULT_SEED

    paths = [_cache_path(workload, seed, digest)]
    if seed == DEFAULT_SEED:
        paths.append(os.path.join(REFS, f"{workload}.json"))
    refs = {}
    for path in paths:
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            stored = json.load(fh)["items"]
        for item in items:
            entry = stored.get(item.label)
            if entry is not None and entry["key"] == item.key():
                refs[item.label] = entry["ref"]
    return refs


def save_references(workload, seed, items, digest, refs):
    os.makedirs(CACHE, exist_ok=True)
    stored = {item.label: {"key": item.key(), "ref": refs[item.label]}
              for item in items if item.label in refs}
    with open(_cache_path(workload, seed, digest), "w") as fh:
        json.dump({"seed": seed, "source_sha256": digest, "items": stored}, fh)


_bf = None


def _reference(item):
    import workloads as wl
    return wl.reference(item, _bf)


def compute_references(missing, bf):
    """References of the items in ``missing`` by label, computed by up to
    REF_PROCESSES forked processes; the pool is stopped and joined before
    this returns."""
    global _bf
    _bf = bf
    processes = min(REF_PROCESSES, len(missing), len(os.sched_getaffinity(0)))
    if processes < 2:
        return {item.label: _reference(item) for item in missing}
    pool = multiprocessing.get_context("fork").Pool(processes)
    try:
        values = pool.map(_reference, missing, chunksize=1)
    finally:
        pool.terminate()
        pool.join()
    return {item.label: value for item, value in zip(missing, values)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="", help="write the trace spans here")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    bf = load_package()
    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    items = workload.items(args.seed)
    digest = source_digest()
    refs = load_references(args.workload, args.seed, items, digest)
    wl.run_item(workload.warmup, bf)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(bf)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records = []
    cycles = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for item in items:
            if tracer:
                tracer.begin_item(item.label)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                value, error = wl.run_item(item, bf), None
            except Exception as exc:    # a failed item is counted, the loop goes on
                value, error = None, f"{type(exc).__name__}: {exc}"
            latency, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer:
                tracer.end_item()
            records.append((item, latency, cpu, value, error))
        cycles.append(time.perf_counter() - cycle_start)
        # stop at the cycle end closest to --seconds
        if time.perf_counter() - start + statistics.median(cycles) / 2 >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
    computed = compute_references(
        [item for item in items if wl.needs_reference(item) and item.label not in refs], bf)
    if computed:
        refs.update(computed)
        save_references(args.workload, args.seed, items, digest, refs)

    failed = 0
    outcomes = []
    for item, latency, cpu, value, error in records:
        deviation = None
        if error is None:
            try:
                deviation, passed = wl.check(item, value, refs.get(item.label))
            except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
                passed, error = False, f"{type(exc).__name__}: {exc}"
            if error is None and not passed:
                error = "outside tolerance"
        failed += error is not None
        outcomes.append({"label": item.label, "latency_s": latency, "cpu_s": cpu,
                         "value": value, "deviation": deviation, "error": error})

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": blas.get("name"), "blas_version": blas.get("version")},
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "elapsed_s": elapsed,
        "cycle_s": cycles,
        "attempted": len(records),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "inputs": {item.label: {"command": item.command, "params": item.params}
                   for item in items},
        "references": refs,
        "references_computed": sorted(computed),
        "items": outcomes,
    }
    if tracer:
        result["layers"] = tracer.metrics(len(records))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
