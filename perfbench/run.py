"""Benchmark of the bosefredholm correlator library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Each workload runs in processes of its own (worker.py): SETUPS set-ups, the
last of which goes on to the timed closed loop (one client, one item at a
time, BF_THREADS unset, BLAS pinned to BLAS_THREADS threads).  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-module metrics of
a traced run instead.  A full record of the run (provenance, every item's
value and deviation from its reference, latencies) is written to
perfbench/out/.  ``--workload all`` runs every workload and prints a table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0
TAIL_BEYOND = 10
# standard percentiles the tail is read at: a percentile that moved with the
# sample count would jump between the item kinds of a mixed cycle
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

WORKLOAD_NAMES = ("dynamical-scan", "boundary-route", "lax-general", "static-oracle")

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)

PER_LAYER = (
    ("special_integrals.calls", "count/item"),
    ("special_integrals.points", "count/item"),
    ("special_integrals.self_s", "s/item"),
    ("special_integrals.errors", "count/item"),
    ("kernels.calls", "count/item"),
    ("kernels.entries", "count/item"),
    ("kernels.self_s", "s/item"),
    ("kernels.errors", "count/item"),
    ("correlators.calls", "count/item"),
    ("correlators.self_s", "s/item"),
    ("correlators.errors", "count/item"),
    ("fredholm.calls", "count/item"),
    ("fredholm.self_s", "s/item"),
    ("fredholm.factorizations", "count/item"),
    ("fredholm.errors", "count/item"),
    ("nls_system.build_b_calls", "count/item"),
    ("nls_system.line_nodes", "count/item"),
    ("nls_system.e_vectors_s", "s/item"),
    ("nls_system.m_operator_s", "s/item"),
    ("nls_system.q_s", "s/item"),
    ("nls_system.self_s", "s/item"),
    ("nls_system.errors", "count/item"),
    ("bethe_oracle.calls", "count/item"),
    ("bethe_oracle.states", "count/item"),
    ("bethe_oracle.self_s", "s/item"),
    ("bethe_oracle.errors", "count/item"),
    ("cli.calls", "count/item"),
    ("cli.self_s", "s/item"),
    ("cli.errors", "count/item"),
    ("validate.self_s", "s/item"),
    ("validate.errors", "count/item"),
    ("bench.self_s", "s/item"),
    ("traced.item_s", "s/item"),
    ("traced.items_per_s", "1/s"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(latencies):
    """(value, percentile, samples beyond) at the highest of TAIL_PERCENTILES
    with at least TAIL_BEYOND samples beyond it; the median when none has."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_PERCENTILES[:-1]:
        rank = int(pct / 100.0 * (n - 1))
        if n - 1 - rank >= TAIL_BEYOND:
            return xs[rank], pct, n - 1 - rank
    return statistics.median(xs), 50.0, n // 2


def child_env():
    env = dict(os.environ)
    env.pop("BF_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, deadline, setup_only):
    """Start worker.py; return (seconds to READY, its JSON result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"worker for {args.workload} exited with code {code}")
    if setup_only:
        return ready, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {args.workload} printed no result")
    return ready, json.loads(lines[-1])


def provenance(seed):
    import platform

    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "bf_threads": None,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_workload(args):
    """One workload run; returns (metrics, full record)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    prov = provenance(args.seed)
    setups = [spawn(args, deadline, setup_only=True)[0] for _ in range(SETUPS - 1)]
    ready, result = spawn(args, deadline, setup_only=False)
    setups.append(ready)
    latencies = [it["latency_s"] for it in result["items"]]
    tail_s, tail_pct, beyond = tail(latencies)
    attempted, failed = result["attempted"], result["failed"]
    cycles = result["cycle_s"]
    e2e = {
        "setup_s": statistics.median(setups),
        "items_per_s": attempted / len(cycles) / statistics.median(cycles),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    prov.update(result.pop("versions"), source_sha256=result.pop("source_sha256"))
    record = dict(provenance=prov, setup_runs_s=setups, item_tail_percentile=tail_pct,
                  item_tail_samples_beyond=beyond, failed_frac=failed / attempted,
                  items_per_s_elapsed=attempted / result["elapsed_s"], **result)
    if args.trace:
        layers = dict(result["layers"])
        layers["traced.items_per_s"] = e2e["items_per_s"]
        record["end_to_end_traced"] = e2e
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return metrics, record


def summarize(record):
    """Human-readable lines about one run, printed before the result."""
    prov = record["provenance"]
    yield ("# provenance " + json.dumps(prov, sort_keys=True))
    yield (f"# {record['workload']} seed={record['seed']} items={record['attempted']} "
           f"failed={record['failed']} failed_frac={record['failed_frac']:.3g} "
           f"tail=p{record['item_tail_percentile']:.1f} "
           f"({record['item_tail_samples_beyond']} beyond) "
           f"setups_s={[round(s, 3) for s in record['setup_runs_s']]}")
    seen = set()
    for it in record["items"]:
        if it["label"] in seen and it["error"] is None:
            continue
        seen.add(it["label"])
        yield ("# item " + json.dumps({k: it[k] for k in ("label", "value", "deviation",
                                                             "error")}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bosefredholm", "__init__.py")):
        print(f"error: no bosefredholm sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            metrics, record = run_workload(one)
        except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in summarize(record):
            print(line)
        rows.append((name, record, metrics))
    if args.workload == "all":
        print(f"{'workload':16s} {'metric':28s} {'value':>14s} unit")
        for name, _, metrics in rows:
            for metric, m in metrics.items():
                print(f"{name:16s} {metric:28s} {m['value']:14.6g} {m['unit']}")
        return 0 if all(r["failed"] == 0 for _, r, _ in rows) else 1
    _, record, metrics = rows[0]
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
