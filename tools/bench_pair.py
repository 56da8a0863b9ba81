"""Alternated parent/change pairs of one benchmark workload.

    python3 tools/bench_pair.py --parent REV --workload W --pairs K --out BENCH_tag.json

Extracts the committed files of REV into a temporary directory (git
archive: plain git, offline, nothing added to the repository's metadata),
copies this working tree's files (tracked and untracked, not ignored) into
another, and runs the unchanged ``perfbench/run.py`` of each copy in turn,
so that neither side starts with caches or run records of its own: the
parent against the change, K pairs, with the side that
goes first alternating from pair to pair so that a drift of the machine's
speed loads both sides alike.  Each run is ``--trace 0`` at the default
seed and the run length of BENCHMARK.json, so only the end-to-end metrics
are measured, on the benchmark's own terms.

The JSON written to --out holds, for every end-to-end metric of
BENCHMARK.json: both sides' median and quartiles, the raw values, the
number of pairs the change won and the metric's bound; for every item: the
largest deviation between a parent value and a change value, read from the
run records in each copy's perfbench/out/; and the provenance of the runs
(commits, sources, nproc, BLAS threads).
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0          # the seed whose references perfbench/refs/ stores


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=False).stdout


def extract(rev, dest):
    """The committed files of rev, unpacked under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def snapshot(dest):
    """This working tree's files, tracked and untracked but not ignored,
    copied under dest."""
    listing = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listing.decode().split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def run_once(tree, workload, seconds):
    """One run.py run in tree: (result line, run record)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    record_path = os.path.join(tree, "perfbench", "out",
                               f"{workload}-seed{SEED}-trace0.json")
    with open(record_path) as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


def deviation(p, c):
    """Largest relative deviation between two item values: dicts by key,
    [re, im] pairs as complex numbers, other lists element by element."""
    if isinstance(p, dict):
        return max((deviation(p[k], c[k]) for k in p), default=0.0)
    if isinstance(p, list):
        if len(p) == 2 and all(isinstance(v, (int, float)) for v in p + c):
            p, c = complex(*p), complex(*c)
        else:
            return max((deviation(a, b) for a, b in zip(p, c)), default=0.0)
    scale = max(abs(p), abs(c))
    return abs(p - c) / scale if scale else 0.0


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    parent_commit = git("rev-parse", f"{args.parent}^{{commit}}").decode().strip()
    change_commit = git("rev-parse", "HEAD").decode().strip()
    # untracked, non-ignored files count: snapshot() copies them into the change tree
    dirty = bool(git("status", "--porcelain", "--untracked-files=all").strip())

    results = {"parent": [], "change": []}
    records = {"parent": [], "change": []}
    order = []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        extract(parent_commit, trees["parent"])
        snapshot(trees["change"])
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(list(sides))
            for side in sides:
                result, record = run_once(trees[side], args.workload, seconds)
                results[side].append(result)
                records[side].append(record)
                value = result["metrics"].get("items_per_s", {}).get("value")
                print(f"pair {i + 1}/{args.pairs} {side}: items_per_s={value}",
                      file=sys.stderr, flush=True)

    metrics = {}
    for name, spec in declared.items():
        vals = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         "parent": summary(vals["parent"]), "change": summary(vals["change"]),
                         "change_wins": wins, "pairs": args.pairs, "values": vals}

    items = {}
    for side in records:
        for record in records[side]:
            for it in record["items"]:
                entry = items.setdefault(it["label"], {"values": {"parent": {}, "change": {}},
                                                       "failed": {"parent": 0, "change": 0}})
                entry["failed"][side] += it["error"] is not None
                if it["value"] is not None:
                    # an item repeats its value from cycle to cycle: compare distinct ones
                    entry["values"][side][json.dumps(it["value"], sort_keys=True)] = it["value"]
    for entry in items.values():
        vals = entry.pop("values")
        entry["max_value_deviation"] = max(
            (deviation(p, c) for p in vals["parent"].values() for c in vals["change"].values()),
            default=None)

    prov = {side: records[side][0]["provenance"] for side in records}
    payload = {
        "workload": args.workload,
        "seed": SEED,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": order,
        "provenance": {
            "parent": {"rev": args.parent, "commit": parent_commit,
                       "source_sha256": prov["parent"]["source_sha256"]},
            "change": {"head_commit": change_commit, "uncommitted_changes": dirty,
                       "source_sha256": prov["change"]["source_sha256"]},
            **{key: prov["change"][key] for key in ("nproc", "cpus_usable", "blas_threads",
                                                     "python", "machine", "numpy", "scipy",
                                                     "blas", "blas_version")},
        },
        "metrics": metrics,
        "items": items,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
