"""Compute and store the references of the default seed.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the root of a checkout.  The stored references let a default-seed
run check its items without computing references; other seeds compute
theirs after the timed loop.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import REFS, load_package  # noqa: E402


def main(names):
    bf = load_package()
    import workloads as wl

    os.makedirs(REFS, exist_ok=True)
    for name in names or wl.WORKLOADS:
        items = wl.WORKLOADS[name].items(wl.DEFAULT_SEED)
        stored = {item.label: {"key": item.key(), "ref": wl.reference(item, bf)}
                  for item in items if wl.needs_reference(item)}
        if not stored:
            continue
        with open(os.path.join(REFS, f"{name}.json"), "w") as fh:
            json.dump({"seed": wl.DEFAULT_SEED, "items": stored}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(stored)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
