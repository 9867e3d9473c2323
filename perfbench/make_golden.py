"""Regenerate perfbench/golden.json from the current source tree.

Usage: python3 perfbench/make_golden.py

Runs every workload once, untraced, and stores each item's output
fingerprint and the workload's order-independent digest.  The checked-in
file was made from the seed commit; regenerate it only for a deliberate,
logged change of output.
"""

import json
import sys

from run import launch
from workloads import HERE, WORKLOADS, digest


def main() -> int:
    golden = {}
    for name in WORKLOADS:
        rep = launch(name, seed=0, trace=False)
        errors = [row for row in rep["items"] if row[3] is not None]
        if errors:
            print(f"{name}: {len(errors)} failed items, first: {errors[0]}", file=sys.stderr)
            return 1
        items = {key: fingerprint for key, _s, fingerprint, _e in rep["items"]}
        golden[name] = {"digest": digest(items), "items": dict(sorted(items.items()))}
        print(f"{name}: {len(items)} items, digest {golden[name]['digest']}")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
