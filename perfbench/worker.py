"""One cold benchmark process: set up a workload, time its items, report on stdout.

Usage: python perfbench/worker.py WORKLOAD SEED TRACE [--setup-only]

Set-up (interpreter start, `import slred`, enumeration and any data building)
ends at the CLOCK_MONOTONIC instant reported as `ready`; the parent subtracts
its launch instant to get set-up time.  The timed phase runs every item once
in the seeded order and keeps the results; fingerprints are computed after
the clock stops.  With TRACE = 1 the tracer is installed after set-up, so only
the timed phase is traced.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from tracer import Tracer, merge
from workloads import HERE, WORKLOADS, CliResult, item_hash


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def main(argv: list) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    workload = WORKLOADS[name]
    (HERE / "out").mkdir(exist_ok=True)
    items = workload.setup(trace)
    # Every repetition of a run gets the same order, so an item costs the same
    # in each (on chain-n11 the first item to need a reduction builds it).
    random.Random(f"{name}:{seed}").shuffle(items)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    clock = time.perf_counter
    timed = []
    start = clock()
    for key, thunk in items:
        if tracer:
            tracer.item = key
        t0 = clock()
        try:
            value, error = thunk(), None
        except Exception as exc:  # a failed item is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        timed.append((key, clock() - t0, value, error))
    wall = clock() - start

    out = {"ready": ready, "wall_s": wall, "rss_kb": _peak_rss_kb()}
    if tracer:
        reports = [tracer.report()]
        for key, _seconds, value, _error in timed:
            if isinstance(value, CliResult):
                reports.append(value.trace)
                base = len(tracer.spans)
                tracer.spans.extend(
                    [key, span, begin, end, parent + base if parent >= 0 else -1]
                    for _item, span, begin, end, parent in value.trace["spans"]
                )
        out["trace"] = merge(reports)
        tracer.dump(HERE / "out" / f"spans-{name}-seed{seed}.jsonl.gz")

    rows = []
    for key, seconds, value, error in timed:
        fingerprint = None
        if error is None:
            try:
                fingerprint = item_hash(workload.fingerprint(value))
            except Exception as exc:
                error = f"fingerprint: {type(exc).__name__}: {exc}"
        rows.append([key, seconds, fingerprint, error])
    out["items"] = rows
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
