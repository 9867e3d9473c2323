"""Traced `slred` invocation for the cli-cold workload.

Usage: python perfbench/cli_boot.py REPORT.json <slred arguments>

Behaves like the `slred` console script (same stdout and exit code), but
times `import slred.cli`, installs the benchmark's tracer before dispatch,
and writes the trace report, spans included, to REPORT.json.
"""

import json
import sys
import time

from tracer import Tracer

start = time.perf_counter()
import slred.cli  # noqa: E402

import_s = time.perf_counter() - start

tracer = Tracer()
tracer.install()
try:
    code = slred.cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
finally:
    report = tracer.report()
    report["counts"]["cli.import_s"] = import_s
    report["spans"] = tracer.spans
    with open(sys.argv[1], "w") as fh:
        json.dump(report, fh)
sys.exit(code)
