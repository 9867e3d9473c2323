"""The benchmark's workloads: what each one runs, and how its output is fingerprinted.

Every workload enumerates its items deterministically; the workload seed only
shuffles the order in which they run.  Each run is a fresh process, so the
`build_reduction` memo starts empty and is never cleared by the benchmark.

- reduce-n12: `build_reduction` on the 171 box-move pairs with N = 12.  Rank
  elimination in `lie`, reached through `pyramids.is_good_grading` and
  `star.check_star`, does the work; `screening` does none of it.
- screen-9to10: source and target `screening_coeffs` plus `fourier_signs` on
  the 138 box-move pairs with N in {9, 10}.  The reduction data are built in
  set-up, so only `screening` is timed: the control for elimination changes.
- chain-n11: `build_chain` on the 1370 dominance-comparable pairs with N = 11.
  10373 steps share 87 distinct reductions, so the memo answers 99% of the
  calls and `orbits.reduction_path` runs on every item.
- cli-cold: about ten README verbs, each a fresh `python` process, repeated to
  100 invocations; import, argparse and JSON emission dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The console-script entry point, spelled out so it runs from a source tree.
CLI_ENTRY = "import sys; from slred.cli import main; sys.exit(main())"

CLI_SCRIPT = (
    "orbits 10 --json",
    "adjacent 5,3,3,3 5,4,3,2",
    "path 5,3,3,3 6,3,3,2",
    "reduce 5,3,3,3 5,4,3,2 --json",
    "chain 2,2,1 4,1",
    "check-star 3,3,3 4,3,2 --json",
    "screenings 3,3 4,2 --json",
    "screenings 2,2,1 --json",
    "render 3,2 4,1 --tikz",
    "verify-all --max-n 6 --json",
)
CLI_REPEATS = 10
CLI_TIMEOUT_S = 60


class Workload(NamedTuple):
    # setup(trace) -> [(key, thunk)]; calling a thunk runs one timed item.
    setup: Callable[[bool], list]
    # fingerprint(result) -> JSON-able value that a correct result must reproduce.
    fingerprint: Callable[[object], object]


def item_hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(item_hashes: dict) -> str:
    """Order-independent digest of a workload's per-item hashes."""
    lines = sorted(f"{key}\t{value}" for key, value in item_hashes.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    The hash seed is pinned so that set iteration order, and with it timing,
    repeats from run to run; the payloads do not depend on it (the
    benchmark's own test checks seeds 0 and 1).  Bytecode is always cached,
    as for an installed package, so that cold starts do not time compiling
    `slred` or depend on the caller's PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("SLRED_WORKERS", None)
    return env


def _label(parts) -> str:
    return "[" + ",".join(map(str, parts)) + "]"


def _pair_key(lam, mu) -> str:
    return f"{_label(lam)}->{_label(mu)}"


def _box_move_pairs(ns) -> list:
    from slred import box_move_witness, partitions_of

    pairs = []
    for n in ns:
        parts = partitions_of(n)
        pairs.extend(
            (lam.parts, mu.parts)
            for lam in parts
            for mu in parts
            if lam != mu and box_move_witness(lam, mu) is not None
        )
    return pairs


# slred is imported inside set-up, which the child process times; run.py
# imports this module without slred on its path.  Thunks look up
# `slred.<name>` at call time, never a name bound at set-up, so the tracer's
# wrappers (installed after set-up) see every call.


# ----------------------------------------------------------------------
# reduce-n12


def _setup_reduce(trace: bool) -> list:
    import slred

    return [
        (_pair_key(lam, mu), lambda lam=lam, mu=mu: slred.build_reduction(lam, mu))
        for lam, mu in _box_move_pairs([12])
    ]


# ----------------------------------------------------------------------
# screen-9to10


def _setup_screen(trace: bool) -> list:
    import slred

    def item(datum):
        source = slred.screening_coeffs(datum, "source")
        target = slred.screening_coeffs(datum, "target")
        return source, target, slred.fourier_signs(source, target)

    return [
        (_pair_key(lam, mu), lambda d=slred.build_reduction(lam, mu): item(d))
        for lam, mu in _box_move_pairs([9, 10])
    ]


def _screen_fingerprint(result) -> object:
    source, target, signs = result
    return [source.to_json(), target.to_json(), list(signs)]


# ----------------------------------------------------------------------
# chain-n11


def _setup_chain(trace: bool) -> list:
    import slred

    parts = slred.partitions_of(11)
    return [
        (_pair_key(lam.parts, mu.parts), lambda lam=lam, mu=mu: slred.build_chain(lam, mu))
        for lam in parts
        for mu in parts
        if lam != mu and slred.dominance_leq(lam, mu)
    ]


# ----------------------------------------------------------------------
# cli-cold


class CliResult(NamedTuple):
    code: int
    stdout: str
    trace: object  # the traced bootstrap's report, or None


def _run_cli(argv: list, trace: bool) -> CliResult:
    env = child_env()
    if not trace:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        return _checked(proc, None)
    fd, out = tempfile.mkstemp(prefix="cli-trace-", suffix=".json", dir=HERE / "out")
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_boot.py"), out, *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        with open(out) as fh:
            report = json.load(fh)
    finally:
        os.unlink(out)
    return _checked(proc, report)


def _checked(proc, report) -> CliResult:
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return CliResult(proc.returncode, proc.stdout, report)


def _setup_cli(trace: bool) -> list:
    import slred.cli  # noqa: F401  (set-up fails early on a broken package)

    calls = [argv.split() for _ in range(CLI_REPEATS) for argv in CLI_SCRIPT]
    return [
        (f"{k:03d} {' '.join(argv)}", lambda argv=argv: _run_cli(argv, trace))
        for k, argv in enumerate(calls)
    ]


WORKLOADS = {
    "reduce-n12": Workload(_setup_reduce, lambda datum: datum.to_json()),
    "screen-9to10": Workload(_setup_screen, _screen_fingerprint),
    "chain-n11": Workload(_setup_chain, lambda chain: [d.summary() for d in chain]),
    "cli-cold": Workload(_setup_cli, lambda r: [r.code, r.stdout]),
}
