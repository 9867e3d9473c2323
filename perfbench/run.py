"""slred benchmark: run one workload cold and print its metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh child process (`perfbench/worker.py`) that sets
up the workload, runs each item once, one at a time, and reports per-item
times and output fingerprints: a closed loop with a single client and no
pool.  Repetitions continue until `--seconds` have passed, with at least
`MIN_REPS`.  Each item's time is its median over repetitions; `wall_s` is
their sum and the item percentiles are taken over them.  Set-up time is the
median over repetitions and extra set-up-only launches.  Each item's
fingerprint must match `golden.json`, computed from the seed commit; a
mismatch, an exception or a nonzero CLI exit counts as a failed item.

With `--trace 0` the result carries the end-to-end metrics.  With `--trace 1`
untraced and traced repetitions alternate; the result carries the per-layer
metrics of the traced ones and the tracing overhead (traced / untraced
`wall_s`).  The last line of stdout is the result as JSON; the line before it
is the run record (environment, sample counts, digests), also written to
`perfbench/out/`.  Without a slred source tree the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import EXPECTED, LAYER_METRICS, fired, layer_values
from workloads import HERE, ROOT, SRC, WORKLOADS, child_env, digest

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MIN_REPS = 3
# Set-up time is short next to the timed phase, so cheap set-up-only launches
# add samples until there are this many or PROBE_BUDGET_S is spent.
SETUP_SAMPLES = 11
PROBE_BUDGET_S = 2.0
WORKER_TIMEOUT_S = 150
# Stop starting repetitions that could end past this point (the run must end
# within 180 s).
DEADLINE_S = 165


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    launched = _now()
    # Its own process group, so a timeout also ends the CLI processes it started.
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not stdout.strip():
        raise HarnessError(f"worker exited {proc.returncode}:\n{stderr[-3000:]}")
    out = json.loads(stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - launched
    out["traced"] = trace
    out["elapsed_s"] = _now() - launched
    return out


def warm_up() -> None:
    """Compile bytecode and fill the page cache before anything is timed."""
    proc = subprocess.run(
        [sys.executable, "-c", "import slred.cli"], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"cannot import slred:\n{proc.stderr[-3000:]}")


def setup_samples(workload: str, seed: int, reps: list) -> list:
    samples = [r["setup_s"] for r in reps]
    spent = 0.0
    while len(samples) < SETUP_SAMPLES and spent < PROBE_BUDGET_S:
        probe = launch(workload, seed, False, setup_only=True)
        samples.append(probe["setup_s"])
        spent += probe["elapsed_s"]
    return samples


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Cold repetitions until `seconds` have passed; with `trace`, untraced and
    traced ones alternate, starting untraced."""
    start = _now()
    reps: list = []
    while True:
        reps.append(launch(workload, seed, trace and len(reps) % 2 == 1))
        plain = sum(not r["traced"] for r in reps)
        enough = (plain >= 1 and len(reps) > plain) if trace else plain >= MIN_REPS
        elapsed = _now() - start
        longest = max(r["elapsed_s"] for r in reps)
        if enough and (elapsed >= seconds or elapsed + longest > DEADLINE_S):
            return reps


def check(reps: list, golden: dict) -> dict:
    """Compare every repetition's fingerprints with the golden ones."""
    failed, errors, digests = 0, [], []
    for rep in reps:
        hashes = {}
        for key, _seconds, fingerprint, error in rep["items"]:
            hashes[key] = fingerprint
            if error is not None or fingerprint != golden["items"].get(key):
                failed += 1
                if len(errors) < 5:
                    errors.append({"item": key, "error": error or "output differs from golden"})
        digests.append(digest(hashes))
    attempted = sum(len(rep["items"]) for rep in reps)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "digests_match": all(d == golden["digest"] for d in digests),
        "items_match": all(
            {row[0] for row in rep["items"]} == set(golden["items"]) for rep in reps
        ),
        "errors": errors,
    }


def end_to_end(reps: list, setups: list) -> tuple[dict, dict]:
    """End-to-end metric values and the sample count behind each."""
    per_item: dict = {}
    for rep in reps:
        for key, seconds, _fp, _err in rep["items"]:
            per_item.setdefault(key, []).append(seconds)
    item_s = [statistics.median(times) for times in per_item.values()]
    # Items run one after another, so the timed phase lasts the sum of its
    # item times.  Summing per-item medians drops the sub-second bursts of
    # contention a shared machine puts into single repetitions.
    wall = sum(item_s)
    values = {
        "wall_s": wall,
        "items_per_s": len(item_s) / wall,
        "item_p50_ms": 1000 * statistics.median(item_s),
        "item_p90_ms": 1000 * statistics.quantiles(item_s, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
    }
    samples = {
        "wall_s": f"sum of {len(item_s)} per-item medians over {len(reps)} repetitions",
        "item_p50_ms": f"{len(item_s)} items, each the median of {len(reps)} repetitions",
        "item_p90_ms": f"{len(item_s)} items, {len(item_s) - int(0.9 * len(item_s))} beyond p90",
        "setup_s": f"median of {len(setups)} cold starts",
        "peak_rss_mb": f"median of {len(reps)} processes",
    }
    return values, samples


def per_layer(workload: str, reps: list) -> tuple[dict, dict]:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    missing = sorted(
        set(EXPECTED[workload]) - set.intersection(*(fired(r["trace"]) for r in traced))
    )
    if missing:
        raise HarnessError(f"wrappers that never fired on {workload}: {', '.join(missing)}")
    layers = [layer_values(r["trace"]) for r in traced]
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead"] = traced_wall / untraced_wall
    overhead = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "ratio": values["trace.overhead"],
        "samples": f"{len(plain)} untraced, {len(traced)} traced repetitions",
    }
    return values, overhead


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "slred").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "pythonhashseed": child_env()["PYTHONHASHSEED"],
        "load": "closed loop, one item at a time, single process, no pool",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slred" / "__init__.py").is_file():
        print(f"error: no slred source tree under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    trace = bool(args.trace)
    try:
        warm_up()
        reps = run_reps(args.workload, args.seed, args.seconds, trace)
        verdict = check(reps, golden)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        record.update(environment())
        record["check"] = verdict
        record["rep_wall_s"] = [[r["wall_s"], r["traced"]] for r in reps]
        if trace:
            values, record["tracing_overhead"] = per_layer(args.workload, reps)
            units = LAYER_METRICS
        else:
            setups = setup_samples(args.workload, args.seed, reps)
            values, record["samples"] = end_to_end(reps, setups)
            units = END_TO_END
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    out = HERE / "out" / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("record: " + json.dumps(record))
    result = {
        "correct": verdict["failed"] == 0 and verdict["digests_match"] and verdict["items_match"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
