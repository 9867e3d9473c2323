"""Self-checks of the benchmark harness.

Run from the repository root (about two minutes on two cores):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

from run import END_TO_END, check
from tracer import LAYER_METRICS, layer_values
from workloads import HERE, ROOT, WORKLOADS, child_env, digest

GOLDEN = json.loads((HERE / "golden.json").read_text())

# Counts that later changes may cite: they must repeat exactly.
EXACT_COUNTS = (
    "lie.rank_of_rows.cells",
    "lie.jordan_type.calls",
    "reduction.build_reduction.misses",
    "screening.poly_mul.calls",
)


def _worker(workload: str, trace: bool, hash_seed: int) -> dict:
    env = child_env()
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, "7", str(int(trace))],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _digest(rep: dict) -> str:
    return digest({key: fingerprint for key, _s, fingerprint, _e in rep["items"]})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_and_exact_counts_repeat(workload):
    first = _worker(workload, trace=True, hash_seed=0)
    second = _worker(workload, trace=True, hash_seed=0)
    other_hash_seed = _worker(workload, trace=False, hash_seed=1)

    # Golden outputs do not depend on the hash seed or on tracing.
    assert _digest(first) == _digest(other_hash_seed) == GOLDEN[workload]["digest"]
    counts = [{k: layer_values(r["trace"])[k] for k in EXACT_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]


def test_wrong_output_counts_as_failure():
    golden = {"items": {"a": "1111", "b": "2222"}, "digest": digest({"a": "1111", "b": "2222"})}
    rep = {"items": [["a", 0.1, "1111", None], ["b", 0.1, "9999", None]]}
    crashed = {"items": [["a", 0.1, "1111", None], ["b", 0.1, None, "RuntimeError: x"]]}
    assert check([rep], golden)["failed"] == 1
    assert not check([rep], golden)["digests_match"]
    assert check([crashed], golden)["failed"] == 1
    good = {"items": [["b", 0.2, "2222", None], ["a", 0.1, "1111", None]]}
    assert check([good], golden) | {"errors": []} == {
        "attempted": 2, "failed": 0, "failed_ratio": 0.0, "digests_match": True,
        "items_match": True, "errors": [],
    }


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS


def test_refuses_to_run_without_a_source_tree():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reduce-n12",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
