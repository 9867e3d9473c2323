"""End-to-end tests for the command-line interface."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import validate

import slred.cli
from slred.cli import MAX_N, MAX_ORBITS_N, MAX_VERIFY_N, Report, emit, main, verify_all

DATA = Path(__file__).parent / "data"


def _schema():
    ref = resources.files("slred").joinpath("schema/report.schema.json")
    return json.loads(ref.read_text())


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, _err = _run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestEmit:
    def test_empty_report_is_a_json_document_with_status(self):
        text = emit(Report("pass", "", {}), "json")
        doc = json.loads(text)
        assert doc == {"payload": {}, "status": "pass", "summary": ""}

    def test_json_keys_are_sorted(self):
        text = emit(Report("pass", "s", {"b": 1, "a": 2}), "json")
        assert text.index('"a"') < text.index('"b"')

    def test_unsupported_format_raises(self):
        with pytest.raises(ValueError):
            emit(Report("pass", "", {}), "yaml")

    def test_missing_rendering_raises(self):
        with pytest.raises(ValueError):
            emit(Report("pass", "", {}), "tikz")

    def test_rendering_lookup(self):
        report = Report("pass", "", {}, renderings={"ascii": "grid"})
        assert emit(report, "ascii") == "grid"


class TestSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ("orbits", "4"),
            ("adjacent", "3,2", "4,1"),
            ("path", "2,1", "3"),
            ("reduce", "1,1", "2"),
            ("chain", "2,2", "4"),
            ("check-star", "2,1", "3"),
            ("screenings", "2,1"),
            ("screenings", "2,1", "3"),
            ("render", "3,2"),
            ("verify-all", "--max-n", "3"),
        ],
    )
    def test_every_verb_validates(self, capsys, argv):
        _code, doc = _run_json(capsys, *argv)
        validate(doc, _schema())

    def test_failing_report_validates_too(self, capsys):
        code, doc = _run_json(capsys, "adjacent", "5,3,3,3", "6,3,3,2")
        assert code == 1
        validate(doc, _schema())
        assert doc["status"] == "fail"

    def test_verification_failure_in_json_mode_validates(self, capsys, monkeypatch):
        def failing(lam, mu):
            raise RuntimeError("internal verification failed at character: patched")

        monkeypatch.setattr(slred.cli, "build_reduction", failing)
        code, doc = _run_json(capsys, "reduce", "3,2", "4,1")
        assert code == 1
        validate(doc, _schema())
        assert doc == {
            "payload": {},
            "status": "fail",
            "summary": "internal verification failed at character: patched",
        }


class TestOrbits:
    def test_sl4_has_five_orbits(self, capsys):
        code, doc = _run_json(capsys, "orbits", "4")
        assert code == 0
        payload = doc["payload"]
        assert payload["count"] == 5
        assert [o["partition"] for o in payload["orbits"]] == [
            [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1],
        ]

    def test_cover_relations(self, capsys):
        _code, doc = _run_json(capsys, "orbits", "4")
        covers = {tuple(o["partition"]): o["covered_by"] for o in doc["payload"]["orbits"]}
        assert covers[(4,)] == []
        assert covers[(2, 2)] == [[3, 1]]
        assert covers[(1, 1, 1, 1)] == [[2, 1, 1]]


class TestAdjacent:
    def test_adjacent_pair_passes(self, capsys):
        code, doc = _run_json(capsys, "adjacent", "5,3,3,3", "5,4,3,2")
        assert code == 0
        assert doc["payload"]["adjacent"] is True
        assert doc["payload"]["box_move"] == [2, 4]

    def test_box_move_without_covering_fails(self, capsys):
        code, doc = _run_json(capsys, "adjacent", "5,3,3,3", "6,3,3,2")
        assert code == 1
        assert doc["payload"]["adjacent"] is False
        assert doc["payload"]["satisfies_box_move"] is True


class TestPath:
    def test_two_step_chain(self, capsys):
        code, doc = _run_json(capsys, "path", "5,3,3,3", "6,3,3,2")
        assert code == 0
        assert doc["payload"]["steps"] == [[5, 3, 3, 3], [5, 4, 3, 2], [6, 3, 3, 2]]
        assert doc["payload"]["length"] == 2

    def test_incomparable_pair_is_an_error(self, capsys):
        code, out, err = _run(capsys, "path", "2,2", "3,1,1")
        assert code == 2
        assert "dominance" in err


class TestReduce:
    def test_virasoro_datum(self, capsys):
        code, doc = _run_json(capsys, "reduce", "1,1", "2")
        assert code == 0
        payload = doc["payload"]
        assert payload["lam"] == [1, 1]
        assert payload["mu"] == [2]
        assert payload["case"] == "I"
        assert payload["character"] == ["1"]
        assert payload["certificate"]["pass"] is True
        assert payload["membership_certified_by"] == "conjugation"

    def test_summary_line_when_not_quiet(self, capsys):
        code, out, _err = _run(capsys, "reduce", "1,1", "2")
        assert code == 0
        assert "conjugator verified" in out

    def test_quiet_suppresses_output(self, capsys):
        code, out, _err = _run(capsys, "reduce", "1,1", "2", "--quiet")
        assert code == 0
        assert out == ""


class TestChain:
    def test_every_step_is_reported(self, capsys):
        code, doc = _run_json(capsys, "chain", "2,2,1", "4,1")
        assert code == 0
        steps = doc["payload"]["steps"]
        assert [s["lam"] for s in steps] == [[2, 2, 1], [3, 1, 1], [3, 2]]
        assert [s["mu"] for s in steps] == [[3, 1, 1], [3, 2], [4, 1]]
        assert all(s["membership_certified_by"] for s in steps)


class TestCheckStar:
    def test_certificate_passes(self, capsys):
        code, doc = _run_json(capsys, "check-star", "3,3,3", "4,3,2")
        assert code == 0
        assert doc["payload"]["pass"] is True
        assert not doc["payload"]["violations"]


class TestScreenings:
    def test_single_orbit_mode(self, capsys):
        code, doc = _run_json(capsys, "screenings", "2,1")
        assert code == 0
        assert doc["payload"]["mode"] == "good-pair"
        assert doc["payload"]["set"]["side"] == "target"

    def test_pair_mode_reports_fourier_match(self, capsys):
        code, doc = _run_json(capsys, "screenings", "2,1", "3")
        assert code == 0
        assert doc["payload"]["fourier_match"] is True
        assert all(s in (-1, 1) for s in doc["payload"]["signs"])

    def test_pair_mode_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            slred.cli, "fourier_signs", lambda source, target: (None,) * len(target.cases)
        )
        code, out, _err = _run(capsys, "screenings", "2,1", "3")
        assert code == 1
        assert out.splitlines()[0] == "[2,1] -> [3]: Fourier comparison MISMATCH"
        code, doc = _run_json(capsys, "screenings", "2,1", "3")
        assert code == 1
        assert doc["status"] == "fail"
        assert doc["payload"]["fourier_match"] is False


class TestRender:
    def test_ascii_grid_matches_golden_file(self, capsys):
        code, out, _err = _run(capsys, "render", "3,2", "--ascii")
        assert code == 0
        golden = (DATA / "pyramid_3_2.txt").read_text()
        assert out == golden + "\n"

    def test_tikz_is_a_standalone_document(self, capsys):
        code, out, _err = _run(capsys, "render", "3,2", "--tikz")
        assert code == 0
        assert out.startswith(r"\documentclass[tikz")
        assert r"\begin{tikzpicture}" in out
        assert r"\end{document}" in out

    def test_pair_tikz_is_one_document(self, capsys):
        code, out, _err = _run(capsys, "render", "3,2", "4,1", "--tikz")
        assert code == 0
        assert out.count(r"\documentclass") == 1
        assert out.count(r"\begin{tikzpicture}") == 1

    def test_reduce_also_carries_renderings(self, capsys):
        code, out, _err = _run(capsys, "reduce", "3,2", "4,1", "--tikz")
        assert code == 0
        assert out.startswith(r"\documentclass[tikz")


class TestVerifyAll:
    def test_n_max_one_is_a_vacuous_pass(self, capsys):
        code, doc = _run_json(capsys, "verify-all", "--max-n", "1")
        assert code == 0
        assert doc["payload"]["checked"] == 0

    def test_n_max_four_all_pass(self, capsys):
        code, doc = _run_json(capsys, "verify-all", "--max-n", "4")
        assert code == 0
        payload = doc["payload"]
        assert payload["failed"] == 0
        assert payload["checked"] > 0
        assert all(row["ok"] for row in payload["pairs"])

    def test_rows_are_sorted(self, capsys):
        _code, doc = _run_json(capsys, "verify-all", "--max-n", "4")
        rows = doc["payload"]["pairs"]
        keys = [(sum(r["lam"]), r["lam"], r["mu"]) for r in rows]
        assert keys == sorted(keys)

    def test_a_failing_pair_is_reported(self, capsys, monkeypatch):
        original = slred.cli.build_reduction

        def fail_one(lam, mu):
            if lam.parts == (2, 1):
                raise RuntimeError("internal verification failed at character: patched")
            return original(lam, mu)

        monkeypatch.setattr(slred.cli, "build_reduction", fail_one)
        report = verify_all(3)
        rows = report.payload["pairs"]
        assert [row for row in rows if not row["ok"]] == [
            {
                "lam": [2, 1],
                "mu": [3],
                "ok": False,
                "detail": "internal verification failed at character: patched",
            }
        ]
        assert (report.status, report.exit_code) == ("fail", 1)
        assert report.summary == f"1 of {len(rows)} pairs failed"
        assert (report.payload["checked"], report.payload["failed"]) == (3, 1)
        code, doc = _run_json(capsys, "verify-all", "--max-n", "3")
        assert code == 1
        validate(doc, _schema())
        assert doc["summary"] == "1 of 3 pairs failed"

    def test_worker_pool_gives_the_same_report(self, capsys):
        serial = verify_all(4, workers=1)
        parallel = verify_all(4, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_bound_is_enforced(self, capsys):
        assert MAX_VERIFY_N == 16
        code, _out, err = _run(capsys, "verify-all", "--max-n", "17")
        assert code == 2
        assert "between 1 and 16" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_exit_two(self, capsys, workers):
        code, _out, err = _run(capsys, "verify-all", "--max-n", "3", "--workers", workers)
        assert code == 2
        assert "must be positive" in err

    def test_pool_is_capped_by_cpus_and_pairs(self, monkeypatch):
        requested = []

        class FakePool:
            def __init__(self, size):
                requested.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(slred.cli.os, "cpu_count", lambda: 3)
        serial = verify_all(4, workers=1)
        assert requested == []
        assert verify_all(4, workers=10**6).to_json() == serial.to_json()
        assert requested == [3]
        verify_all(2, workers=10**6)  # a single box-move pair runs serially
        assert requested == [3]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [("reduce", "2,1", "3"), ("screenings", "2,1", "3"), ("orbits", "5")],
    )
    def test_byte_identical_json(self, capsys, argv):
        _code, out1, _ = _run(capsys, *argv, "--json")
        _code, out2, _ = _run(capsys, *argv, "--json")
        assert out1 == out2


class TestExitCodes:
    def test_bad_partition_string_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["adjacent", "3,x", "2,2"])
        assert info.value.code == 2

    def test_missing_argument_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["reduce", "3,2"])
        assert info.value.code == 2

    def test_json_and_render_flags_conflict(self, capsys):
        for verb in (["render", "2,1"], ["reduce", "2,2", "3,1"]):
            for flags in (["--json", "--ascii"], ["--json", "--tikz"], ["--ascii", "--tikz"]):
                with pytest.raises(SystemExit) as info:
                    main(verb + flags)
                assert info.value.code == 2
                assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [("adjacent", "1,0,1", "2"), ("render", "0"), ("reduce", "2,0", "2")]
    )
    def test_zero_parts_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "parts must be positive" in capsys.readouterr().err

    def test_domain_error_exits_two(self, capsys):
        code, _out, err = _run(capsys, "orbits", "0")
        assert code == 2
        assert "positive" in err

    def test_orbits_bound_is_enforced(self, capsys):
        assert MAX_ORBITS_N == 30
        code, _out, err = _run(capsys, "orbits", "31")
        assert code == 2
        assert "at most 30" in err

    @pytest.mark.parametrize("verb", sorted(MAX_N))
    def test_partition_bounds_are_enforced_before_any_work(self, capsys, verb):
        bound = MAX_N[verb]
        start = time.perf_counter()
        code, _out, err = _run(capsys, verb, f"{bound},1", str(bound + 1))
        assert time.perf_counter() - start < 0.2
        assert code == 2
        assert f"error: N must be at most {bound} for {verb}, got {bound + 1}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "99999999999999999999"),
            ("reduce", "2", "99999999999999999999"),
            ("screenings", ",".join(["1"] * 20), "2," + ",".join(["1"] * 18)),
        ],
    )
    def test_huge_partitions_exit_two_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, doc = _run_json(capsys, *argv)
        assert time.perf_counter() - start < 0.2
        assert code == 2
        validate(doc, _schema())
        assert doc["summary"].startswith("N must be at most")

    def test_error_report_in_json_mode_validates(self, capsys):
        code, doc = _run_json(capsys, "orbits", "0")
        assert code == 2
        validate(doc, _schema())
        assert doc["status"] == "error"


def _source_env(**extra) -> dict:
    """The environment for a `python -m slred` child that imports from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["orbits", "3"]) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "slred", "orbits", "3"],
        capture_output=True, text=True, env=_source_env(), timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


@pytest.mark.parametrize("argv", [["screenings", "3,3", "4,2"], ["screenings", "2,2,1"]])
def test_screenings_json_does_not_depend_on_the_hash_seed(argv):
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "slred", *argv, "--json"],
            capture_output=True, env=_source_env(PYTHONHASHSEED=seed), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_closed_pipe_exits_one_without_a_traceback():
    # orbits 30 prints far more than a pipe holds, so the child is still
    # writing when the reader goes away after the first line.
    with subprocess.Popen(
        [sys.executable, "-m", "slred", "orbits", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_source_env(),
    ) as proc:
        assert "nilpotent orbits of sl_30" in proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
