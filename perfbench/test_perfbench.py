"""Tests of the benchmark itself: run with `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import gen
import run
import traced

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_same_seed_same_bytes_other_seed_other_bytes():
    one = gen.corpus_bytes(gen.corpus_codes(7, size=500))
    assert one == gen.corpus_bytes(gen.corpus_codes(7, size=500))
    assert one != gen.corpus_bytes(gen.corpus_codes(8, size=500))
    assert len(one.splitlines()) == 500


def test_graph6_writer_agrees_with_algconn():
    from algconn.graph6 import write_graph6
    from algconn.graphs import decode

    for code in gen.corpus_codes(3, size=300) + [0, (1 << 28) - 1]:
        assert gen.graph6_line(code) == write_graph6(decode(gen.N, code))


def test_planted_lines_are_turan_and_kite():
    from algconn.graph6 import parse_graph6
    from algconn.graphs import is_isomorphic, kite, turan

    lines = gen.corpus_bytes(gen.corpus_codes(11, size=201)).decode().split()
    for i in (0, 100, 200):
        assert is_isomorphic(parse_graph6(lines[i]), turan(8, 3))
    for i in (50, 150):
        assert is_isomorphic(parse_graph6(lines[i]), kite(8, 3))


def test_eligible_counts_match_algconn_scan():
    from algconn.graph6 import parse_graph6
    from algconn.scan import verify_max_theorem, verify_min_theorem

    codes = gen.corpus_codes(5, size=400)
    graphs = [parse_graph6(gen.graph6_line(c)) for c in codes]
    counts = gen.eligible_counts(codes)
    assert verify_max_theorem(8, 3, corpus=graphs).graphs_scanned == counts["max"]
    assert verify_min_theorem(8, 3, corpus=graphs).graphs_scanned == counts["min"]


def test_kite_reference_values():
    assert checks.kite_alpha(7) == pytest.approx(0.2253771005, abs=1e-10)
    assert checks.kite_alpha(8) == pytest.approx(0.1667170082, abs=1e-10)
    assert checks.turan_bound(7, 3) == 4.0
    assert checks.turan_bound(8, 3) == 5.0


def _max7_certificate(**changes) -> bytes:
    cert = {
        "n": 7, "r": 3, "mode": "max", "bound": 4.0, "achieved": 4.000000000000001,
        "achievers": ["Fs~v_", "F]~v_"], "characterization_ok": True,
        "counterexamples": [], "graphs_scanned": 1486597, "source": "enumeration",
    }
    cert.update(changes)
    return json.dumps(cert, indent=2).encode()


MAX7 = checks.extremal_expect("max", 7, 3, source="enumeration", **checks.ENUM7["max"])


def test_check_accepts_the_real_certificate():
    assert checks.check(MAX7, 0, _max7_certificate()) == []


@pytest.mark.parametrize("changes", [
    {"achieved": 4.01},
    {"bound": 5.0},
    {"graphs_scanned": 1486596},
    {"achievers": ["Fs~v_"]},
    {"characterization_ok": False},
    {"counterexamples": [{"graph6": "Fs~v_", "alpha": 4.1, "reason": "bound-exceeded"}]},
    {"mode": "min"},
])
def test_check_rejects_a_tampered_certificate(changes):
    assert checks.check(MAX7, 0, _max7_certificate(**changes))


@pytest.mark.parametrize("returncode", [1, 2, None])
def test_check_rejects_a_failed_command(returncode):
    assert checks.check(MAX7, returncode, _max7_certificate())


def test_check_rejects_a_wrong_supersaturation_count():
    cert = dict(checks.SUPERSAT8, epsilon=0.05, source="pruned")
    assert checks.check(checks.supersat_expect(), 0, json.dumps(cert).encode()) == []
    cert["candidates_examined"] += 1
    assert checks.check(checks.supersat_expect(), 0, json.dumps(cert).encode())
    assert checks.check(checks.supersat_expect(), 0, b"not json")


def test_output_that_changes_between_iterations_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    cert = dict(checks.SUPERSAT8, source="pruned")
    script = f"import json, time; print(json.dumps({{**{cert!r}, 'epsilon': time.time()}}))"
    commands = [run.Command("supersat8", [], checks.supersat_expect())]
    first: dict = {}

    def launch(cmd):
        return [sys.executable, "-c", script]

    [one] = run.run_iteration("w", commands, first, time.perf_counter() + 60, launch)
    [two] = run.run_iteration("w", commands, first, time.perf_counter() + 60, launch)
    assert one.problems == []
    assert two.problems == ["stdout differs from the first iteration"]


def _traced_counts(tmp_path: Path, tag: str, argv: list[str]) -> tuple[dict, bytes]:
    spans = tmp_path / f"{tag}.npz"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--src", str(ROOT / "src"),
         "--spans", str(spans), "--spawn", "0", "--", *argv],
        cwd=tmp_path, capture_output=True, timeout=120, check=True,
    )
    summary = traced.summarize(str(spans))
    counts = {k: v for k, v in summary.items() if k.endswith((".calls", ".items"))}
    return counts, done.stdout


def test_traced_counts_repeat_exactly_and_stdout_matches_untraced(tmp_path):
    (tmp_path / "c.g6").write_bytes(gen.corpus_bytes(gen.corpus_codes(2, size=300)))
    argv = ["--jobs", "1", "--format", "json", "scan", "min", "8", "3", "--corpus", "c.g6"]
    first, out1 = _traced_counts(tmp_path, "a", argv)
    second, out2 = _traced_counts(tmp_path, "b", argv)
    assert first == second
    assert first["graph6.parse_graph6.calls"] == 300
    assert first["cliques.max_clique.calls"] == 300
    assert first["cli.main.calls"] == 1
    plain = subprocess.run([sys.executable, "-m", "algconn", *argv], cwd=tmp_path,
                           env=run.child_env(), capture_output=True, timeout=60, check=True)
    assert out1 == out2 == plain.stdout


def test_self_time_subtracts_the_union_of_children():
    import numpy as np

    start = np.array([0.0, 1.0, 1.5, 5.0])
    end = np.array([2.0, 3.0, 2.5, 6.0])
    assert traced._covered(start, end) == pytest.approx(4.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
