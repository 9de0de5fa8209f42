"""CLI tests: exit codes, formats, input conventions."""

import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from algconn import cli as cli_mod
from algconn import scan as scan_mod
from algconn.cli import build_parser, main
from algconn.graph6 import parse_graph6, write_graph6
from algconn.graphs import (
    canonical_code,
    complete,
    complete_multipartite,
    decode,
    encode,
    is_isomorphic,
    kite,
    relabel,
    turan,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_complete_three(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "complete", "3")
        assert code == 0
        assert out.strip() == "Bw"

    def test_turan(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "turan", "7", "3")
        assert code == 0
        assert is_isomorphic(parse_graph6(out.strip()), turan(7, 3))

    def test_kite_paw(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "kite", "4", "3")
        assert code == 0
        assert is_isomorphic(parse_graph6(out.strip()), kite(4, 3))

    def test_join_of(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "join-of", "3", "3", "1")
        assert code == 0
        assert is_isomorphic(parse_graph6(out.strip()), complete_multipartite(3, 3, 1))

    def test_bad_arity(self, capsys):
        code, _, err = run_cli(capsys, "construct", "turan", "7")
        assert code == 2
        assert "parameter" in err

    def test_bad_value(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "turan", "3", "7")
        assert code == 2


class TestSpectrum:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "spectrum", "Bw")
        assert code == 0
        data = json.loads(out)
        assert data["eigenvalues"] == [3, 3, 0]
        assert data["alpha"] == pytest.approx(3, abs=1e-9)

    def test_alpha_is_the_reported_eigenvalue(self, capsys):
        # K_5: every nonzero eigenvalue rounds to 5.0, and so must alpha.
        code, out, _ = run_cli(capsys, "--format", "json", "spectrum", "D~{")
        data = json.loads(out)
        assert data["eigenvalues"] == [5.0, 5.0, 5.0, 5.0, 0.0]
        assert data["alpha"] == data["eigenvalues"][-2] == 5.0

    def test_turan_alpha(self, capsys):
        g6 = write_graph6(turan(6, 3))
        code, out, _ = run_cli(capsys, "--format", "json", "spectrum", g6)
        data = json.loads(out)
        assert data["alpha"] == pytest.approx(4, abs=1e-8)

    def test_disconnected_flagged(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A?\n"))
        code, out, _ = run_cli(capsys, "--format", "json", "spectrum", "-")
        data = json.loads(out)
        assert data["connected"] is False
        assert data["alpha"] == 0.0

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nBg\n"))
        code, out, _ = run_cli(capsys, "--format", "json", "spectrum", "-")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2

    def test_csv_header_repeats_only_where_columns_change(self, capsys, monkeypatch):
        # A disconnected graph has no Fiedler columns, so its row gets its own header.
        monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nBw\nA?\n"))
        code, out, _ = run_cli(capsys, "--format", "csv", "spectrum", "-")
        assert code == 0
        lines = out.splitlines()
        assert [i for i, line in enumerate(lines) if line.startswith("n,")] == [0, 3]
        assert lines[0].split(",")[-3:] == ["fiedler", "multiplicity", "connected"]
        assert lines[3] == "n,graph6,eigenvalues,alpha,connected"

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "B\x1e")
        assert code == 2
        assert "graph6" in err

    def test_one_eigensolve_per_graph(self, capsys, monkeypatch):
        import numpy as np

        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or real(m))
        code, out, _ = run_cli(capsys, "--format", "json", "spectrum", "Bw")
        assert code == 0
        assert json.loads(out)["multiplicity"] == 2
        assert len(calls) == 1

    def test_numerical_error_exits_two(self, capsys):
        # No eigensolve meets a 1e-18 residual: one error line, exit 2.
        code, out, err = run_cli(capsys, "--tolerance", "1e-18", "spectrum", "Bw")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical error: ")
        assert len(err.splitlines()) == 1


class TestBounds:
    def test_complete_flags(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(write_graph6(complete(5)) + "\n"))
        code, out, _ = run_cli(capsys, "--format", "json", "bounds", "-")
        assert code == 0
        data = json.loads(out)
        assert data["flags"]["complete"] is True
        assert data["omega"] == 5

    def test_csv(self, capsys):
        g6 = write_graph6(turan(6, 3))
        code, out, _ = run_cli(capsys, "--format", "csv", "bounds", g6)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("n,alpha,omega")
        assert row.split(",")[2] == "3"

    def test_single_vertex_does_not_stop_the_stream(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("@\nBw\n"))
        code, out, _ = run_cli(capsys, "--format", "json", "bounds", "-")
        assert code == 0
        k1, k3 = map(json.loads, out.splitlines())
        assert (k1["n"], k1["alpha"], k1["omega"], k1["flags"]["complete"]) == (1, 0.0, 1, True)
        assert (k3["n"], k3["omega"]) == (3, 3)

    def test_broken_degree_chain_exits_one(self, capsys, monkeypatch):
        from algconn import bounds

        # nu = 0 < alpha breaks alpha <= nu <= delta <= 2e/n.
        monkeypatch.setattr(bounds, "vertex_connectivity", lambda g: 0)
        code, out, err = run_cli(capsys, "bounds", write_graph6(turan(6, 3)))
        assert code == 1
        assert out == ""
        assert "degree chain violated" in err


class TestClique:
    def test_csv_stream_has_one_header(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nBg\n"))
        code, out, _ = run_cli(capsys, "--format", "csv", "clique", "-")
        assert code == 0
        assert out.splitlines() == ["graph6,omega,vertices", "Bw,3,0;1;2", "Bg,2,0;1"]

    def test_omega(self, capsys):
        g6 = write_graph6(turan(7, 3))
        code, out, _ = run_cli(capsys, "--format", "json", "clique", g6)
        data = json.loads(out)
        assert data["omega"] == 3
        assert len(data["vertices"]) == 3

    def test_file_input(self, capsys, tmp_path):
        target = tmp_path / "in.g6"
        target.write_text("Bw\n")
        code, out, _ = run_cli(capsys, "--format", "json", "clique", f"@{target}")
        assert json.loads(out)["omega"] == 3


class TestTransform:
    def test_chain(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "transform", "chain", "3", "7")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["k"], r["l"]) for r in rows] == [(2, 2), (3, 1)]

    def test_theta(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "transform", "theta", "3", "1")
        data = json.loads(out)
        assert data["alpha_theta"] > data["alpha_kite"]

    def test_sign(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "transform", "sign", "4", "3", "1")
        data = json.loads(out)
        assert data["end_product"] < 0

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "transform", "sweep", "4")
        lines = out.strip().splitlines()
        assert lines[0] == "r,k,l,alpha"
        assert len(lines) > 3

    def test_sweep_takes_max_total_as_given(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "transform", "sweep", "3")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and rows
        assert all(row["k"] + row["l"] <= 3 for row in rows)
        code, out, _ = run_cli(capsys, "transform", "sweep", "0")
        assert code == 0 and out == ""

    def test_sweep_default_is_ten(self, capsys):
        _, bare, _ = run_cli(capsys, "--format", "csv", "transform", "sweep")
        _, ten, _ = run_cli(capsys, "--format", "csv", "transform", "sweep", "10")
        assert bare == ten
        assert bare.count("r,k,l,alpha") == 1

    def test_sign_needs_three_parameters(self, capsys):
        code, _, err = run_cli(capsys, "transform", "sign", "4", "3")
        assert code == 2
        assert "required: l" in err

    def test_sign_refuses_an_empty_tail(self, capsys):
        code, out, err = run_cli(capsys, "transform", "sign", "3", "0", "1")
        assert code == 2 and out == ""
        assert err == "error: both tails must be nonempty\n"


class TestScan:
    def test_max_json_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "scan", "max", "6", "3")
        assert code == 0
        cert = json.loads(out)
        assert cert["characterization_ok"] is True
        assert cert["counterexamples"] == []

    def test_min(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "scan", "min", "5", "3")
        assert code == 0
        cert = json.loads(out)
        assert is_isomorphic(parse_graph6(cert["achievers"][0]), kite(5, 3))

    def test_trend(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "scan", "trend", "3", "12")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1]["value"] == pytest.approx(2 / 3)

    def test_trend_csv_has_one_header(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "scan", "trend", "3", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ratio,value"
        assert lines.count("n,ratio,value") == 1
        assert len(lines) == 5

    def test_stray_positional_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "scan", "max", "5", "3", "9")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: 9" in err

    @pytest.mark.parametrize("argv", [
        ("scan", "supersat", "6", "2", "2", "0.1", "--corpus", "x"),
        ("scan", "trend", "3", "5", "--corpus", "x"),
    ])
    def test_corpus_only_on_max_min(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--corpus" in err

    def test_supersat(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "scan", "supersat", "6", "2", "2", "0.1")
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_corpus_flag(self, capsys, tmp_path):
        corpus = tmp_path / "all4.g6"
        from algconn.graphs import decode

        corpus.write_text("\n".join(write_graph6(decode(4, c)) for c in range(64)) + "\n")
        code, out, _ = run_cli(
            capsys, "--format", "json", "scan", "max", "4", "2", "--corpus", str(corpus)
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["source"] == f"corpus:{corpus}"

    def test_guard_validation(self, capsys):
        code, _, err = run_cli(capsys, "--guard", "12", "scan", "max", "6", "3")
        assert code == 2
        assert "guard must be between 1 and 9" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--tolerance", "0", "tolerance must be positive"),
        ("--jobs", "0", "jobs must be >= 1"),
        ("--tolerance", "x", "invalid float value"),
    ])
    def test_global_flag_validation(self, capsys, flag, value, message):
        code, _, err = run_cli(capsys, flag, value, "scan", "trend", "3", "4")
        assert code == 2
        assert message in err

    def test_guard_refusal_for_large_order(self, capsys):
        code, _, err = run_cli(capsys, "scan", "max", "8", "3")
        assert code == 2
        assert "guard" in err

    @pytest.mark.parametrize("action", ["max", "min"])
    def test_order_eight_enumerates_classes_under_guard_eight(self, capsys, action):
        code, out, _ = run_cli(capsys, "--guard", "8", "--format", "json",
                               "scan", action, "8", "3")
        assert code == 0
        assert json.loads(out)["source"] == "enumeration"

    def test_order_nine_refusal_names_the_cost(self, capsys):
        code, _, err = run_cli(capsys, "--guard", "9", "scan", "min", "9", "3")
        assert code == 2
        assert "3,160,576 grown graphs" in err

    def test_supersat_answers_order_nine(self, capsys):
        code, out, _ = run_cli(capsys, "--guard", "9", "--format", "json",
                               "scan", "supersat", "9", "2", "2", "0.05")
        assert code == 0
        assert json.loads(out)["candidates_examined"] == 160_054_952

    def test_deficient_corpus_exits_one(self, capsys, tmp_path):
        # A corpus missing the extremal graph cannot exhibit the predicted
        # extremum; the certificate records that and the exit code is 1.
        from algconn.graphs import empty, path as path_graph

        corpus = tmp_path / "deficient.g6"
        corpus.write_text(
            write_graph6(empty(4)) + "\n" + write_graph6(path_graph(4)) + "\n"
        )
        code, out, _ = run_cli(
            capsys, "--format", "json", "scan", "max", "4", "2", "--corpus", str(corpus)
        )
        assert code == 1
        cert = json.loads(out)
        assert any(c["reason"] == "extremum-mismatch" for c in cert["counterexamples"])

    def test_lenient_g6_flag(self, capsys):
        code, _, err = run_cli(capsys, "clique", "A`")
        assert code == 2  # strict mode rejects padding
        code, out, _ = run_cli(capsys, "--format", "json", "--lenient-g6", "clique", "A`")
        assert code == 0
        assert json.loads(out)["omega"] == 2


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestCorpusErrors:
    """Bad corpora keep their messages and exit 2; the first bad line wins."""

    GOOD4 = write_graph6(complete(4))
    ORDER5 = write_graph6(complete(5))

    def test_order_mismatch(self, capsys, tmp_path):
        corpus = _write_lines(tmp_path / "mixed.g6", [self.GOOD4, self.ORDER5])
        code, out, err = run_cli(capsys, "scan", "max", "4", "2", "--corpus", corpus)
        assert (code, out, err) == (2, "", "error: corpus graph of order 5, expected 4\n")

    @pytest.mark.parametrize("action", ["max", "min"])
    def test_order_above_eleven_is_refused_before_any_line_is_read(
        self, capsys, tmp_path, action
    ):
        for corpus in (str(tmp_path / "missing.g6"), _write_lines(tmp_path / "bad.g6", ["B\x1e"])):
            code, out, err = run_cli(capsys, "scan", action, "12", "3", "--corpus", corpus)
            assert (code, out) == (2, "")
            assert err == "error: corpus order 12 beyond 11: its codes would not fit in 64 bits\n"

    def test_malformed_line_before_mismatch_wins(self, capsys, tmp_path):
        corpus = _write_lines(tmp_path / "c.g6", [self.GOOD4, "Bw?", self.ORDER5])
        code, _, err = run_cli(capsys, "scan", "max", "4", "2", "--corpus", corpus)
        assert (code, err) == (2, "graph6 error: 1 trailing bytes (line 2, byte 2)\n")

    def test_mismatch_before_malformed_line_wins(self, capsys, tmp_path):
        corpus = _write_lines(tmp_path / "c.g6", [self.GOOD4, self.ORDER5, "Bw?"])
        code, _, err = run_cli(capsys, "scan", "min", "4", "3", "--corpus", corpus)
        assert (code, err) == (2, "error: corpus graph of order 5, expected 4\n")

    def test_non_ascii_corpus_names_line_and_byte(self, capsys, tmp_path):
        corpus = tmp_path / "latin1.g6"
        corpus.write_bytes(self.GOOD4.encode() + b"\nC\xe9\n")
        for argv in (("scan", "max", "4", "2", "--corpus", str(corpus)),
                     ("clique", f"@{corpus}")):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (2, "graph6 error: non-ASCII byte (line 2, byte 1)\n")

    @pytest.mark.parametrize("argv, message", [
        (("max", "4", "7"), "need 2 <= r < n, got r=7, n=4"),
        (("min", "4", "5"), "need 2 <= r <= n, got r=5, n=4"),
    ])
    def test_bad_r_is_reported_before_a_bad_corpus(self, capsys, tmp_path, argv, message):
        for corpus in (str(tmp_path / "missing.g6"), _write_lines(tmp_path / "bad.g6", ["B\x1e"])):
            code, _, err = run_cli(capsys, "scan", *argv, "--corpus", corpus)
            assert (code, err) == (2, f"error: {message}\n")


class TestCorpusRoute:
    """The CLI corpus scan tables graph6 codes directly: no Graph per record."""

    @staticmethod
    def _order8_corpus(size=1000, seed=10):
        rng = np.random.default_rng(seed)
        targets = (turan(8, 3), kite(8, 3))
        graphs = []
        for i in range(size):
            if i % 50 < 2:  # plant relabeled extremal graphs among random ones
                graphs.append(relabel(targets[i % 50], rng.permutation(8)))
            else:
                graphs.append(decode(8, int(rng.integers(0, 1 << 28))))
        return graphs

    @pytest.mark.parametrize("action", ["max", "min"])
    def test_cli_scan_parses_no_graph_and_matches_the_api(
        self, capsys, tmp_path, monkeypatch, action
    ):
        import algconn.graph6 as graph6_mod
        import algconn.graphs as graphs_mod

        graphs = self._order8_corpus()
        corpus = _write_lines(tmp_path / "order8.g6", [write_graph6(g) for g in graphs])
        verify = scan_mod.verify_max_theorem if action == "max" else scan_mod.verify_min_theorem
        cert = verify(8, 3, corpus=[(8, encode(g)) for g in graphs])
        cert.source = f"corpus:{corpus}"
        expected = cert.to_json() + "\n"

        calls = {"parse_graph6": 0, "decode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        parse_counted = counted("parse_graph6", graph6_mod.parse_graph6)
        for module in (graph6_mod, cli_mod):
            monkeypatch.setattr(module, "parse_graph6", parse_counted)
        decode_counted = counted("decode", graphs_mod.decode)
        for module in (graphs_mod, graph6_mod, scan_mod):
            monkeypatch.setattr(module, "decode", decode_counted)
        code, out, _ = run_cli(capsys, "--format", "json", "scan", action, "8", "3",
                               "--corpus", corpus)
        monkeypatch.undo()

        assert code == 0
        assert out == expected
        cert = json.loads(out)
        assert cert["counterexamples"] == []
        # decode builds only the achievers: one Graph per achiever class, though
        # every corpus line in an achiever's class is keyed.
        classes = {canonical_code(parse_graph6(a)) for a in cert["achievers"]}
        achiever_lines = sum(canonical_code(g) in classes for g in graphs)
        assert achiever_lines >= 20  # the planted ones
        assert calls == {"parse_graph6": 0, "decode": len(classes)}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "algconn", "construct", "complete", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Bw"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "algconn", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "usage: algconn" in out


def _readme_cli_examples():
    """The `algconn ...` lines of README's CLI code block, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line.rsplit("|", 1)[-1], comments=True)
        if argv and argv[0] == "algconn":
            examples.append(argv[1:])
    return examples


class TestReadme:
    def test_cli_block_is_not_empty(self):
        assert len(_readme_cli_examples()) >= 10

    @pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
    def test_cli_example_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)
