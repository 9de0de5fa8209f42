"""Tests for the closed-form clique bounds and the degree chain."""

import dataclasses
import json
import math

import numpy as np
import pytest

from algconn.bounds import (
    BoundsReport,
    clique_lower_bound,
    clique_upper_bound,
    degree_chain,
    kite_alpha_floor,
    sandwich_report,
)
from algconn.cli import main
from algconn.errors import CompleteGraphError, DisconnectedGraphError
from algconn.graphs import (
    complete,
    decode,
    disjoint_union,
    is_isomorphic,
    kite,
    min_degree,
    path,
    star,
    turan,
    vertex_connectivity,
)
from algconn.graph6 import write_graph6
from algconn.scan import build_graph_table
from algconn.spectra import algebraic_connectivity


def path_alpha(n):
    return 4 * math.sin(math.pi / (2 * n)) ** 2


class TestLowerBound:
    def test_tight_at_divisible_turan(self):
        assert clique_lower_bound(6, 4) == pytest.approx(3.0, abs=1e-12)

    def test_paw(self):
        assert clique_lower_bound(4, 1) == pytest.approx(4 / 3, abs=1e-12)
        assert algebraic_connectivity(kite(4, 3)) == pytest.approx(1, abs=1e-10)

    def test_limit_toward_one(self):
        assert clique_lower_bound(100, 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_disconnected_and_complete(self):
        with pytest.raises(DisconnectedGraphError):
            clique_lower_bound(5, 0.0)
        with pytest.raises(CompleteGraphError):
            clique_lower_bound(5, 5.0)


class TestUpperBound:
    def test_paw(self):
        assert clique_upper_bound(4, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_complete_case_consistent(self):
        for n in (3, 6, 10):
            assert clique_upper_bound(n, n) >= n

    def test_path_five(self):
        assert clique_upper_bound(5, path_alpha(5)) >= 2

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            clique_upper_bound(5, -1.0)


class TestKiteFloor:
    def test_examples(self):
        assert kite_alpha_floor(4, 3) == pytest.approx(0.5, abs=1e-12)
        assert kite_alpha_floor(10, 2) == pytest.approx(4 / 90, abs=1e-12)
        assert kite_alpha_floor(10, 2) <= path_alpha(10)

    def test_complete_case(self):
        for n in (3, 7):
            assert kite_alpha_floor(n, n) == pytest.approx(4 / n, abs=1e-12)
            assert kite_alpha_floor(n, n) <= n

    def test_floor_below_actual_alpha_grid(self):
        for n in range(2, 21):
            for r in range(2, n + 1):
                floor = kite_alpha_floor(n, r)
                actual = algebraic_connectivity(kite(n, r))
                assert floor <= actual + 1e-9, (n, r)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kite_alpha_floor(3, 1)


class TestDegreeChain:
    def test_turan_full_equality(self):
        alpha, nu, delta, avg = degree_chain(turan(6, 3))
        assert alpha == pytest.approx(4, abs=1e-8)
        assert (nu, delta) == (4, 4)
        assert avg == pytest.approx(4, abs=1e-12)

    def test_path_four(self):
        alpha, nu, delta, avg = degree_chain(path(4))
        assert alpha == pytest.approx(2 - math.sqrt(2), abs=1e-9)
        assert (nu, delta) == (1, 1)
        assert avg == pytest.approx(1.5, abs=1e-12)

    def test_star(self):
        alpha, nu, delta, avg = degree_chain(star(5))
        assert alpha == pytest.approx(1, abs=1e-9)
        assert (nu, delta) == (1, 1)
        assert avg == pytest.approx(1.6, abs=1e-12)

    def test_rejects_complete_and_disconnected(self):
        with pytest.raises(CompleteGraphError):
            degree_chain(complete(4))
        with pytest.raises(DisconnectedGraphError):
            degree_chain(disjoint_union(complete(2), complete(2)))

    def test_chain_exhaustive_n6(self):
        # alpha <= nu <= delta <= 2e/n over every connected non-complete graph
        table = build_graph_table(6)
        full = table.size - 1
        for code in np.nonzero(table.connected)[0]:
            if code == full:
                continue
            g = decode(6, int(code))
            nu = vertex_connectivity(g)
            assert table.alpha[code] <= nu + 1e-8, code
            assert nu <= min_degree(g) <= 2 * g.edge_count / 6 + 1e-12, code


class TestSandwichReport:
    def test_paw(self):
        rep = sandwich_report(kite(4, 3))
        assert rep.omega == 3
        assert rep.lower == pytest.approx(4 / 3, abs=1e-9)
        assert rep.upper == pytest.approx(4.0, abs=1e-9)
        assert rep.lower_ceil == 2 and rep.upper_floor == 4
        assert not rep.flags["lower_equality"]

    def test_turan_derived_values(self):
        rep = sandwich_report(turan(6, 3))
        assert rep.omega == 3
        assert rep.lower == pytest.approx(3.0, abs=1e-9)
        assert rep.upper == pytest.approx(6 + 1 - 4 / 24, abs=1e-9)
        assert rep.flags["lower_equality"]

    def test_kite_six_three(self):
        rep = sandwich_report(kite(6, 3))
        assert rep.lower < 3 <= rep.upper
        assert rep.omega == 3

    def test_complete_flags(self):
        rep = sandwich_report(complete(5))
        assert rep.flags["complete"]
        assert rep.lower is None and rep.upper is None
        assert rep.omega == 5 and rep.nu == 4

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            sandwich_report(disjoint_union(complete(2), complete(1)))

    def test_json_round_trip(self):
        rep = sandwich_report(turan(7, 3))
        data = json.loads(rep.to_json())
        assert data["omega"] == 3
        assert data["n"] == 7
        assert list(data) == [f.name for f in dataclasses.fields(BoundsReport)]

    def test_csv_row_shape(self, capsys):
        assert main(["--format", "csv", "bounds", write_graph6(turan(6, 3))]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",") == [f.name for f in dataclasses.fields(BoundsReport)]
        assert len(row.split(",")) == len(header.split(","))
        assert row.endswith(",lower_equality")

    def test_bracket_exhaustive_n6(self):
        # ceil(lower) <= omega <= floor(upper) for connected non-complete graphs
        table = build_graph_table(6)
        full = table.size - 1
        n = 6
        for code in np.nonzero(table.connected)[0]:
            if code == full:
                continue
            alpha = table.alpha[code]
            omega = int(table.omega[code])
            lower = n / (n - alpha)
            upper = n + 1 - 4 / (n * alpha)
            assert lower <= omega + 1e-9, code
            assert omega <= upper + 1e-9, code

    def test_lower_equality_exactly_at_divisible_turan_n6(self):
        table = build_graph_table(6)
        full = table.size - 1
        hits = []
        for code in np.nonzero(table.connected)[0]:
            if code == full:
                continue
            alpha = table.alpha[code]
            omega = int(table.omega[code])
            if abs(6 / (6 - alpha) - omega) <= 1e-6:
                hits.append((int(code), omega))
        assert hits, "expected T_{6,2} and T_{6,3} labelings"
        for code, omega in hits:
            assert 6 % omega == 0
            assert is_isomorphic(decode(6, code), turan(6, omega))
