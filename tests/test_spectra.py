"""Spectral tests against closed-form oracles and exact identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algconn.errors import DisconnectedGraphError, NumericalError
from algconn.graphs import (
    complement,
    complete,
    complete_multipartite,
    cycle,
    decode,
    disjoint_union,
    empty,
    is_connected,
    kite,
    path,
    remove_edge,
    tailed_clique,
    turan,
)
from algconn.spectra import (
    algebraic_connectivity,
    complement_alpha_check,
    eig_sym,
    fiedler_vector,
    lambda_max,
    laplacian,
    laplacians,
)


def path_spectrum(n):
    """Closed-form Laplacian spectrum of the n-path: 4 sin^2(j pi / 2n)."""
    return sorted(4 * math.sin(j * math.pi / (2 * n)) ** 2 for j in range(n))


@st.composite
def small_graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return decode(n, code)


class TestLaplacian:
    def test_k2(self):
        assert np.array_equal(laplacian(complete(2)), [[1, -1], [-1, 1]])

    def test_empty_is_zero(self):
        assert np.count_nonzero(laplacian(empty(5))) == 0

    def test_paw_layout(self):
        lap = laplacian(kite(4, 3))
        assert list(np.diag(lap)) == [3, 2, 2, 1]
        assert lap[0, 3] == -1 and lap[1, 3] == 0

    def test_row_sums_vanish(self):
        lap = laplacian(turan(7, 3))
        assert np.array_equal(lap.sum(axis=1), np.zeros(7))

    def test_non_edges_hold_negative_zero(self):
        lap = laplacian(kite(5, 3))
        off = ~np.eye(5, dtype=bool)
        assert np.array_equal(np.signbit(lap[off]), np.ones(20, dtype=bool))
        assert not np.signbit(laplacian(empty(3))[np.eye(3, dtype=bool)]).any()

    def test_one_builder_for_a_graph_and_a_stack(self):
        from algconn.graphs import adjacency

        codes = np.arange(1 << 10, dtype=np.int64)
        stack = laplacians(adjacency(5, codes))
        assert stack.shape == (len(codes), 5, 5) and stack.dtype == np.float64
        for code in codes:
            assert stack[code].tobytes() == laplacian(decode(5, int(code))).tobytes()


class TestEigSym:
    def test_already_diagonal(self):
        spec = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [3, 2, 1])
        # eigenvectors are a permutation of the identity columns
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(3)[:, [0, 2, 1]])

    def test_complete_graph_spectrum(self):
        for n in (2, 5, 9):
            spec = eig_sym(laplacian(complete(n)))
            expected = [n] * (n - 1) + [0]
            assert np.allclose(spec.eigenvalues, expected, atol=1e-10)

    def test_path_closed_form(self):
        for n in (2, 5, 12):
            spec = eig_sym(laplacian(path(n)))
            assert np.allclose(sorted(spec.eigenvalues), path_spectrum(n), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_residual_gate(self):
        with pytest.raises(NumericalError):
            eig_sym(laplacian(complete(6)), tol=1e-18)

    def test_orthonormal_eigenvectors(self):
        spec = eig_sym(laplacian(turan(8, 3)))
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    def test_residuals(self):
        m = laplacian(kite(7, 4))
        spec = eig_sym(m)
        resid = m @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.max(np.abs(resid)) <= 1e-8


class TestAlgebraicConnectivity:
    def test_turan_closed_form_instances(self):
        for (n, r), expected in {(6, 3): 4, (7, 3): 4, (12, 4): 9}.items():
            assert algebraic_connectivity(turan(n, r)) == pytest.approx(expected, abs=1e-8)

    def test_paper_remark_pair(self):
        assert algebraic_connectivity(complete_multipartite(3, 3, 1)) == pytest.approx(4, abs=1e-8)

    def test_paw(self):
        # characteristic polynomial gives {4, 3, 1, 0}; spanning-tree count
        # cross-check: (1/4) * 4 * 3 * 1 = 3 trees, as the paw indeed has.
        paw = kite(4, 3)
        vals = sorted(np.linalg.eigvalsh(laplacian(paw)))
        assert np.allclose(vals, [0, 1, 3, 4], atol=1e-10)
        assert algebraic_connectivity(paw) == pytest.approx(1, abs=1e-10)
        trees = round(vals[1] * vals[2] * vals[3] / 4)
        assert trees == 3

    def test_disconnected_is_exact_zero(self):
        assert algebraic_connectivity(disjoint_union(complete(3), complete(2))) == 0.0

    def test_complete_is_n(self):
        assert algebraic_connectivity(complete(7)) == pytest.approx(7, abs=1e-10)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            algebraic_connectivity(complete(1))

    def test_positive_iff_connected_exhaustive(self):
        for n in (2, 3, 4, 5):
            for code in range(1 << (n * (n - 1) // 2)):
                g = decode(n, code)
                raw = np.linalg.eigvalsh(laplacian(g))[1]
                assert (raw > 1e-9) == is_connected(g), (n, code)


class TestFiedlerVector:
    def test_two_path(self):
        fv = fiedler_vector(path(2))
        assert fv.alpha == pytest.approx(2, abs=1e-10)
        assert np.allclose(np.abs(fv.values), [1 / math.sqrt(2)] * 2)

    def test_three_path_symmetry(self):
        fv = fiedler_vector(path(3))
        assert fv.alpha == pytest.approx(1, abs=1e-10)
        assert abs(fv.values[1]) < 1e-9
        assert np.allclose(sorted(np.abs(fv.values)), [0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-9)

    def test_sign_normalization(self):
        fv = fiedler_vector(kite(6, 3))
        first_nonzero = next(x for x in fv.values if abs(x) > 1e-9)
        assert first_nonzero > 0

    def test_orthogonal_to_ones(self):
        for g in (turan(7, 3), kite(8, 4), cycle(6)):
            fv = fiedler_vector(g)
            assert abs(fv.values.sum()) <= 1e-8
            assert np.linalg.norm(fv.values) == pytest.approx(1, abs=1e-10)

    def test_tailed_clique_structure(self):
        # hubs equal, tail ends on opposite sides
        fv = fiedler_vector(tailed_clique(3, 2, 2))
        assert fv.values[6] * fv.values[4] < 0

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            fiedler_vector(empty(3))

    def test_multiplicity_reported(self):
        assert fiedler_vector(complete(5)).multiplicity == 4
        assert fiedler_vector(path(4)).multiplicity == 1


class TestLambdaMax:
    def test_complete_bipartite(self):
        for a, b in ((1, 4), (2, 3), (3, 3)):
            assert lambda_max(complete_multipartite(a, b)) == pytest.approx(a + b, abs=1e-8)

    def test_single_vertex(self):
        assert lambda_max(empty(1)) == pytest.approx(0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_bounded_by_order(self, g):
        assert lambda_max(g) <= g.n + 1e-8


class TestComplementIdentity:
    def test_turan_instance(self):
        a, b = complement_alpha_check(turan(6, 3))
        assert a == pytest.approx(4, abs=1e-8)
        assert b == pytest.approx(4, abs=1e-8)

    def test_complete_instance(self):
        a, b = complement_alpha_check(complete(5))
        assert a == pytest.approx(5, abs=1e-8) and b == pytest.approx(5, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_identity_random(self, g):
        a, b = complement_alpha_check(g)
        assert abs(a - b) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_full_spectrum_identity(self, g):
        # sorted eig of L(complement) equals {0} union {n - eig_i(G)}
        n = g.n
        ours = np.sort(np.linalg.eigvalsh(laplacian(complement(g))))
        vals = np.sort(np.linalg.eigvalsh(laplacian(g)))[1:]
        expected = np.sort(np.concatenate([[0.0], n - vals]))
        assert np.allclose(ours, expected, atol=1e-8)


class TestMonotonicity:
    @settings(max_examples=80, deadline=None)
    @given(small_graphs(min_n=3), st.integers(0, 10 ** 9))
    def test_alpha_nonincreasing_under_edge_deletion(self, g, pick):
        edges = list(g.edges())
        if not edges:
            return
        u, v = edges[pick % len(edges)]
        smaller = remove_edge(g, u, v)
        assert algebraic_connectivity(smaller) <= algebraic_connectivity(g) + 1e-9
