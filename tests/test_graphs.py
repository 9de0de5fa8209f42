"""Graph construction and structural-query tests."""

import functools
import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algconn import graphs
from algconn.cliques import is_kr_free
from algconn.graph6 import write_graph6
from algconn.graphs import (
    Graph,
    attach_path,
    canonical_code,
    complement,
    complete,
    complete_multipartite,
    connected_components,
    cycle,
    decode,
    disjoint_union,
    empty,
    encode,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    join,
    kite,
    min_degree,
    pair_index,
    pairs,
    path,
    relabel,
    star,
    tailed_clique,
    theta_kite,
    turan,
    turan_edge_count,
    vertex_connectivity,
)


@st.composite
def small_graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return decode(n, code)


def nu_brute(g):
    """Independent vertex-connectivity oracle: smallest disconnecting set."""
    if not is_connected(g):
        return 0
    if g.is_complete:
        return g.n - 1
    for size in range(1, g.n - 1):
        for cut in combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in cut]
            if not is_connected(induced_subgraph(g, rest)):
                return size
    return g.n - 1


class TestConstructors:
    def test_complete(self):
        assert complete(1).edge_count == 0
        g = complete(4)
        assert g.edge_count == 6
        assert g.degrees() == [3, 3, 3, 3]
        assert complement(complete(3)).edge_count == 0

    def test_complete_rejects_zero(self):
        with pytest.raises(ValueError):
            complete(0)

    def test_turan_layouts(self):
        g = turan(7, 3)
        # parts (3, 2, 2): complement is K_3 + K_2 + K_2
        comps = connected_components(complement(g))
        assert sorted(len(c) for c in comps) == [2, 2, 3]
        assert g.edge_count == 16  # 21 - (3 + 1 + 1) by complement counting
        g = turan(6, 3)
        assert g.edge_count == 12
        assert g.degrees() == [4] * 6
        assert turan(5, 5).is_complete

    def test_turan_parameter_validation(self):
        with pytest.raises(ValueError):
            turan(5, 6)
        with pytest.raises(ValueError):
            turan(5, 0)

    def test_turan_edge_count_matches_construction(self):
        for n in range(1, 13):
            for r in range(1, n + 1):
                assert turan_edge_count(n, r) == turan(n, r).edge_count

    def test_turan_edge_count_closed_form(self):
        # 2e/n = n - n/r - (r-t)t/(rn), exactly, in rational arithmetic
        for n in range(2, 20):
            for r in range(1, n + 1):
                t = n % r
                lhs = Fraction(2 * turan_edge_count(n, r), n)
                rhs = n - Fraction(n, r) - Fraction((r - t) * t, r * n)
                assert lhs == rhs, (n, r)

    def test_turan_is_clique_free(self):
        for n in range(2, 10):
            for r in range(2, n + 1):
                assert is_kr_free(turan(n, r), r + 1), (n, r)

    def test_kite(self):
        paw = kite(4, 3)
        assert sorted(paw.degrees()) == [1, 2, 2, 3]
        assert paw.has_edge(0, 1) and paw.has_edge(1, 2)
        assert is_isomorphic(kite(6, 2), path(6))
        assert kite(5, 5).is_complete
        with pytest.raises(ValueError):
            kite(4, 1)

    def test_join(self):
        assert is_isomorphic(join(empty(2), empty(2)), cycle(4))
        assert is_isomorphic(join(empty(3), join(empty(2), empty(2))), turan(7, 3))
        fan = join(complete(1), path(5))
        assert fan.edge_count == 5 + 4

    def test_disjoint_union(self):
        assert disjoint_union(complete(1), complete(1)).edge_count == 0
        k33 = complete_multipartite(3, 3)
        assert is_isomorphic(disjoint_union(complete(3), complete(3)), complement(k33))
        three_k2 = disjoint_union(disjoint_union(complete(2), complete(2)), complete(2))
        assert is_isomorphic(complement(turan(6, 3)), three_k2)

    def test_complement(self):
        assert complement(complete(5)).edge_count == 0
        assert is_isomorphic(complement(cycle(5)), cycle(5))
        paw = kite(4, 3)
        assert is_isomorphic(complement(paw), disjoint_union(complete(1), path(3)))

    def test_attach_path(self):
        assert attach_path(complete(3), 0, 3) == kite(6, 3)
        assert is_isomorphic(attach_path(complete(1), 0, 5), path(6))
        two_step = attach_path(attach_path(complete(4), 0, 2), 1, 3)
        assert two_step == tailed_clique(4, 2, 3)
        with pytest.raises(ValueError):
            attach_path(complete(3), 5, 1)

    def test_tailed_clique(self):
        bull = tailed_clique(3, 1, 1)
        assert sorted(bull.degrees()) == [1, 1, 2, 3, 3]
        assert tailed_clique(3, 2, 0) == kite(5, 3)
        assert is_isomorphic(tailed_clique(4, 3, 1), tailed_clique(4, 1, 3))
        with pytest.raises(ValueError):
            tailed_clique(2, 1, 1)

    def test_theta_kite(self):
        g = theta_kite(3, 1)
        assert g.n == 4 and g.edge_count == 5  # K_4 minus one edge
        assert is_isomorphic(g, complement(decode(4, 1)))
        g = theta_kite(3, 2)
        assert g.n == 5 and g.edge_count == 6
        for r in (3, 4, 5):
            for k in (1, 2, 3):
                g = theta_kite(r, k)
                assert g.edge_count == r * (r - 1) // 2 + 2 + (k - 1)

    def test_star(self):
        g = star(5)
        assert g.degrees() == [4, 1, 1, 1, 1]


class TestGraphType:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))

    @pytest.mark.parametrize("n,rows,message", [
        (0, (), "order must be positive"),
        (3, (0b110, 0b101), "row count"),
        (2, (0b110, 0b001), "bits outside"),
        (2, (0b11, 0b01), "self-loop"),
        (3, (0b010, 0b000, 0b000), "not symmetric"),
    ])
    def test_public_constructor_keeps_every_check(self, n, rows, message):
        # decode builds its rows unchecked; Graph itself still validates.
        with pytest.raises(ValueError, match=message):
            Graph(n, rows)

    def test_edge_count_is_half_degree_sum(self):
        g = turan(7, 3)
        assert 2 * g.edge_count == sum(g.degrees())

    def test_from_edges_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])


class TestCodes:
    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 6):
            for code in range(1 << (n * (n - 1) // 2)):
                assert encode(decode(n, code)) == code

    def test_code_bounds(self):
        with pytest.raises(ValueError):
            decode(3, 8)

    def test_code_bit_b_is_pair_b(self):
        for n in range(1, 12):
            nbits = n * (n - 1) // 2
            assert [pair_index(i, j) for i, j in pairs(n)] == list(range(nbits))
            assert [pair_index(j, i) for i, j in pairs(n)] == list(range(nbits))
            for b, (i, j) in enumerate(pairs(n)):
                g = decode(n, 1 << b)
                assert list(g.edges()) == [(i, j)]
                assert encode(g) == 1 << b

    @given(small_graphs())
    def test_roundtrip_random(self, g):
        assert decode(g.n, encode(g)) == g

    def test_batched_adjacency_matches_each_graph(self):
        for n in range(1, 6):
            codes = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
            adj = graphs.adjacency(n, codes)
            assert adj.shape == (len(codes), n, n) and adj.dtype == np.uint8
            for code in codes:
                g = decode(n, int(code))
                assert np.array_equal(adj[code], g.adjacency_matrix())
                assert adj[code].tolist() == [[int(g.has_edge(v, u)) for u in range(n)]
                                              for v in range(n)]


class TestConnectivity:
    def test_is_connected_examples(self):
        assert is_connected(complete(1))
        assert not is_connected(empty(2))
        assert is_connected(kite(9, 4))

    def test_components(self):
        g = disjoint_union(complete(3), path(2))
        assert connected_components(g) == [[0, 1, 2], [3, 4]]

    def test_vertex_connectivity_examples(self):
        for n in (3, 5, 8):
            assert vertex_connectivity(path(n)) == 1
        assert vertex_connectivity(complete(5)) == 4
        assert vertex_connectivity(turan(6, 3)) == 4
        assert vertex_connectivity(empty(2)) == 0
        assert vertex_connectivity(cycle(6)) == 2

    def test_vertex_connectivity_vs_brute_exhaustive(self):
        for n in range(2, 6):
            for code in range(1 << (n * (n - 1) // 2)):
                g = decode(n, code)
                assert vertex_connectivity(g) == nu_brute(g), (n, code)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(min_n=6, max_n=7))
    def test_vertex_connectivity_vs_brute_sampled(self, g):
        assert vertex_connectivity(g) == nu_brute(g)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(min_n=2, max_n=7))
    def test_connectivity_at_most_min_degree(self, g):
        if is_connected(g):
            assert vertex_connectivity(g) <= min_degree(g)


class TestIsomorphism:
    def test_turan_vs_join_construction(self):
        assert is_isomorphic(turan(7, 3), complete_multipartite(2, 3, 2))

    def test_distinct_graphs_same_alpha(self):
        assert not is_isomorphic(turan(7, 3), complete_multipartite(3, 3, 1))

    def test_double_complement(self):
        for g in (turan(7, 3), kite(6, 3), path(5)):
            assert is_isomorphic(g, complement(complement(g)))

    def test_detects_degree_mismatch(self):
        assert not is_isomorphic(path(4), star(4))

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(min_n=2, max_n=7), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert is_isomorphic(g, relabel(g, perm))

    @given(small_graphs(max_n=6), small_graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, g1, g2):
        assert is_isomorphic(g1, g2) == is_isomorphic(g2, g1)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
    def test_transitive_on_relabeling_chains(self, g, rnd):
        perm1 = list(range(g.n))
        perm2 = list(range(g.n))
        rnd.shuffle(perm1)
        rnd.shuffle(perm2)
        b = relabel(g, perm1)
        c = relabel(b, perm2)
        assert is_isomorphic(g, b) and is_isomorphic(b, c) and is_isomorphic(g, c)

    def test_canonical_codes_count_the_classes(self):
        # Non-isomorphic graphs on n = 1..5 vertices, OEIS A000088.
        for n, classes in zip(range(1, 6), (1, 2, 4, 11, 34)):
            codes = {canonical_code(decode(n, c)) for c in range(1 << n * (n - 1) // 2)}
            assert len(codes) == classes, n

    def test_networkx_oracle(self):
        nx = pytest.importorskip("networkx")

        def as_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        rng = random.Random(6)
        for trial in range(400):
            if trial % 4 < 2:
                n = rng.randint(1, 10)
                m = rng.randint(0, n * (n - 1) // 2)
                draw = lambda: rng.sample(pairs(n), m)
            else:
                # Regular graphs leave refinement a single colour class to search.
                n = rng.randint(4, 10)
                d = rng.choice([d for d in range(1, n - 1) if n * d % 2 == 0])
                draw = lambda: nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)).edges()
            g1 = Graph.from_edges(n, draw())
            if trial % 2:
                perm = list(range(n))
                rng.shuffle(perm)
                g2 = relabel(g1, perm)
            else:
                g2 = Graph.from_edges(n, draw())
            assert is_isomorphic(g1, g2) == nx.is_isomorphic(as_nx(g1), as_nx(g2)), (
                list(g1.edges()), list(g2.edges()))

    def test_twin_rules_keep_symmetric_graphs_cheap(self, monkeypatch):
        # Most search rows each search may refine, as the two twin rules allow.
        # Without one vertex per twin class, turan(40, 2) needs 41 and 5K2
        # 2,491; without twin-class leaves, empty(40) needs 40 and 5K2 326.
        petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                    + [(i, i + 5) for i in range(5)])
        five_k2 = complement(complete_multipartite(2, 2, 2, 2, 2))
        cases = [(empty(40), 1), (complete(40), 1), (turan(40, 2), 3),
                 (petersen, 191), (five_k2, 206)]
        refine = graphs._equitable
        rows = []
        monkeypatch.setattr(graphs, "_equitable",
                            lambda adj, colors: rows.append(len(colors)) or refine(adj, colors))
        start = time.perf_counter()
        for g, most in cases:
            rows.clear()
            canonical_code(g)
            assert sum(rows) <= most, (g.n, sum(rows))
        assert time.perf_counter() - start < 1.0


class TestAlgebraicIdentities:
    @given(small_graphs(max_n=5), small_graphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_complement_of_join(self, a, b):
        lhs = complement(join(a, b))
        rhs = disjoint_union(complement(a), complement(b))
        assert lhs == rhs

    @given(small_graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g


@functools.cache
def _family_members():
    """Every family member on the pinned grid, by family, in a fixed order."""
    rng = random.Random(17)

    def random_graph(lo, hi):
        n = rng.randint(lo, hi)
        return decode(n, rng.getrandbits(n * (n - 1) // 2))

    def random_relabeling():
        g = random_graph(1, 9)
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabel(g, perm)

    small = range(1, 10)
    return {
        "complete": [complete(n) for n in small],
        "empty": [empty(n) for n in small],
        "path": [path(n) for n in small],
        "star": [star(n) for n in small],
        "cycle": [cycle(n) for n in range(3, 10)],
        "turan": [turan(n, r) for n in range(1, 11) for r in range(1, n + 1)],
        "kite": [kite(n, r) for r in range(2, 6) for n in range(r, r + 4)],
        "tailed_clique": [tailed_clique(r, k, l)
                          for r in range(3, 6) for k in range(4) for l in range(4)],
        "theta_kite": [theta_kite(r, k) for r in range(3, 6) for k in range(1, 4)],
        "complete_multipartite": [complete_multipartite(*sizes) for m in range(1, 5)
                                  for sizes in product(range(1, 4), repeat=m)],
        "join": [join(random_graph(1, 6), random_graph(1, 6)) for _ in range(200)],
        "relabel": [random_relabeling() for _ in range(300)],
    }


#: sha256 of each family's graph6 strings, one per line, on the grid above.
_FAMILY_DIGESTS = {
    "complete": "d6da72036feaa5e7c152c3bba1f9ec835c06ac3a895bbb17dd8af63013b9160c",
    "complete_multipartite": "51fa96d5786256f3225a9dc3770a6020f42742f7d6f382a51a871ccd244751b9",
    "cycle": "6a8d84a3c98739e3799f2acbbed3d01d480f7236db57303aab248cebb74d4be2",
    "empty": "b5761be0166837a1f64a185849d1183db851986f23c7e940d937eafcaf2f35f7",
    "join": "747d95f448197750b3f7510d1f4f8ff39dad27f6703c763e4bda839da9ec841e",
    "kite": "2676f62296f0166f54ab6ea510418c771e92c78e91fbc3539c47ba418900425b",
    "path": "c798a3979235531d896794d2b25a52c439ada25b5089909d9e4109dc88f5a3a4",
    "relabel": "818ada4f229201e0772b12778bf64c4a790632b87c25d7d4463d451179ae41d7",
    "star": "93bfb31c69087680ee7f61b7cafc5bdcd810b6db25e7ed636089658719ea3111",
    "tailed_clique": "5065a47f58e5e2dad408225f9866004a18677da15a5cdc7a53188b5b59572e81",
    "theta_kite": "203c487962178b66ec84f66b07bccee0828f0ec0e1dfe96c92a9788bf23dd653",
    "turan": "0368f4d5441d27a14ffa3c0545dbc5649342e6fcba84fa38a27d4a2d4c3897c3",
}


class TestFamilyPins:
    """The families' exact labelings, pinned so that a rewrite keeps every graph6 byte."""

    @pytest.mark.parametrize("family", sorted(_FAMILY_DIGESTS))
    def test_graph6_digest(self, family):
        text = "\n".join(write_graph6(g) for g in _family_members()[family])
        assert hashlib.sha256(text.encode()).hexdigest() == _FAMILY_DIGESTS[family]
