"""Tail-rewrite tests: structure preservation, isomorphism images, alpha monotonicity."""

import pytest

from algconn.graphs import (
    TailedCliqueSpec,
    attach_path,
    complete,
    cycle,
    is_isomorphic,
    kite,
    path,
    tailed_clique,
)
from algconn.spectra import algebraic_connectivity
from algconn.transforms import (
    TailSpec,
    check_graft_inequality,
    check_slide_inequality,
    fiedler_sign_report,
    graft_endpoints,
    kite_minimality_chain,
    slide_tail,
    switch_clique_attachment,
    tailed_clique_sweep,
    tailed_clique_tails,
    theta_vs_kite,
)


def two_tails(base, u, v, k, l):
    """Attach pendant paths of lengths k (at u) and l (at v); return graph and specs."""
    g = attach_path(attach_path(base, u, k), v, l)
    p = TailSpec(u, tuple(range(base.n, base.n + k)))
    q = TailSpec(v, tuple(range(base.n + k, base.n + k + l)))
    return g, p, q


class TestTailSpec:
    def test_validate_accepts_real_tail(self):
        g, p, q = two_tails(complete(3), 0, 1, 2, 1)
        p.validate(g)
        q.validate(g)

    def test_rejects_non_pendant(self):
        g = cycle(5)
        with pytest.raises(ValueError):
            TailSpec(0, (1, 2)).validate(g)

    def test_rejects_root_in_vertices(self):
        with pytest.raises(ValueError):
            TailSpec(0, (0, 1))

    def test_tailed_clique_tails(self):
        spec = TailedCliqueSpec(3, 2, 2)
        p, q = tailed_clique_tails(spec)
        g = tailed_clique(3, 2, 2)
        p.validate(g)
        q.validate(g)
        assert p.root == 0 and q.root == 1


class TestGrafting:
    def test_bull_both_ways_give_kite(self):
        g, p, q = two_tails(complete(3), 0, 1, 1, 1)  # the bull
        onto_q, onto_p = graft_endpoints(g, p, q)
        assert is_isomorphic(onto_q, kite(5, 3))
        assert is_isomorphic(onto_p, kite(5, 3))

    def test_preserves_order_and_size(self):
        g, p, q = two_tails(cycle(4), 0, 2, 2, 1)
        for out in graft_endpoints(g, p, q):
            assert out.n == g.n
            assert out.edge_count == g.edge_count

    def test_rejects_overlapping_tails(self):
        g, p, q = two_tails(complete(3), 0, 1, 1, 1)
        with pytest.raises(ValueError):
            graft_endpoints(g, p, p)

    def test_inequality_on_same_side_tails(self):
        # Tails near one end of a long path have same-sign Fiedler ends, so
        # the hypothesis holds and the conclusion must too (checker raises
        # otherwise).
        seen_hypothesis = 0
        for base, (u, v) in ((path(8), (0, 1)), (path(6), (0, 1)), (cycle(8), (0, 1))):
            for k, l in ((1, 1), (2, 1), (1, 2), (2, 2)):
                g, p, q = two_tails(base, u, v, k, l)
                chk = check_graft_inequality(g, p, q)
                if chk.hypothesis_holds and chk.conclusion_ok is not None:
                    seen_hypothesis += 1
                    assert chk.conclusion_ok
        assert seen_hypothesis >= 8

    def test_opposite_sign_tails_are_skipped(self):
        g, p, q = two_tails(complete(3), 0, 1, 2, 2)
        chk = check_graft_inequality(g, p, q)
        assert not chk.hypothesis_holds
        assert chk.conclusion_ok is None
        assert chk.end_product < 0


class TestSliding:
    def test_single_step_shapes(self):
        # two length-1 tails at one vertex of K_1 form a 3-path; sliding
        # re-roots one of them onto the other's end, again a 3-path
        g, p, q = two_tails(complete(1), 0, 0, 1, 1)
        slid = slide_tail(g, p, q)
        assert is_isomorphic(slid, path(3))

    def test_preserves_order_and_size(self):
        g, p, q = two_tails(cycle(4), 0, 0, 3, 2)
        slid = slide_tail(g, p, q)
        assert slid.n == g.n
        assert slid.edge_count == g.edge_count

    def test_repeated_sliding_collapses_to_single_tail(self):
        base = complete(3)
        k, l = 2, 2
        g, p, q = two_tails(base, 0, 0, k, l)
        while l > 0:
            g = slide_tail(g, p, q)
            k += 1
            l -= 1
            p = TailSpec(0, p.vertices + (q.vertices[-1],))
            q = TailSpec(0, q.vertices[:-1]) if l else None
            if q is None:
                break
        assert is_isomorphic(g, kite(3 + 4, 3))

    def test_requires_shared_root(self):
        g, p, q = two_tails(complete(3), 0, 1, 1, 1)
        with pytest.raises(ValueError):
            slide_tail(g, p, q)

    def test_requires_k_at_least_l(self):
        g, p, q = two_tails(complete(3), 0, 0, 1, 2)
        with pytest.raises(ValueError):
            slide_tail(g, p, q)

    def test_alpha_never_increases(self):
        for base in (complete(2), complete(3), cycle(4), path(3)):
            for k, l in ((1, 1), (2, 1), (2, 2), (3, 2)):
                g, p, q = two_tails(base, 0, 0, k, l)
                chk = check_slide_inequality(g, p, q)
                assert chk.alpha >= chk.alpha_slid - 1e-9


class TestSwitching:
    def test_bull_switches_to_kite(self):
        a, b = switch_clique_attachment(TailedCliqueSpec(3, 1, 1))
        assert is_isomorphic(a, kite(5, 3))
        assert is_isomorphic(b, kite(5, 3))

    def test_images_match_direct_construction(self):
        for r in (3, 4, 5):
            for k, l in ((1, 1), (2, 1), (2, 2), (3, 2)):
                grow_first, grow_second = switch_clique_attachment(TailedCliqueSpec(r, k, l))
                assert is_isomorphic(grow_first, tailed_clique(r, k + 1, l - 1)), (r, k, l)
                assert is_isomorphic(grow_second, tailed_clique(r, k - 1, l + 1)), (r, k, l)
                assert grow_first.edge_count == tailed_clique(r, k, l).edge_count

    def test_alpha_above_min_of_switches(self):
        for r, k, l in ((3, 2, 2), (4, 3, 1), (5, 2, 1)):
            base_alpha = algebraic_connectivity(tailed_clique(r, k, l))
            a, b = switch_clique_attachment(TailedCliqueSpec(r, k, l))
            outs = (algebraic_connectivity(a), algebraic_connectivity(b))
            assert base_alpha > min(outs) + 1e-9, (r, k, l)

    def test_rejects_empty_tail(self):
        with pytest.raises(ValueError):
            switch_clique_attachment(TailedCliqueSpec(3, 0, 1))


class TestSignReport:
    def test_one_refusal_for_an_empty_tail(self):
        # The tail layout's own check refuses, for the report and for switching.
        for spec in (TailedCliqueSpec(3, 0, 1), TailedCliqueSpec(4, 2, 0)):
            for rewrite in (fiedler_sign_report, switch_clique_attachment):
                with pytest.raises(ValueError, match="^both tails must be nonempty$"):
                    rewrite(spec)

    def test_small_symmetric_instance(self):
        rep = fiedler_sign_report(TailedCliqueSpec(3, 2, 2))
        if not rep.skipped:
            assert rep.hub_spread <= 1e-7
            assert rep.end_product < -1e-9

    def test_lopsided_instance(self):
        rep = fiedler_sign_report(TailedCliqueSpec(4, 3, 1))
        assert not rep.skipped
        assert rep.hub_spread <= 1e-7
        assert rep.end_product < -1e-9
        assert rep.monotone_ok

    def test_degenerate_cases_are_reported_not_failed(self):
        for r in (3, 4, 5):
            for k in (1, 2, 3):
                rep = fiedler_sign_report(TailedCliqueSpec(r, k, k))
                if rep.skipped:
                    assert rep.multiplicity > 1
                else:
                    assert rep.end_product < -1e-9


class TestKiteComparisons:
    def test_theta_beats_paw(self):
        alpha_theta, alpha_kite = theta_vs_kite(3, 1)
        assert alpha_kite == pytest.approx(1, abs=1e-9)  # the paw
        assert alpha_theta > alpha_kite + 1e-9

    def test_theta_beats_kite_grid(self):
        for r in (3, 4):
            for k in (1, 2, 3, 4):
                alpha_theta, alpha_kite = theta_vs_kite(r, k)
                assert alpha_theta > alpha_kite

    def test_chain_small(self):
        rows = kite_minimality_chain(3, 7)
        assert [(k, l) for k, l, _ in rows] == [(2, 2), (3, 1)]
        alphas = [a for _, _, a in rows]
        assert alphas[0] > alphas[1] > algebraic_connectivity(kite(7, 3))

    def test_chain_four_eight(self):
        rows = kite_minimality_chain(4, 8)
        assert [(k, l) for k, l, _ in rows] == [(2, 2), (3, 1)]

    def test_single_entry_chain(self):
        rows = kite_minimality_chain(5, 7)
        assert [(k, l) for k, l, _ in rows] == [(1, 1)]

    def test_sweep_grid_shape(self):
        rows = tailed_clique_sweep(rs=(3,), max_total=4)
        assert [(k, l) for _, k, l, _ in rows] == [(1, 1), (2, 1), (2, 2), (3, 1)]
