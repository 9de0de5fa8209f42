"""Scan-module tests: tables, certificates, characterizations, trends."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from algconn.graph6 import parse_graph6
from algconn.graphs import (
    Graph,
    adjacency,
    canonical_code,
    canonical_codes,
    complement,
    complete_multipartite,
    connected_components,
    decode,
    encode,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    join,
    kite,
    path,
    tailed_clique,
    turan,
)
from algconn import cli
from algconn import scan as scan_mod
from algconn.scan import (
    build_graph_table,
    check_join_characterization,
    erdos_stone_trend,
    verify_max_theorem,
    verify_min_theorem,
    verify_supersaturation,
)
from algconn.spectra import (
    BOUND_TOL,
    EQUALITY_TOL,
    SETTLE_MARGIN,
    STRICT_TOL,
    algebraic_connectivity,
    laplacians,
)

class TestEnumeration:
    def test_order_three(self):
        table = build_graph_table(3)
        assert table.size == 8
        assert table.codes.tolist() == list(range(8))
        assert int(table.connected.sum()) == 4
        assert sum(1 for code in range(8) if is_connected(decode(3, code))) == 4

    def test_order_four_connected(self):
        assert int(build_graph_table(4).connected.sum()) == 38


class TestGraphTable:
    def test_matches_direct_computation(self):
        from algconn.cliques import max_clique

        table = build_graph_table(5)
        rng = np.random.default_rng(5)
        for code in rng.integers(0, table.size, 120):
            g = decode(5, int(code))
            assert table.omega[code] == max_clique(g).omega
            assert table.connected[code] == is_connected(g)
            assert table.alpha[code] == algebraic_connectivity(g)
            if not is_connected(g):
                assert table.alpha[code] == 0.0

    @pytest.mark.parametrize("n", range(6, 12))
    def test_batched_alpha_is_the_per_graph_alpha_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        codes = rng.integers(0, 1 << (n * (n - 1) // 2), 300, dtype=np.int64)
        table = scan_mod._table(n, codes, jobs=1)
        direct = np.array([algebraic_connectivity(decode(n, int(code))) for code in codes])
        assert table.alpha.tobytes() == direct.tobytes()

    def test_jobs_do_not_change_results(self):
        from algconn import scan

        # The two kernels run serially over every code, against the pooled table.
        codes = np.arange(64, dtype=np.int64)
        omega, connected = scan._clique_kernel(4, codes)
        alpha = scan._alpha_kernel(4, codes)
        table = build_graph_table(4)
        assert np.array_equal(omega, table.omega)
        assert np.array_equal(connected, table.connected)
        assert np.array_equal(alpha[connected], table.alpha[connected])
        assert not table.alpha[~connected].any()

    @pytest.mark.parametrize("keep", [None, lambda omega, connected: connected])
    def test_empty_code_array_gives_empty_columns(self, keep):
        table = scan_mod._table(5, np.zeros(0, np.int64), jobs=2, keep=keep)
        columns = (table.omega, table.alpha, table.connected, table.codes)
        assert [(len(c), c.dtype) for c in columns] == [
            (0, np.uint8), (0, np.float64), (0, np.bool_), (0, np.int64)]

    def test_unfiltered_table_holds_its_codes_and_weights_as_given(self):
        codes, weights = scan_mod._classes(5)
        table = scan_mod._table(5, codes, weights, jobs=1)
        assert table.codes is codes and table.weights is weights

    def test_labeled_table_is_cached_until_cleared(self):
        table = build_graph_table(4)
        assert build_graph_table(4) is table
        scan_mod.clear_table_cache()
        rebuilt = build_graph_table(4)
        assert rebuilt is not table
        assert rebuilt.alpha.tobytes() == table.alpha.tobytes()

    def test_labeled_table_is_cached_per_order_whatever_the_jobs(self):
        # jobs changes no row, so one order holds one table, not one per jobs value.
        scan_mod.clear_table_cache()
        table = build_graph_table(4)
        assert build_graph_table(4, jobs=1) is table
        assert build_graph_table(4, jobs=None) is table and build_graph_table(4, jobs=3) is table

    def test_chunked_parallel_merge_is_deterministic(self, monkeypatch):
        # Within a route, jobs and chunk size leave every array unchanged.
        from algconn import scan

        reference = build_graph_table(5)
        corpus = [(5, code) for code in range(reference.size)]
        routes = (
            lambda jobs: build_graph_table(5, jobs=jobs),
            lambda jobs: scan._corpus_table(iter(corpus), 5, jobs),
            lambda jobs: scan._scan_input(5, 7, jobs, None),
        )
        firsts = []
        for route in routes:
            built = []
            # One chunk, then chunks of 10 with a ragged last one (4 codes
            # of the 1,024 labeled codes or of the 34 classes).
            for chunk in (scan._CHUNK, 10):
                monkeypatch.setattr(scan, "_CHUNK", chunk)
                for jobs in (1, 4):
                    scan.clear_table_cache()
                    built.append(route(jobs))
            for rebuilt in built[1:]:
                assert np.array_equal(rebuilt.omega, built[0].omega)
                assert np.array_equal(rebuilt.alpha, built[0].alpha)
                assert np.array_equal(rebuilt.connected, built[0].connected)
            firsts.append(built[0])
        enumerated, from_corpus, classes = firsts
        assert classes.size == 34
        assert np.array_equal(enumerated.alpha, reference.alpha)
        assert np.array_equal(enumerated.omega, from_corpus.omega)
        assert np.array_equal(enumerated.connected, from_corpus.connected)
        assert np.array_equal(enumerated.alpha, from_corpus.alpha)

    @staticmethod
    def _assert_kept_rows(full, kept, keep):
        rows = np.flatnonzero(keep(full.omega, full.connected))
        assert kept.size == len(rows)
        assert kept.codes.tobytes() == full.codes[rows].tobytes()
        assert kept.omega.tobytes() == full.omega[rows].tobytes()
        assert kept.alpha.tobytes() == full.alpha[rows].tobytes()
        assert kept.connected.tobytes() == full.connected[rows].tobytes()
        if full.weights is None:
            assert kept.weights is None
        else:
            assert kept.weights.tobytes() == full.weights[rows].tobytes()

    @staticmethod
    def _keeps(n):
        # What verify_max_theorem and verify_min_theorem keep, for every r.
        for r in range(2, n + 1):
            yield lambda omega, connected, r=r: omega <= r
            yield lambda omega, connected, r=r: (omega == r) & connected

    @pytest.mark.parametrize("n", range(3, 12))
    def test_kept_table_is_the_full_tables_rows_on_random_corpora(self, n):
        rng = np.random.default_rng(100 + n)
        codes = rng.integers(0, 1 << (n * (n - 1) // 2), 400, dtype=np.int64)
        full = scan_mod._table(n, codes, jobs=2)
        for keep in self._keeps(n):
            self._assert_kept_rows(full, scan_mod._table(n, codes, jobs=2, keep=keep), keep)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_kept_class_table_is_the_full_tables_rows(self, n):
        full = scan_mod._table(n, *scan_mod._classes(n))
        for keep in self._keeps(n):
            self._assert_kept_rows(full, scan_mod._table(n, *scan_mod._classes(n), keep=keep),
                                   keep)

    @staticmethod
    def _eigensolved(monkeypatch, mode, n, r, corpus=None):
        """The Laplacians a scan eigensolves in batches, in order, and its table's keep."""
        solved = []
        real = np.linalg.eigvalsh

        def spy(m):
            if m.ndim == 3:  # the per-graph bound is one (n, n) matrix
                solved.append(m.copy())
            return real(m)

        if mode == "max":
            keep, verify = (lambda omega, connected: omega <= r), verify_max_theorem
        else:
            keep, verify = (lambda omega, connected: (omega == r) & connected), verify_min_theorem
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert verify(n, r, jobs=1, corpus=corpus).ok
        return np.concatenate(solved), keep

    @staticmethod
    def _unsettled(mode, n, r, codes):
        """The eligible connected codes a scan's screen sends to the eigensolve, found
        without the screen: minimum degree at least the Turan bound on the max side,
        alpha at most the kite's plus SETTLE_MARGIN on the min side."""
        if mode == "max":
            return codes[adjacency(n, codes).sum(axis=2).min(axis=1) >= n - -(n // -r)]
        settled = algebraic_connectivity(kite(n, r)) + SETTLE_MARGIN
        alpha = scan_mod._table(n, codes).alpha  # no screen: every row solved
        assert not np.any(np.abs(alpha - settled) < 1e-6)  # no row on the screen's edge
        return codes[alpha <= settled]

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_only_kept_connected_rows_are_eigensolved(self, monkeypatch, mode):
        # A labeled order-6 corpus: the batched eigensolves see exactly the
        # eligible connected codes the screen cannot settle, in order, and
        # nothing after them, since the achievers' alphas are read from the
        # table's own rows and the settled rows stay unsolved.
        n, r = 6, 3
        labeled = build_graph_table(n)
        solved, keep = self._eigensolved(monkeypatch, mode, n, r,
                                         corpus=[(n, code) for code in range(labeled.size)])
        table_codes = labeled.codes[keep(labeled.omega, labeled.connected) & labeled.connected]
        unsettled = self._unsettled(mode, n, r, table_codes)
        assert len(table_codes) < labeled.size
        assert 0 < len(unsettled) < len(table_codes) / 10
        assert solved.tobytes() == laplacians(adjacency(n, unsettled)).tobytes()

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_class_rows_then_achiever_labelings_are_eigensolved(self, monkeypatch, mode):
        # The class route: the eligible connected class rows the screen cannot
        # settle, in order, then every labeling of the achiever class, since
        # each row stands for many.
        n, r = 6, 3
        solved, keep = self._eigensolved(monkeypatch, mode, n, r)
        codes, _ = scan_mod._classes(n)
        omega, connected = scan_mod._clique_kernel(n, codes)
        class_codes = codes[keep(omega, connected) & connected]
        unsettled = self._unsettled(mode, n, r, class_codes)
        target = turan(n, r) if mode == "max" else kite(n, r)
        achievers = scan_mod._labelings(n, encode(target))
        assert len(class_codes) < len(codes)
        assert 0 < len(unsettled) < len(class_codes)
        expected = np.concatenate([unsettled, achievers])
        assert solved.tobytes() == laplacians(adjacency(n, expected)).tobytes()

    @staticmethod
    def _pool_sizes(monkeypatch):
        """The max_workers of every thread pool the scan module creates, chunks cut to 10 codes."""
        sizes = []
        real = scan_mod.ThreadPoolExecutor
        monkeypatch.setattr(scan_mod, "_CHUNK", 10)
        monkeypatch.setattr(scan_mod, "ThreadPoolExecutor",
                            lambda max_workers: sizes.append(max_workers) or real(max_workers))
        return sizes

    def test_jobs_sizes_every_pool_of_a_scan(self, monkeypatch):
        # The class table, split by small chunks, and a corpus scan's table
        # are each built on one pool; a class scan's achiever labelings are
        # eigensolved without one.
        sizes = self._pool_sizes(monkeypatch)
        corpus = [(5, code) for code in range(1 << 10)]
        for jobs in (1, 3):
            sizes.clear()
            assert verify_min_theorem(6, 3, jobs=jobs).ok
            assert sizes == [jobs]
            sizes.clear()
            assert verify_min_theorem(5, 3, jobs=jobs, corpus=corpus).ok
            assert sizes == [jobs]

    def test_screen_fallback_solves_on_the_tables_threads(self, monkeypatch):
        # No kite in the corpus and every kept row certified above it: no row
        # is solved, so the scan eigensolves all of them, in chunks of 10 on a
        # second pool of jobs threads, or on the calling thread at jobs=1.
        labeled = build_graph_table(6)
        floor = algebraic_connectivity(kite(6, 3)) + 2 * SETTLE_MARGIN
        rows = (labeled.omega == 3) & labeled.connected & (labeled.alpha > floor)
        corpus = [(6, labeled.codes[rows])]
        sizes = self._pool_sizes(monkeypatch)
        monkeypatch.setattr(scan_mod, "_SOLVE_CHUNK", 10)
        certificates = []
        for jobs in (1, 3):
            sizes.clear()
            certificates.append(verify_min_theorem(6, 3, jobs=jobs, corpus=corpus).to_json())
            assert sizes == [jobs] * (1 if jobs == 1 else 2)
        assert certificates[0] == certificates[1] and '"extremum-mismatch"' in certificates[0]

    def test_default_jobs_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        # Where the platform has no affinity call, the machine's CPU count.
        sizes = self._pool_sizes(monkeypatch)
        codes = np.arange(1 << 10, dtype=np.int64)
        monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(scan_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        scan_mod._table(5, codes)
        monkeypatch.delattr(scan_mod.os, "sched_getaffinity")
        scan_mod._table(5, codes)
        assert sizes == [3, 8]


def _kernel_codes(n: int) -> np.ndarray:
    """Seeded order-n codes with each code's edge density drawn from [0, 1], as a
    corpus's are, plus the zig-zag path 0, n-1, 1, n-2, ..., K_n, the empty graph,
    path(n) and the path 0, n-1, ..., 1.  An up-and-down sweep from vertex 0
    reaches two more vertices of the zig-zag path per round, so it takes
    n // 2 + 1 rounds, as many as any graph of order <= 7 takes; a sweep in
    vertex order reaches one more vertex of the last path per pass."""
    rng = np.random.default_rng(100 + n)
    bits = n * (n - 1) // 2
    density = rng.random((300, 1))
    edges = rng.random((300, bits)) < density
    codes = (edges << np.arange(bits, dtype=np.int64)).sum(axis=1, dtype=np.int64)
    zigzag = [v for pair in zip(range(n), range(n - 1, -1, -1)) for v in pair][:n]
    worst = [0, *range(n - 1, 0, -1)]
    special = [encode(Graph.from_edges(n, zip(zigzag, zigzag[1:]))),
               (1 << bits) - 1, 0, encode(path(n)),
               encode(Graph.from_edges(n, zip(worst, worst[1:])))]
    return np.concatenate([codes, np.array(special, np.int64)])


class TestCliqueKernel:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_max_clique_and_is_connected(self, n):
        from algconn.cliques import max_clique

        codes = _kernel_codes(n)
        omega, connected = scan_mod._clique_kernel(n, codes)
        assert omega.dtype == np.uint8 and connected.dtype == bool
        graphs = [decode(n, int(code)) for code in codes]
        assert omega.tolist() == [max_clique(g).omega for g in graphs]
        assert connected.tolist() == [is_connected(g) for g in graphs]
        assert omega[-4] == n and omega[-3] == 1
        assert connected[-5]
        assert connected[-4] and connected[-2] and connected[-1]
        assert connected[-3] == (n == 1)

    @pytest.mark.parametrize("a", range(5))
    def test_lookup_table_is_the_brute_force_clique_number(self, a):
        table = scan_mod._clique_table(a)
        assert table.shape == (1 << a * (a - 1) // 2, 1 << a) and table.dtype == np.uint8
        assert scan_mod._clique_table(a) is table and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        for code in range(len(table)):
            g = decode(a, code) if a else None
            for mask in range(1 << a):
                verts = [v for v in range(a) if mask >> v & 1]
                best = max(size for size in range(len(verts) + 1)
                           for subset in combinations(verts, size)
                           if all(g.has_edge(u, v) for u, v in combinations(subset, 2)))
                assert table[code, mask] == best

    def test_ragged_chunks_leave_both_arrays_unchanged(self, monkeypatch):
        codes = _kernel_codes(9)
        whole = scan_mod._table(9, codes, jobs=1)
        monkeypatch.setattr(scan_mod, "_CHUNK", 7)  # 305 codes: 44 chunks, the last of 4
        for jobs in (1, 3):
            ragged = scan_mod._table(9, codes, jobs=jobs)
            assert ragged.omega.tobytes() == whole.omega.tobytes()
            assert ragged.connected.tobytes() == whole.connected.tobytes()


class TestScreens:
    """The eigensolve screens settle rows without changing any certificate."""

    @staticmethod
    def _unscreened(monkeypatch):
        """Make every table eigensolve all its kept connected rows, as with no screen."""
        real = scan_mod._alpha_kernel
        monkeypatch.setattr(scan_mod, "_alpha_kernel", lambda n, codes, screen=None: real(n, codes))

    @staticmethod
    def _cases(n):
        return [(verify_max_theorem, r) for r in range(2, n)] + [
            (verify_min_theorem, r) for r in range(2, n + 1)]

    @pytest.mark.parametrize("n", range(4, 10))
    def test_random_corpora_certificates_match_the_unscreened_ones(self, monkeypatch, n):
        # Random codes alone, where the fallback runs, and with every Turan
        # graph and kite of the order planted, where the screens settle rows.
        codes = _kernel_codes(n)[:-5]
        planted = [encode(turan(n, r)) for r in range(2, n)] + [
            encode(kite(n, r)) for r in range(2, n + 1)]
        corpora = [codes, np.concatenate([codes, planted])]
        fallbacks = []
        real = scan_mod._alphas
        monkeypatch.setattr(scan_mod, "_alphas", lambda n, codes, jobs=1:
                            fallbacks.append(len(codes)) or real(n, codes, jobs))
        screened = [verify(n, r, corpus=[(n, corpus)]).to_json()
                    for corpus in corpora for verify, r in self._cases(n)]
        # Orders 4 and 5 hold nearly every code, so no scan falls back there.
        assert (fallbacks or n < 6) and len(fallbacks) < len(screened)
        self._unscreened(monkeypatch)
        assert screened == [verify(n, r, corpus=[(n, corpus)]).to_json()
                            for corpus in corpora for verify, r in self._cases(n)]

    # At -0.05 the min side's settled value is itself beyond the bound, so
    # the scan must eigensolve the rows the screen settled.
    @pytest.mark.parametrize("tol", [BOUND_TOL, 1e-15, -1e-3, -0.05])
    def test_class_route_certificates_match_the_unscreened_ones(self, monkeypatch, tol):
        cases = [(n, verify, r) for n in range(3, 8) for verify, r in self._cases(n)]
        screened = [verify(n, r, tol=tol).to_json() for n, verify, r in cases]
        self._unscreened(monkeypatch)
        assert screened == [verify(n, r, tol=tol).to_json() for n, verify, r in cases]

    def test_all_screened_corpus_falls_back_without_a_warning(self, monkeypatch, capsys,
                                                              tmp_path):
        # CF is the star K_{1,3}: minimum degree 1, below the order-4 bipartite
        # bound of 2, so the one row is screened and no solved row is left.
        corpus = tmp_path / "star.g6"
        corpus.write_text("CF\n")
        argv = ["--format", "json", "scan", "max", "4", "2", "--corpus", str(corpus)]
        assert cli.main(argv) == 1
        screened = capsys.readouterr().out
        assert json.loads(screened)["achieved"] == pytest.approx(1.0)
        self._unscreened(monkeypatch)
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == screened

    def test_exceeds_certifies_exactly_the_rows_above_the_floor(self):
        codes = np.arange(1 << 15, dtype=np.int64)
        connected = scan_mod._clique_kernel(6, codes)[1]
        alpha = np.linalg.eigvalsh(laplacians(adjacency(6, codes[connected])))[:, 1]
        # At an integer floor some rows have alpha equal to it, and
        # L + J - floor*I is singular: those must not be certified.
        for floor in (0.5, 1.0, 1.001, 2.0, 2.5, 4.0, 5.999, 6.0, 6.5):
            certified = scan_mod._exceeds(6, codes[connected], floor)
            on = np.abs(alpha - floor) <= 1e-9
            assert on.any() == (floor % 1 == 0) and not certified[on].any()
            assert np.array_equal(certified[~on], alpha[~on] > floor)


class TestWorkingSet:
    """Traced allocation bounds on a corpus table, so a chunk-size or dtype change
    cannot quietly raise the memory of a corpus command.  Measured with two
    threads over the 100,000 codes below: about 1.5 MB for one kernel chunk,
    3.3 MB for the max side's table and 5.6 MB for the min side's; 65,536-code
    chunks would take 6.0, 9.4 and 11.7 MB."""

    @staticmethod
    def _codes(m=100_000, n=8):
        # Each code's edge density drawn from [0, 1], as a corpus's are.
        rng = np.random.default_rng(8)
        density = rng.random(m)
        codes = np.zeros(m, np.int64)
        for b in range(n * (n - 1) // 2):
            codes |= (rng.random(m) < density).astype(np.int64) << b
        return codes

    @staticmethod
    def _peak_mb(run) -> float:
        import tracemalloc

        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_one_kernel_chunk(self):
        codes = self._codes()[:scan_mod._CHUNK]
        assert self._peak_mb(lambda: scan_mod._clique_kernel(8, codes)) < 2.5

    def test_a_corpus_table_on_two_threads(self, monkeypatch):
        codes = self._codes()
        chunks = []
        real = scan_mod._clique_kernel
        monkeypatch.setattr(scan_mod, "_clique_kernel",
                            lambda n, chunk: chunks.append(len(chunk)) or real(n, chunk))
        settled = algebraic_connectivity(kite(8, 3)) + SETTLE_MARGIN
        sides = [  # the keep and screen of verify_max_theorem and verify_min_theorem at (8, 3)
            (lambda omega, connected: omega <= 3,
             lambda chunk: scan_mod._min_degree(8, chunk) >= 5, 5.0),
            (lambda omega, connected: (omega == 3) & connected,
             lambda chunk: ~scan_mod._exceeds(8, chunk, settled), 8.0),
        ]
        for keep, screen, bound in sides:
            chunks.clear()
            peak = self._peak_mb(lambda: scan_mod._table(8, codes, jobs=2, keep=keep,
                                                         screen=screen))
            assert len(chunks) == 7 and sum(chunks) == len(codes)
            assert peak < bound


class TestClassTable:
    def test_class_counts_and_weights(self):
        # Classes: OEIS A000088.  Connected labeled graphs: OEIS A001187.
        classes = (1, 2, 4, 11, 34, 156, 1044)
        connected = (1, 1, 4, 38, 728, 26_704, 1_866_256)
        for n, count, linked in zip(range(1, 8), classes, connected):
            codes, weights = scan_mod._classes(n)
            assert len(codes) == len(weights) == count, n
            assert weights.sum() == 1 << (n * (n - 1) // 2), n
            assert sum(w for code, w in zip(codes.tolist(), weights.tolist())
                       if is_connected(decode(n, code))) == linked

    def test_classes_are_read_only(self):
        # functools.cache hands the same arrays to every caller.
        for array in scan_mod._classes(5):
            assert array.dtype == np.int64
            with pytest.raises(ValueError):
                array[0] = 1
        assert scan_mod._classes(5)[0][0] == 0

    def test_weighted_histogram_matches_labeled_table(self):
        for n in range(2, 7):
            classes = scan_mod._table(n, *scan_mod._classes(n))
            labeled = build_graph_table(n)
            for omega in range(1, n + 1):
                for linked in (False, True):
                    rows = (classes.omega == omega) & (classes.connected == linked)
                    cells = (labeled.omega == omega) & (labeled.connected == linked)
                    assert classes.weights[rows].sum() == cells.sum(), (n, omega, linked)

    def test_labelings_partition_the_codes(self):
        # Each class expands to exactly its weight in codes, and the classes
        # of an order share none and miss none.
        for n in range(1, 8):
            classes, weights = scan_mod._classes(n)
            parts = [scan_mod._labelings(n, int(code)) for code in classes]
            assert [len(p) for p in parts] == weights.tolist(), n
            assert all(canonical_code(decode(n, int(p[-1]))) == code
                       for p, code in zip(parts, classes.tolist()))
            codes = np.sort(np.concatenate(parts))
            assert np.array_equal(codes, np.arange(1 << (n * (n - 1) // 2))), n

    @pytest.mark.parametrize("n, codes, weights", [
        (6, "be48e59e2e1cab13588217815167b414b1ebbc7c939c5d9b837fc8454f6ce7fa",
         "c915f66f3d39875da377133d0a5e19b625a63f4e3a85897cc924d04a2d935baa"),
        (7, "537ad7442f7ff6303372d1b4354c8d33c44a1c3767a2c0f73f9db3f8ecf2dec2",
         "516b112fd69db3767a4e4a3086b0771d3adf4669674a0916ae8165369528a07a"),
    ])
    def test_canonical_form_is_pinned(self, n, codes, weights):
        # sha256 of the class codes and weights as little-endian int64, in
        # ascending code order: any change to the canonical form changes them.
        digest = lambda values: hashlib.sha256(values.astype("<i8").tobytes()).hexdigest()
        classes, counts = scan_mod._classes(n)
        assert digest(classes) == codes
        assert digest(counts) == weights

    def test_batch_size_does_not_change_keys(self, monkeypatch):
        import algconn.graphs as graphs_mod

        rng = np.random.default_rng(8)
        for n in (6, 7, 8):
            codes = rng.integers(0, 1 << (n * (n - 1) // 2), 300)
            monkeypatch.setattr(graphs_mod, "_CANONICAL_BATCH", 512)
            keys = canonical_codes(n, codes)
            monkeypatch.setattr(graphs_mod, "_CANONICAL_BATCH", 1)
            assert np.array_equal(canonical_codes(n, codes), keys), n
            assert keys.tolist() == [canonical_code(decode(n, int(c))) for c in codes], n

    def test_order_eight_classes(self):
        # A000088 (12,346 classes), every labeling once, A001187 connected.
        table = scan_mod._table(8, *scan_mod._classes(8))
        assert table.size == 12_346
        assert table.weights.sum() == 1 << 28
        assert int(table.weights[table.connected].sum()) == 251_548_592

    def test_networkx_atlas_oracle(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, list[tuple[int, int]]] = {}  # order -> (max degree, code)
        for h in nx.graph_atlas_g()[1:]:
            n = h.number_of_nodes()
            top = max(d for _, d in h.degree())
            atlas.setdefault(n, []).append(
                (top, canonical_code(Graph.from_edges(n, h.edges()))))
        assert sorted(atlas) == list(range(1, 8))
        for n, graphs in atlas.items():
            assert sorted(code for _, code in graphs) == scan_mod._classes(n)[0].tolist(), n
            for dcap in range(n):
                capped = sorted(code for top, code in graphs if top <= dcap)
                assert capped == scan_mod._classes(n, dcap)[0].tolist(), (n, dcap)


class TestMaxTheorem:
    def test_divisible_case_unique_turan(self):
        cert = verify_max_theorem(6, 3)
        assert cert.ok
        assert cert.achieved == pytest.approx(4, abs=1e-6)
        assert len(cert.achievers) == 1
        assert is_isomorphic(parse_graph6(cert.achievers[0]), turan(6, 3))

    def test_remark_case_two_classes(self):
        cert = verify_max_theorem(7, 3)
        assert cert.ok
        achievers = [parse_graph6(s) for s in cert.achievers]
        assert len(achievers) == 2
        assert any(is_isomorphic(g, turan(7, 3)) for g in achievers)
        assert any(is_isomorphic(g, complete_multipartite(3, 3, 1)) for g in achievers)

    def test_join_case_five_four(self):
        # 5 = 1*4 + 1 with 0 < t < r-1: the join characterization governs, and
        # T_{5,3} ties T_{5,4} at alpha = 3; both must pass it.
        cert = verify_max_theorem(5, 4)
        assert cert.ok
        achievers = [parse_graph6(s) for s in cert.achievers]
        assert len(achievers) == 2
        assert any(is_isomorphic(g, turan(5, 4)) for g in achievers)
        assert any(is_isomorphic(g, turan(5, 3)) for g in achievers)

    def test_tolerance_reaches_join_characterization(self, monkeypatch):
        # 5 mod 4 = 1 lies strictly between 0 and r - 1 = 3: a join case, so
        # every achiever is checked by the characterization with the caller's tol.
        seen = []
        real = scan_mod.check_join_characterization

        def spy(g, r, tol=BOUND_TOL):
            seen.append(tol)
            return real(g, r, tol)

        monkeypatch.setattr(scan_mod, "check_join_characterization", spy)
        assert verify_max_theorem(5, 4, tol=1e-3).ok
        assert seen and set(seen) == {1e-3}

    def test_join_case_with_two_empty_factors(self):
        # 6 = 1*4 + 2: achievers must shed two empty order-2 factors; both
        # T_{6,4} and T_{6,3} reach alpha = 4 and decompose accordingly.
        cert = verify_max_theorem(6, 4)
        assert cert.ok
        achievers = [parse_graph6(s) for s in cert.achievers]
        assert len(achievers) == 2
        assert any(is_isomorphic(g, turan(6, 4)) for g in achievers)
        assert any(is_isomorphic(g, turan(6, 3)) for g in achievers)
        for g in achievers:
            assert check_join_characterization(g, 4)

    def test_residue_r_minus_one_unique(self):
        cert = verify_max_theorem(7, 4)  # 7 = 1*4 + 3 = kr + r - 1
        assert cert.ok
        assert len(cert.achievers) == 1
        assert is_isomorphic(parse_graph6(cert.achievers[0]), turan(7, 4))

    def test_bound_value(self):
        cert = verify_max_theorem(7, 3)
        assert cert.bound == 7 - 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_max_theorem(5, 5)
        with pytest.raises(ValueError):
            verify_max_theorem(8, 3)  # beyond guard without corpus
        with pytest.raises(ValueError, match="3,160,576 grown graphs"):
            verify_max_theorem(9, 3, guard=9)  # beyond the class route
        with pytest.raises(ValueError, match="use corpus mode beyond order 7"):
            build_graph_table(8)

    def test_order_eight_unique_turan(self):
        cert = verify_max_theorem(8, 3, guard=8)
        assert cert.ok and cert.source == "enumeration"
        assert cert.achieved == pytest.approx(5, abs=EQUALITY_TOL)
        assert len(cert.achievers) == 1
        assert is_isomorphic(parse_graph6(cert.achievers[0]), turan(8, 3))

    def test_certificate_json_round_trip(self):
        cert = verify_max_theorem(5, 3)
        data = json.loads(cert.to_json())
        assert data["mode"] == "max"
        assert data["counterexamples"] == []
        assert data["achievers"] == cert.achievers

    def test_determinism(self):
        a = verify_max_theorem(5, 3).to_json()
        b = verify_max_theorem(5, 3).to_json()
        assert a == b

    def test_corpus_mode_matches_enumeration(self):
        # Every labeled graph of order n <= 6 fed as a corpus must reproduce
        # the enumeration certificate exactly, on both sides and for every r.
        for n in range(2, 7):
            corpus = [(n, code) for code in range(1 << (n * (n - 1) // 2))]
            cases = [(verify_max_theorem, r) for r in range(2, n)]
            cases += [(verify_min_theorem, r) for r in range(2, n + 1)]
            for verify, r in cases:
                from_corpus = verify(n, r, corpus=iter(corpus))
                direct = verify(n, r)
                assert (from_corpus.source, direct.source) == ("corpus", "enumeration")
                from_corpus.source = direct.source
                assert from_corpus.to_json() == direct.to_json(), (verify.__name__, n, r)

    def test_class_route_matches_labeled_corpus_across_tolerances(self):
        # The variant of the test above at a looser and a tighter tolerance
        # (it covers BOUND_TOL): bound verdicts and the join
        # characterization read tol, and both routes must still agree.
        for n in range(2, 7):
            corpus = [(n, code) for code in range(1 << (n * (n - 1) // 2))]
            cases = [(verify_max_theorem, r) for r in range(2, n)]
            cases += [(verify_min_theorem, r) for r in range(2, n + 1)]
            for tol in (1e-6, 1e-12):
                for verify, r in cases:
                    from_corpus = verify(n, r, tol=tol, corpus=iter(corpus))
                    from_corpus.source = "enumeration"
                    assert from_corpus.to_json() == verify(n, r, tol=tol).to_json(), (
                        verify.__name__, n, r, tol)

    def test_corpus_input_errors(self):
        for verify in (verify_max_theorem, verify_min_theorem):
            with pytest.raises(ValueError, match="^corpus contained no eligible graphs$"):
                verify(4, 2, corpus=[])
        with pytest.raises(ValueError, match="order 5, expected 4"):
            verify_max_theorem(4, 2, corpus=[path(4), turan(5, 2)])
        with pytest.raises(ValueError, match="order 5, expected 4"):
            verify_max_theorem(4, 2, corpus=[(4, 0), (5, 0)])

    def test_out_of_range_codes_are_refused(self):
        good = (5, encode(turan(5, 2)))
        for bad in (encode(path(5)) - 2**40, -1, 1 << 10):
            message = f"^corpus item 1: code {bad} out of range for order 5$"
            for verify in (verify_max_theorem, verify_min_theorem):
                with pytest.raises(ValueError, match=message):
                    verify(5, 2, corpus=[good, (5, bad)])
        with pytest.raises(ValueError, match="^corpus item 0: code -1 out"):
            verify_max_theorem(5, 2, corpus=[(5, -1)])
        assert verify_max_theorem(5, 2, corpus=[good, (5, (1 << 10) - 1)]).ok

    def test_code_pairs_and_graphs_give_identical_certificates(self):
        graphs = [decode(5, code) for code in range(1 << 10)]
        pairs = [(5, code) for code in range(1 << 10)]
        for verify, r in ((verify_max_theorem, 3), (verify_min_theorem, 3)):
            assert (verify(5, r, corpus=iter(pairs)).to_json()
                    == verify(5, r, corpus=iter(graphs)).to_json())

    @pytest.mark.parametrize("verify, n, r, message", [
        (verify_max_theorem, 4, 4, "need 2 <= r < n"),
        (verify_min_theorem, 4, 5, "need 2 <= r <= n"),
        (verify_max_theorem, 12, 3, "corpus order 12 beyond 11"),
        (verify_min_theorem, 12, 3, "corpus order 12 beyond 11"),
    ])
    def test_argument_errors_come_before_any_corpus_item_is_read(self, verify, n, r, message):
        def unread():
            raise AssertionError("corpus read")
            yield

        with pytest.raises(ValueError, match=message):
            verify(n, r, corpus=unread())


class TestMinTheorem:
    def test_kite_unique(self):
        cert = verify_min_theorem(5, 3)
        assert cert.ok
        assert len(cert.achievers) == 1
        assert is_isomorphic(parse_graph6(cert.achievers[0]), kite(5, 3))

    def test_order_eight_kite(self):
        cert = verify_min_theorem(8, 3, guard=8)
        assert cert.ok and cert.source == "enumeration"
        assert abs(cert.achieved - 0.1667170082) <= EQUALITY_TOL
        assert len(cert.achievers) == 1
        assert is_isomorphic(parse_graph6(cert.achievers[0]), kite(8, 3))

    def test_path_case(self):
        cert = verify_min_theorem(6, 2)
        assert cert.ok
        assert is_isomorphic(parse_graph6(cert.achievers[0]), path(6))
        assert cert.bound == pytest.approx(2 * (1 - np.cos(np.pi / 6)), abs=1e-9)

    def test_complete_case_trivial(self):
        cert = verify_min_theorem(4, 4)
        assert cert.ok
        assert cert.graphs_scanned == 1
        assert cert.achieved == pytest.approx(4, abs=1e-9)

    def test_corpus_mode(self):
        corpus = [(4, code) for code in range(64)]
        cert = verify_min_theorem(4, 3, corpus=corpus)
        assert cert.ok
        assert is_isomorphic(parse_graph6(cert.achievers[0]), kite(4, 3))

    def test_counterexamples_expand_at_most_twenty_labelings_per_class(self, monkeypatch):
        from algconn.graph6 import write_graph6

        # Every eligible order-6 class is beyond the bound: the certificate
        # lists the labeled oracle's first 20, without expanding whole classes.
        n, r = 6, 3
        table = scan_mod._table(n, *scan_mod._classes(n),
                                keep=lambda omega, connected: (omega == r) & connected)
        expanded = []
        real = scan_mod.GraphTable.labeled

        def spy(self, rows, first=None):
            codes = real(self, rows, first)
            most = np.unique(canonical_codes(n, codes), return_counts=True)[1].max()
            expanded.append((len(rows), most))
            return codes

        monkeypatch.setattr(scan_mod.GraphTable, "labeled", spy)
        target = kite(n, r)
        bound = scan_mod.algebraic_connectivity(target)
        cert = scan_mod._extremal_scan(
            table, r, "min", bound=bound, beyond=lambda alpha: np.ones(np.shape(alpha), bool),
            settled=bound + SETTLE_MARGIN, target=target,
            achieves=lambda g: is_isomorphic(g, target),
        )
        labeled = build_graph_table(n)
        oracle = np.nonzero((labeled.omega == r) & labeled.connected)[0][:20]
        assert [c["graph6"] for c in cert.counterexamples] == [
            write_graph6(decode(n, int(code))) for code in oracle]
        # The listing call covers every eligible row and takes at most 20
        # labelings from each, far fewer than those rows' labelings in all.
        assert [most for count, most in expanded if count == table.size] == [20]
        assert 20 * table.size < int(table.weights.sum())


class TestSeededDefects:
    """Scans of wrong claims: each must fail, so an ok verdict means something."""

    def test_wrong_kite_undershoots_the_bound(self, monkeypatch):
        # alpha(tailed_clique(3, 1, 1)) = 0.697, above the order-5 kite's 0.519.
        monkeypatch.setattr(scan_mod, "kite", lambda n, r: tailed_clique(3, 1, 1))
        everything = [(5, code) for code in range(1 << 10)]
        for cert in (verify_min_theorem(5, 3), verify_min_theorem(5, 3, corpus=everything)):
            assert not cert.ok
            assert cert.bound == pytest.approx(0.697, abs=1e-3)
            assert "bound-undershot" in {c["reason"] for c in cert.counterexamples}
        assert cli.main(["scan", "min", "5", "3"]) == 1

    def test_wrong_turan_target_fails_the_characterization(self, monkeypatch, tmp_path):
        from algconn.graph6 import write_graph6

        monkeypatch.setattr(scan_mod, "turan", lambda n, r: complete_multipartite(3, 2, 1))
        everything = [(6, code) for code in range(1 << 15)]
        for cert in (verify_max_theorem(6, 3), verify_max_theorem(6, 3, corpus=everything)):
            assert not cert.ok and not cert.characterization_ok
            assert "characterization-failed" in {c["reason"] for c in cert.counterexamples}
        assert cli.main(["scan", "max", "6", "3"]) == 1
        # The CLI's corpus route: a graph6 file, decoded a block at a time.
        corpus = tmp_path / "order6.g6"
        corpus.write_text("".join(write_graph6(decode(6, code)) + "\n" for _, code in everything))
        assert cli.main(["scan", "max", "6", "3", "--corpus", str(corpus)]) == 1

    @pytest.mark.parametrize("mode, reason", [("max", "bound-exceeded"), ("min", "bound-undershot")])
    def test_bound_shifted_against_the_scan(self, monkeypatch, mode, reason):
        # A negative tolerance moves the bound 1e-3 towards the extremum, so
        # the graphs that attain it now break it.
        verify = getattr(scan_mod, f"verify_{mode}_theorem")
        everything = [(6, code) for code in range(1 << 15)]
        for cert in (verify(6, 3, tol=-1e-3), verify(6, 3, tol=-1e-3, corpus=everything)):
            assert not cert.ok
            assert reason in {c["reason"] for c in cert.counterexamples}
        monkeypatch.setattr(scan_mod, f"verify_{mode}_theorem",
                            lambda *args, **kw: verify(*args, **{**kw, "tol": -1e-3}))
        assert cli.main(["scan", mode, "6", "3"]) == 1

    def test_min_screen_that_hides_the_kite_falls_back(self, monkeypatch, capsys):
        # The screen certifies alpha > bound - 1e-3 while the scan trusts
        # bound + 1e-3, so the kite goes unsolved.  No other class lies within
        # 1e-3 of the kite (the next is 0.043 above it at n = 7, 0.088 at n =
        # 6), so no row is left solved and every row is eigensolved: the
        # certificates are the golden ones.
        from pathlib import Path

        real_exceeds, real_alphas, fallbacks = scan_mod._exceeds, scan_mod._alphas, []
        monkeypatch.setattr(scan_mod, "_exceeds", lambda n, codes, floor:
                            real_exceeds(n, codes, floor - 2 * SETTLE_MARGIN))
        monkeypatch.setattr(scan_mod, "_alphas", lambda n, codes, jobs=1:
                            fallbacks.append(len(codes)) or real_alphas(n, codes, jobs))
        golden = Path(__file__).parent / "golden"
        assert cli.main(["--format", "json", "scan", "min", "7", "3"]) == 0
        assert capsys.readouterr().out.encode() == (golden / "min_7_3.json").read_bytes()
        eligible = scan_mod._table(7, *scan_mod._classes(7),
                                   keep=lambda omega, connected: (omega == 3) & connected)
        assert fallbacks[0] == eligible.size
        cert = verify_min_theorem(6, 3, corpus=[(6, np.arange(1 << 15, dtype=np.int64))])
        cert.source = "enumeration"
        assert (cert.to_json() + "\n").encode() == (golden / "min_6_3.json").read_bytes()

    def test_off_by_one_max_screen_falls_back_to_the_full_solve(self, monkeypatch, capsys):
        # Solving only minimum degree >= bound + 1 leaves T_{7,3} unsolved; no
        # K_4-free graph has a larger minimum degree, so every row is screened
        # and the scan eigensolves them all.
        from pathlib import Path

        real_degree, real_alphas, fallbacks = scan_mod._min_degree, scan_mod._alphas, []
        monkeypatch.setattr(scan_mod, "_min_degree", lambda n, codes: real_degree(n, codes) - 1)
        monkeypatch.setattr(scan_mod, "_alphas", lambda n, codes, jobs=1:
                            fallbacks.append(len(codes)) or real_alphas(n, codes, jobs))
        assert cli.main(["--format", "json", "scan", "max", "7", "3"]) == 0
        golden = Path(__file__).parent / "golden" / "max_7_3.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()
        eligible = scan_mod._table(7, *scan_mod._classes(7), keep=lambda omega, connected: omega <= 3)
        assert fallbacks[0] == int(eligible.connected.sum())

    def test_supersaturation_demanding_larger_parts(self):
        # K_{3,3} in place of K_{2,2}: n = kr = 6, so each violation comes
        # from the containment test, not from the n < kr shortcut.
        assert verify_supersaturation(6, 2, 2, 0.1).ok
        report = verify_supersaturation(6, 2, 3, 0.1)
        assert (report.qualifying, len(report.violations)) == (76, 15)
        assert not report.ok
        assert cli.main(["scan", "supersat", "6", "2", "3", "0.1"]) == 1


def _join_form_brute(g, n, r, tol=BOUND_TOL):
    """The theorem's join form read literally, without complement components.

    Search t disjoint independent (k+1)-sets, each joined to every vertex
    outside it, whose removal leaves a K_{r+1-t}-free rest H with
    alpha(H) >= n - (k+1)(t+1); alpha(H) comes from numpy directly.
    """
    k, t = divmod(n, r)
    sets = [
        set(s) for s in combinations(range(n), k + 1)
        if not any(g.has_edge(u, v) for u, v in combinations(s, 2))
        and all(g.has_edge(u, v) for u in s for v in range(n) if v not in s)
    ]
    for chosen in combinations(sets, t):
        taken = set().union(*chosen)
        if len(taken) != t * (k + 1):
            continue
        rest = [v for v in range(n) if v not in taken]
        if any(
            all(g.has_edge(u, v) for u, v in combinations(c, 2))
            for c in combinations(rest, r + 1 - t)
        ):
            continue
        lap = np.zeros((len(rest), len(rest)))
        for i, u in enumerate(rest):
            for j, v in enumerate(rest):
                if i != j and g.has_edge(u, v):
                    lap[i, j] = -1.0
                    lap[i, i] += 1.0
        if np.linalg.eigvalsh(lap)[1] >= n - (k + 1) * (t + 1) - tol:
            return True
    return False


class TestJoinCharacterization:
    def test_unbalanced_tripartite(self):
        assert check_join_characterization(complete_multipartite(3, 3, 1), 3)

    def test_turan_seven_three(self):
        assert check_join_characterization(turan(7, 3), 3)

    def test_failing_graph(self):
        # C_7 has alpha < 4 and no independent order-3 set joined to the rest
        from algconn.graphs import cycle

        assert not check_join_characterization(cycle(7), 3)

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            check_join_characterization(turan(6, 3), 3)

    def test_order_below_r_rejected(self):
        # 3 = 0*5 + 3 has 0 < t < r-1 but no room for t parts of order k+1 = 1.
        with pytest.raises(ValueError, match="2 <= r < n"):
            check_join_characterization(path(3), 5)

    def test_matches_brute_force(self):
        # Every K_{r+1}-free graph at (4,3) and (5,4), and those within 1 of
        # the Turan bound at (6,4) and (6,5), against the literal reading.
        # Many alphas sit exactly on that integer cut, hence the STRICT_TOL slack.
        checked = 0
        for n, r, margin in ((4, 3, None), (5, 4, None), (6, 4, 1.0), (6, 5, 1.0)):
            table = build_graph_table(n)
            rows = table.omega <= r
            if margin is not None:
                rows &= table.alpha >= n - -(n // -r) - margin - STRICT_TOL
            for row in np.nonzero(rows)[0]:
                g = decode(n, int(table.codes[row]))
                expected = _join_form_brute(g, n, r)
                assert check_join_characterization(g, r) == expected, (n, r, row)
                checked += 1
        assert checked == 2121

    def test_join_factorization_identity_sampled(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            g = decode(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            comp = complement(g)
            comps = connected_components(comp)
            factors = [complement(induced_subgraph(comp, c)) for c in comps]
            rebuilt = factors[0]
            for f in factors[1:]:
                rebuilt = join(rebuilt, f)
            assert is_isomorphic(rebuilt, g)


class TestTrend:
    def test_exact_at_multiples(self):
        rows = dict(erdos_stone_trend(3, 300))
        assert rows[300] == Fraction(2, 3)
        assert rows[297] == Fraction(2, 3)

    def test_near_miss_value(self):
        rows = dict(erdos_stone_trend(3, 301))
        assert rows[301] == Fraction(301 - 101, 301)

    def test_bipartite_limit(self):
        rows = erdos_stone_trend(2, 100)
        for n, ratio in rows:
            assert abs(ratio - Fraction(1, 2)) < Fraction(1, n)
            if n % 2 == 0:
                assert ratio == Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            erdos_stone_trend(1, 10)


class TestSupersaturation:
    def test_seven_three_one(self):
        rep = verify_supersaturation(7, 3, 1, 0.05)
        assert rep.ok
        assert rep.qualifying > 0 and not rep.vacuous
        assert rep.parts == [1, 1, 1]

    def test_six_two_two(self):
        rep = verify_supersaturation(6, 2, 2, 0.1)
        assert rep.ok
        assert rep.qualifying > 0

    def test_vacuous_threshold(self):
        rep = verify_supersaturation(6, 2, 2, 10.0)
        assert rep.vacuous and rep.ok
        assert rep.qualifying == 0

    def test_prune_matches_the_labeled_table(self):
        from algconn.cliques import contains_complete_multipartite
        from algconn.graph6 import write_graph6

        for n in range(2, 7):
            alpha = build_graph_table(n).alpha
            for r, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)):
                for epsilon in (0.01, 0.05, 0.1, 0.3, 1.0):
                    rep = verify_supersaturation(n, r, k, epsilon)
                    rows = np.nonzero(alpha >= rep.threshold - STRICT_TOL)[0]
                    hit = [decode(n, int(row)) for row in rows]
                    assert rep.qualifying == len(hit)
                    # Violations in code order, as the labeled table lists them.
                    assert rep.violations == [
                        write_graph6(g) for g in hit
                        if n < k * r or not contains_complete_multipartite(g, [k] * r)
                    ]
                    assert rep.source.startswith("pruned-enumeration")

    def test_order_seven_is_pruned(self):
        rep = verify_supersaturation(7, 3, 1, 0.05)
        assert rep.qualifying == rep.candidates_examined == 232
        assert rep.graphs_scanned == 1 << 21
        assert rep.source == "pruned-enumeration (complement max degree <= 1)"

    def test_order_one_is_refused(self):
        with pytest.raises(ValueError, match="table needs order >= 2"):
            verify_supersaturation(1, 2, 1, 0.1)

    def test_pruned_route_order_eight(self):
        rep = verify_supersaturation(8, 2, 2, 0.05, guard=8)
        assert rep.ok
        assert rep.qualifying == 42_428
        assert "pruned" in rep.source
        assert rep.graphs_scanned == 1 << 28
        assert rep.candidates_examined == 152_219

    def test_capped_classes_match_a_labeled_count(self):
        from algconn.graphs import pair_index

        # Under every degree cap, the classes and their weights are the
        # canonical codes of the capped labeled graphs and how often each occurs.
        for n in range(1, 7):
            codes = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
            deg = np.zeros((n, len(codes)), dtype=np.int64)
            for j in range(1, n):
                for i in range(j):
                    bit = (codes >> pair_index(i, j)) & 1
                    deg[i] += bit
                    deg[j] += bit
            keys = canonical_codes(n, codes)
            for dcap in range(n):
                within = deg.max(axis=0) <= dcap
                found, counts = np.unique(keys[within], return_counts=True)
                classes, weights = scan_mod._classes(n, dcap)
                assert np.array_equal(classes, found), (n, dcap)
                assert np.array_equal(weights, counts), (n, dcap)

    def test_pruned_route_empty_complement(self):
        # dcap 0: only the empty complement, i.e. the complete graph, is a candidate.
        rep = verify_supersaturation(8, 2, 2, 0.3, guard=8)
        assert rep.ok
        assert rep.qualifying == rep.candidates_examined == 1
        assert rep.source.endswith("complement max degree <= 0)")

    def test_pruned_route_order_nine_is_deterministic(self):
        reports = [verify_supersaturation(9, 2, 2, 0.3, guard=9) for _ in range(2)]
        # Every candidate qualifies, so graphs are decoded from codes above 2^31.
        assert reports[0].qualifying == reports[0].candidates_examined == 2620
        assert reports[0].ok
        assert reports[0].to_json() == reports[1].to_json()

    def test_pruned_route_order_nine_answers(self):
        # Any epsilon below 1/9 prunes order 9 only to complement max degree 3:
        # 1,165 classes standing for 160,054,952 labeled candidates.
        rep = verify_supersaturation(9, 2, 2, 0.05, guard=9)
        assert rep.ok
        assert rep.candidates_examined == 160_054_952
        assert rep.qualifying == 22_244_552
        assert rep.source.endswith("complement max degree <= 3)")

    def test_guard_refusal(self):
        with pytest.raises(ValueError):
            verify_supersaturation(8, 2, 2, 0.05)
        with pytest.raises(ValueError, match=r"^order 10 beyond the exhaustive range \(max 9\)$"):
            verify_supersaturation(10, 2, 2, 0.05, guard=10)

    def test_containment_guard(self):
        with pytest.raises(ValueError):
            verify_supersaturation(7, 3, 3, 0.05)

    def test_oversized_violation_listing_is_refused(self, monkeypatch):
        # Order 6 < k*r = 8: each of the 76 qualifying labelings is a violation.
        monkeypatch.setattr(scan_mod, "_MAX_VIOLATIONS", 76)
        assert len(verify_supersaturation(6, 2, 4, 0.1).violations) == 76
        monkeypatch.setattr(scan_mod, "_MAX_VIOLATIONS", 75)
        with pytest.raises(ValueError, match="^76 violating labelings to list, above the limit"):
            verify_supersaturation(6, 2, 4, 0.1)

    def test_json_shape(self):
        rep = verify_supersaturation(6, 2, 2, 0.1)
        data = json.loads(rep.to_json())
        assert data["violations"] == []
        assert data["threshold"] == pytest.approx(6 - 3 + 0.6)
