"""graph6 format tests: hand-derived strings, round trips, error handling."""

import numpy as np
import pytest

from algconn.errors import Graph6Error
from algconn.graph6 import HEADER, parse_graph6, read_corpus, write_graph6
from algconn.graphs import complete, decode, empty, pair_index, path


class TestKnownStrings:
    def test_triangle(self):
        # n=3 -> 'B'; bits 111 pad to 111000 -> 56 + 63 = 119 = 'w'
        assert write_graph6(complete(3)) == "Bw"
        assert parse_graph6("Bw") == complete(3)

    def test_empty_three(self):
        assert parse_graph6("B?") == empty(3)
        assert write_graph6(empty(3)) == "B?"

    def test_path_three(self):
        # edges {01, 12} -> bits 101 -> 101000 = 40 -> byte 103 = 'g'
        assert write_graph6(path(3)) == "Bg"
        assert parse_graph6("Bg") == path(3)

    def test_single_vertex(self):
        assert write_graph6(empty(1)) == "@"
        assert parse_graph6("@") == empty(1)

    def test_header_prefix_accepted(self):
        assert parse_graph6(HEADER + "Bw") == complete(3)

    def test_bytes_input(self):
        assert parse_graph6(b"Bw") == complete(3)

    def test_extended_order_prefix(self):
        g = empty(63)
        text = write_graph6(g)
        assert text.startswith("~??~")
        assert parse_graph6(text) == g
        big = write_graph6(empty(100))
        assert parse_graph6(big).n == 100


class TestRoundTrips:
    def test_parse_write_identity_exhaustive(self):
        for n in range(1, 6):
            for code in range(1 << (n * (n - 1) // 2)):
                g = decode(n, code)
                assert parse_graph6(write_graph6(g)) == g

    def test_random_orders_up_to_twelve(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            code = int(rng.integers(0, 1 << min(n * (n - 1) // 2, 62)))
            g = decode(n, code % (1 << (n * (n - 1) // 2)))
            assert parse_graph6(write_graph6(g)) == g

    def test_edge_count_equals_popcount(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            code = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
            assert decode(n, code).edge_count == code.bit_count()


class TestErrors:
    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("B" + chr(30))
        assert exc.value.offset == 1

    def test_nonzero_padding_strict(self):
        # K_2 is 'A_' (bit 1, pad 00000); 'A`' sets a padding bit
        assert write_graph6(complete(2)) == "A_"
        with pytest.raises(Graph6Error):
            parse_graph6("A`")
        assert parse_graph6("A`", strict=False) == complete(2)

    def test_truncated_stream(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")  # n=5 needs ceil(10/6)=2 body bytes

    def test_trailing_bytes(self):
        with pytest.raises(Graph6Error):
            parse_graph6("Bw?")

    def test_empty_record(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_eight_byte_prefix_unsupported(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~~?????B" + "?" * 100)

    def test_order_zero_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("?")

    @pytest.mark.parametrize(
        "record, offset",
        [
            ("A`", 1),  # padding bit in the body byte, not the order byte
            ("Bw?", 2),  # the trailing byte follows order byte and one body byte
            ("D", 1),  # truncation is reported at the end of the record
            ("B\x1e", 1),
            ("~??~" + "?" * 325 + "@", 329),  # order 63: 1953 bits, 3 padding bits
            ("~??~" + "?" * 327, 330),
            (b"B\xff", 1),
        ],
        ids=["padding", "trailing", "truncated", "range", "long-padding",
             "long-trailing", "non-ascii"],
    )
    def test_offsets_index_the_record_after_the_header(self, record, offset):
        header = HEADER.encode() if isinstance(record, bytes) else HEADER
        for line in (record, header + record):
            with pytest.raises(Graph6Error) as exc:
                parse_graph6(line)
            assert exc.value.offset == offset


class TestCorpus:
    def test_two_line_file(self, tmp_path):
        corpus = tmp_path / "graphs.g6"
        corpus.write_text("Bw\nB?\n")
        assert list(read_corpus(corpus)) == [complete(3), empty(3)]

    def test_empty_file(self, tmp_path):
        corpus = tmp_path / "empty.g6"
        corpus.write_text("")
        assert list(read_corpus(corpus)) == []

    def test_header_only_file(self, tmp_path):
        corpus = tmp_path / "header.g6"
        corpus.write_text(HEADER + "\n")
        assert list(read_corpus(corpus)) == []

    def test_error_carries_line_number(self, tmp_path):
        corpus = tmp_path / "bad.g6"
        corpus.write_text("Bw\nB\x1e\n")
        with pytest.raises(Graph6Error) as exc:
            list(read_corpus(corpus))
        assert exc.value.line == 2

    def test_write_parse_identity_on_generated_corpus(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = []
        for _ in range(200):
            n = int(rng.integers(1, 9))
            code = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
            lines.append(write_graph6(decode(n, code)))
        corpus = tmp_path / "gen.g6"
        corpus.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        decoded = list(read_corpus(corpus))
        assert [write_graph6(g) for g in decoded] == lines

    def test_accepts_iterable_of_lines(self):
        assert list(read_corpus(["Bw", "", "Bg"])) == [complete(3), path(3)]


def test_networkx_oracle_agrees_on_bit_order():
    # Round trips cannot see a bit order that reader and writer share; an
    # outside writer built from pair_index can.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(17)
    orders = [int(n) for n in rng.integers(1, 14, size=300)] + [63, 64, 100]
    for n in orders:
        nbits = n * (n - 1) // 2
        code = int.from_bytes(rng.bytes(nbits // 8 + 1), "little") % (1 << nbits)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(
            (i, j) for j in range(n) for i in range(j) if code >> pair_index(i, j) & 1
        )
        expected = nx.to_graph6_bytes(h, header=False).decode("ascii").rstrip("\n")
        assert write_graph6(decode(n, code)) == expected
        g = parse_graph6(expected)
        assert set(g.edges()) == {tuple(sorted(e)) for e in h.edges()}
