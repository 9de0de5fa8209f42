"""graph6 format tests: hand-derived strings, round trips, error handling."""

import subprocess
import sys

import numpy as np
import pytest

from algconn.errors import Graph6Error
from algconn.graph6 import (
    HEADER,
    _parse_code,
    parse_graph6,
    read_code_blocks,
    read_codes,
    read_corpus,
    write_graph6,
)
from algconn.graphs import complete, decode, empty, encode, pair_index, path, turan

#: Records every reader must reject, as (record, message, offset after the header).
MALFORMED = [
    ("B" + chr(30), "byte 30 outside 63..126", 1),
    ("A`", "nonzero padding bits", 1),  # padding bit in the body byte, not the order byte
    ("D", "bit stream truncated: need 2 bytes, got 0", 1),  # reported at the record's end
    ("Bw?", "1 trailing bytes", 2),  # follows the order byte and one body byte
    ("~~?????B" + "?" * 100, "8-byte order prefix not supported", 1),
    ("?", "order 0 not supported", 0),
    ("~??~" + "?" * 325 + "@", "nonzero padding bits", 329),  # order 63: 1953 bits, 3 padding
    ("~??~" + "?" * 327, "1 trailing bytes", 330),
    (b"B\xff", "non-ASCII byte", 1),
    # A str record is read as its UTF-8 bytes, lone surrogates included.
    ("B\xe9", "non-ASCII byte", 1),
    ("B\udce9", "non-ASCII byte", 1),
    ("~??", "truncated order prefix", 3),
    ("~??}" + "?" * 316, "order 62 must use the 1-byte prefix", 0),  # else a valid order 62
]
MALFORMED_IDS = ["range", "padding", "truncated", "trailing", "eight-byte", "order-zero",
                 "long-padding", "long-trailing", "non-ascii", "non-ascii-str", "surrogate",
                 "short-prefix", "small-order-long-prefix"]


def _seeded_order8_lines(seed=8, size=500):
    rng = np.random.default_rng(seed)
    return [write_graph6(decode(8, int(c))) for c in rng.integers(0, 1 << 28, size=size)]


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

    @pytest.mark.parametrize("record, message, offset", MALFORMED, ids=MALFORMED_IDS)
    def test_offsets_index_the_record_after_the_header(self, record, message, offset):
        header = HEADER.encode() if isinstance(record, bytes) else HEADER
        for line in (record, header + record):
            with pytest.raises(Graph6Error) as exc:
                parse_graph6(line)
            assert (exc.value.reason, exc.value.offset) == (message, offset)

    @pytest.mark.parametrize("record, message, offset", MALFORMED, ids=MALFORMED_IDS)
    def test_both_readers_raise_the_same_error(self, record, message, offset, tmp_path):
        # The str and bytes forms of a record raise one reason at one offset.
        as_bytes = record if isinstance(record, bytes) else record.encode("utf-8", "surrogatepass")
        for line in {record, as_bytes}:
            with pytest.raises(Graph6Error) as graph_exc:
                parse_graph6(line)
            with pytest.raises(Graph6Error) as code_exc:
                _parse_code(line)
            assert str(graph_exc.value) == str(code_exc.value)
            assert (code_exc.value.reason, code_exc.value.offset) == (message, offset)
        # In a corpus the record sits on line 2, after a good one.
        lines = [b"Bw\n", as_bytes + b"\n"]
        for reader in (read_corpus, read_codes):
            with pytest.raises(Graph6Error) as exc:
                list(reader(lines))
            assert (exc.value.reason, exc.value.line, exc.value.offset) == (message, 2, offset)
            assert str(exc.value) == f"{message} (line 2, byte {offset})"
        # Read from a file, through the block decoder: on line 2, and after a
        # run of good records that spans more than one block.
        good = [line.encode() + b"\n" for line in _seeded_order8_lines(size=12_000)]
        for lines, lineno in (([b"Bw\n"], 2), (good, 12_001)):
            corpus = tmp_path / f"bad{lineno}.g6"
            corpus.write_bytes(b"".join(lines) + as_bytes + b"\n" + good[0])
            readers = (read_corpus, read_codes, read_code_blocks) if lineno == 2 else (
                read_codes, read_code_blocks)
            for reader in readers:
                with pytest.raises(Graph6Error) as exc:
                    list(reader(corpus))
                assert (exc.value.reason, exc.value.line, exc.value.offset) == (
                    message, lineno, offset)

    def test_non_ascii_byte_is_one_error_everywhere(self, tmp_path):
        corpus = tmp_path / "latin1.g6"
        corpus.write_bytes(b"Bw\nB\xe9\n")
        lines = [b"Bw", b"B\xe9"]
        for reader in (read_corpus, read_codes):
            for source in (corpus, str(corpus), lines, iter(lines)):
                with pytest.raises(Graph6Error) as exc:
                    list(reader(source))
                assert str(exc.value) == "non-ASCII byte (line 2, byte 1)"
        with pytest.raises(Graph6Error, match=r"^non-ASCII byte \(byte 1\)$"):
            parse_graph6(b"B\xe9")

    def test_empty_record_has_no_offset(self):
        for reader in (parse_graph6, _parse_code):
            with pytest.raises(Graph6Error) as exc:
                reader("")
            assert (str(exc.value), exc.value.offset) == ("empty record", None)
        # A bare header after the first line leaves an empty record.
        with pytest.raises(Graph6Error, match=r"^empty record \(line 2\)$"):
            list(read_codes(["Bw", HEADER]))


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


class TestCodeReader:
    """The code reader must agree with decoding and re-encoding every record."""

    def test_matches_encode_parse_for_every_graph_up_to_order_six(self):
        for n in range(1, 7):
            for code in range(1 << (n * (n - 1) // 2)):
                line = write_graph6(decode(n, code))
                g = parse_graph6(line)
                assert _parse_code(line) == _parse_code(line.encode()) == (g.n, encode(g))
                assert (g.n, encode(g)) == (n, code)

    def test_matches_encode_parse_on_a_seeded_order8_corpus(self, tmp_path):
        lines = _seeded_order8_lines()
        expected = [(8, encode(parse_graph6(line))) for line in lines]
        assert [_parse_code(line) for line in lines] == expected
        corpus = tmp_path / "order8.g6"
        corpus.write_text("\n".join(lines) + "\n")
        assert list(read_codes(corpus)) == expected
        assert [(g.n, encode(g)) for g in read_corpus(corpus)] == expected

    def test_headers_blank_lines_and_crlf(self, tmp_path):
        lines = _seeded_order8_lines(seed=9, size=50) + ["Bw", "@", write_graph6(empty(63))]
        expected = [(g.n, encode(g)) for g in map(parse_graph6, lines)]
        text = (HEADER + "\r\n" + "\r\n".join(lines[:10]) + "\r\n\r\n  \r\n"
                + "\n".join(HEADER + line for line in lines[10:30]) + "\n\n"
                + "\r\n".join(lines[30:]) + "\r\n")
        corpus = tmp_path / "mixed.g6"
        corpus.write_bytes(text.encode())
        for source in (corpus, text.splitlines(keepends=True),
                       text.encode().splitlines(keepends=True)):
            assert list(read_codes(source)) == expected
            assert [(g.n, encode(g)) for g in read_corpus(source)] == expected

    def test_lenient_mode_masks_padding(self):
        assert _parse_code("A`", strict=False) == (2, 1)
        assert list(read_codes(["A`"], strict=False)) == [(2, 1)]

    def test_lenient_mode_masks_padding_in_a_file(self, tmp_path):
        # A record with nonzero padding leaves the block route for _parse_code.
        corpus = tmp_path / "padded.g6"
        corpus.write_bytes(b"A_\nA`\nA_\nBw\n")
        assert list(read_codes(corpus, strict=False)) == [(2, 1)] * 3 + [(3, 7)]
        with pytest.raises(Graph6Error, match=r"^nonzero padding bits \(line 2, byte 1\)$"):
            list(read_codes(corpus))

    def test_long_records_match_the_writer(self):
        rng = np.random.default_rng(21)
        for n in (12, 28, 29, 63, 100, 300):
            nbits = n * (n - 1) // 2
            code = int.from_bytes(rng.bytes(nbits // 8 + 1), "little") % (1 << nbits)
            assert _parse_code(write_graph6(decode(n, code))) == (n, code)


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


class TestBlockDecoder:
    """A corpus file is decoded a block at a time; _parse_code is the reference."""

    @staticmethod
    def _write(tmp_path, lines):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("".join(line + "\n" for line in lines))
        return corpus

    def test_every_record_up_to_order_six(self, tmp_path):
        lines = [write_graph6(decode(n, code))
                 for n in range(1, 7) for code in range(1 << (n * (n - 1) // 2))]
        corpus = self._write(tmp_path, lines)
        assert list(read_codes(corpus)) == [_parse_code(line) for line in lines]

    def test_seeded_order8_corpus_decodes_to_a_few_arrays(self, tmp_path):
        lines = _seeded_order8_lines(size=20_000)
        corpus = tmp_path / "order8.g6"
        corpus.write_text("\n".join(lines))  # no newline after the last record
        items = list(read_code_blocks(corpus))
        assert all(order == 8 and isinstance(codes, np.ndarray) for order, codes in items)
        # One array per 64 KiB block read, and one for the unterminated last line.
        assert len(items) <= -(-len(corpus.read_bytes()) // (1 << 16)) + 1
        assert [(8, code) for _, codes in items for code in codes.tolist()] == [
            _parse_code(line) for line in lines]

    def test_runs_split_where_the_order_changes(self, tmp_path):
        lines = ["Bw", "Bg", "C~", "Bw", "@", "@", ">>graph6<<Bw", "Bw"]
        corpus = tmp_path / "runs.g6"
        corpus.write_text("\n".join(lines) + "\n")
        items = [(order, codes.tolist() if isinstance(codes, np.ndarray) else codes)
                 for order, codes in read_code_blocks(corpus)]
        assert items == [(3, [7, 5]), (4, [63]), (3, [7]), (1, [0, 0]), (3, 7), (3, [7])]

    def test_mixed_headers_blank_lines_and_whitespace(self, tmp_path):
        lines = _seeded_order8_lines(seed=9, size=50) + ["Bw", "@", write_graph6(empty(63))]
        text = (HEADER + "\r\n" + "\r\n".join(lines[:10]) + "\r\n\r\n  \r\n"
                + "\n".join(HEADER + line for line in lines[10:20]) + "\n\n"
                + "\n".join(lines[20:30]) + "\n \t" + lines[30] + "  \n"
                + "\n".join(lines[31:]) + "\n")
        corpus = tmp_path / "mixed.g6"
        corpus.write_bytes(text.encode())
        assert list(read_codes(corpus)) == [_parse_code(line) for line in lines]

    def test_order_eleven_top_code_bits(self, tmp_path):
        # Bits 48..53 sit in the ninth body byte, shifted by 48, and bit 54 in
        # the tenth, shifted by 54: int64 shifts keep them under NumPy 1.x
        # promotion rules as well.
        codes = [0b11111 << 50, (1 << 55) - 1, 1 << 54, 1 << 50]
        lines = [write_graph6(decode(11, code)) for code in codes]
        corpus = self._write(tmp_path, lines)
        assert list(read_codes(corpus)) == [_parse_code(line) for line in lines] == [
            (11, code) for code in codes]
        [(order, block)] = read_code_blocks(corpus)
        assert order == 11 and block.dtype == np.int64

    def test_random_records_of_every_order_up_to_twelve(self, tmp_path):
        rng = np.random.default_rng(31)
        lines = []
        for n in rng.integers(1, 13, size=3000).tolist():
            nbits = n * (n - 1) // 2
            lines.append(write_graph6(decode(n, int(rng.integers(0, 1 << min(nbits, 62)))
                                             % (1 << nbits))))
        corpus = self._write(tmp_path, lines)
        assert list(read_codes(corpus)) == [_parse_code(line) for line in lines]

    def test_corpus_scan_leaves_numpy_ma_unloaded(self, tmp_path):
        # NumPy 2.x's np.unique imports numpy.ma lazily, about 15 ms a command.
        # The enumerated scans list their achievers' labelings without it too.
        corpus = self._write(tmp_path, [write_graph6(turan(8, 3))] + _seeded_order8_lines(size=300))
        for scan in (["max", "8", "3", "--corpus", str(corpus)], ["max", "7", "3"],
                     ["min", "7", "3"]):
            probe = ("import sys, numpy; loaded = 'numpy.ma' in sys.modules; "
                     "from algconn import cli; "
                     f"code = cli.main(['scan', *{scan!r}]); "
                     "print(loaded, code, 'numpy.ma' in sys.modules, file=sys.stderr)")
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
            loaded, code, after = proc.stderr.splitlines()[-1].split()
            if loaded == "True":
                pytest.skip("import numpy alone loads numpy.ma")
            assert (code, after) == ("0", "False"), scan


@pytest.mark.parametrize("order_line, bad_line", [
    (3, 5), (5, 3),  # in one block
    (3, 10_005), (10_005, 3),  # 10,000 good records apart
])
def test_the_first_failing_line_wins(tmp_path, order_line, bad_line):
    # A wrong-order record (order 7) and a malformed one (bad byte) in one
    # corpus: the scan reports whichever comes first in the file.
    from algconn.scan import verify_max_theorem

    lines = [line.encode() for line in _seeded_order8_lines(size=10_010)]
    lines[order_line - 1] = write_graph6(empty(7)).encode()
    lines[bad_line - 1] = b"G\x1e????"
    corpus = tmp_path / "mixed.g6"
    corpus.write_bytes(b"\n".join(lines) + b"\n")
    if order_line < bad_line:
        expected = pytest.raises(ValueError, match="^corpus graph of order 7, expected 8$")
    else:
        expected = pytest.raises(
            Graph6Error, match=rf"^byte 30 outside 63..126 \(line {bad_line}, byte 1\)$")
    with expected:
        verify_max_theorem(8, 3, corpus=read_code_blocks(corpus))
