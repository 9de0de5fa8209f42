"""graph6 text format: bit-exact reader and writer for simple graphs.

One graph per line, printable bytes 63..126, optional ">>graph6<<" header.
A record is an order prefix followed by the bits of the graph's integer code
(graphs.encode), bit 0 first, six bits per byte (most significant first),
zero-padded and each byte offset by 63.  The pair order lives in
graphs.pair_index; this module only frames codes.  Only plain graph6 is
handled; sparse6 and digraph6 are out of scope.

One line parser, _parse_code, turns a record, bytes or str (read as its
UTF-8 bytes), into its (order, code) pair with every check; parse_graph6
decodes that pair into a Graph.  read_code_blocks streams a corpus file a
block of bytes at a time, as the CLI's corpus scans read it: NumPy decodes
each run of plain records of one order <= 11 (the order byte, then exactly
the body bytes, all within 63..126, padding zero) into an int64 array, with
no Python object per record, and hands every other line to _parse_code, the
one per-record reference and the only place a record is refused.
read_codes flattens those runs into (order, code) pairs; read_corpus
decodes the pairs.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import Graph6Error
from .graphs import Graph, decode, encode

__all__ = ["HEADER", "parse_graph6", "write_graph6", "read_code_blocks", "read_codes",
           "read_corpus"]

HEADER = ">>graph6<<"
_HEADER = HEADER.encode()
#: The bytes a record may hold, 63..126.
_PRINTABLE = bytes(range(63, 127))
#: A record byte b -> the six bits of b - 63, written last bit first.
_SIX_BITS = [""] * 63 + [f"{v:06b}"[::-1] for v in range(64)]

_MAX_N = 258047  # largest order the 4-byte prefix can carry

#: Bytes read from a corpus file at a time; a block ends at its last newline.
_BLOCK = 1 << 16
#: A record's first byte -> its order where that is 1..11 (a code fits in int64), else 0.
_ORDERS = np.zeros(256, np.int64)
_ORDERS[64:75] = np.arange(1, 12)
#: Order -> length of its plain records, the order byte and the body; -1 for order 0.
_WIDTHS = np.array([-1] + [1 + (n * (n - 1) // 2 + 5) // 6 for n in range(1, 12)])
#: A body byte -> its six code bits as _SIX_BITS spells them; 0 outside 63..126.
_SIX = np.array([int(bits or "0", 2) for bits in _SIX_BITS] + [0] * 129, np.int64)
_VALID = np.zeros(256, bool)
_VALID[63:127] = True


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line for g (no trailing newline)."""
    n = g.n
    if n > _MAX_N:
        raise ValueError(f"order {n} exceeds graph6 4-byte limit {_MAX_N}")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"]
        for shift in (12, 6, 0):
            out.append(chr((n >> shift & 63) + 63))
    nbits = n * (n - 1) // 2
    # Code bits 0 .. nbits-1, bit 0 first (the sentinel bit nbits is cut off).
    bits = format(encode(g) | 1 << nbits, "b")[:0:-1]
    bits += "0" * (-nbits % 6)
    out.extend(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, nbits, 6))
    return "".join(out)


def parse_graph6(line, strict: bool = True) -> Graph:
    """Decode one graph6 line (str or bytes); header prefix is accepted.

    In strict mode nonzero padding bits are rejected, which catches most
    forms of corpus corruption early.  Error offsets index the record after
    the header.
    """
    return decode(*_parse_code(line, strict))


def _parse_code(line, strict: bool = True) -> tuple[int, int]:
    """(order, integer code) of one graph6 line, with parse_graph6's checks."""
    if isinstance(line, str):
        line = line.encode("utf-8", "surrogatepass")
    if not line.isascii():
        skip = len(_HEADER) if line.startswith(_HEADER) else 0
        pos = next(i for i, b in enumerate(line) if b > 127)
        raise Graph6Error("non-ASCII byte", offset=pos - skip)
    data = line.rstrip(b"\r\n").removeprefix(_HEADER)
    if not data:
        raise Graph6Error("empty record")
    if data.translate(None, _PRINTABLE):
        pos = next(i for i, b in enumerate(data) if not 63 <= b <= 126)
        raise Graph6Error(f"byte {data[pos]} outside 63..126", offset=pos)

    if data[0] == 126:  # "~"
        if data[1:2] == b"~":
            raise Graph6Error("8-byte order prefix not supported", offset=1)
        if len(data) < 4:
            raise Graph6Error("truncated order prefix", offset=len(data))
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        start = 4
        if n <= 62:
            raise Graph6Error(f"order {n} must use the 1-byte prefix", offset=0)
    else:
        n = data[0] - 63
        start = 1
    if n == 0:
        raise Graph6Error("order 0 not supported", offset=0)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(data) - start
    if got < need:
        raise Graph6Error(
            f"bit stream truncated: need {need} bytes, got {got}", offset=len(data)
        )
    if got > need:
        raise Graph6Error(f"{got - need} trailing bytes", offset=start + need)

    # Body byte k holds code bits 6k .. 6k+5 from its high bit down, so bytes and
    # bits read last first spell the code in binary (int parses base 2 in linear time).
    code = int("0" + "".join([_SIX_BITS[b] for b in reversed(data[start:])]), 2)
    if code >> nbits:
        if strict:
            raise Graph6Error("nonzero padding bits", offset=start + need - 1)
        code &= (1 << nbits) - 1
    return n, code


def _record(raw, lineno: int, strict: bool):
    """(order, code) of one corpus line; None for a blank line or a first-line header."""
    stripped = raw.strip()
    if not stripped or lineno == 1 and stripped in (HEADER, _HEADER):
        return None
    try:
        return _parse_code(stripped, strict)
    except Graph6Error as exc:
        raise Graph6Error(exc.reason, offset=exc.offset, line=lineno) from None


def _block_codes(block: bytes, lineno: int, strict: bool):
    """The items of a block of whole lines, in order, as read_code_blocks yields them.

    lineno counts the lines before the block.  Each line's order and code
    are first computed column by column over all lines of one order at once;
    a line that is not a plain record gets order 0 and goes to _record.
    """
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(buf == 10)
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(buf))
    starts = np.concatenate(([0], ends[:-1] + 1))
    order = _ORDERS[buf[starts]]
    order[ends - starts != _WIDTHS[order]] = 0
    codes = np.zeros(len(order), np.int64)
    for n in (np.flatnonzero(np.bincount(order)[1:]) + 1).tolist():  # np.unique loads numpy.ma
        rows = np.flatnonzero(order == n)
        code, plain = np.zeros(len(rows), np.int64), np.ones(len(rows), bool)
        for k in range(1, _WIDTHS[n]):
            body = buf[starts[rows] + k]
            plain &= _VALID[body]
            code |= _SIX[body] << 6 * (k - 1)  # int64 shifts: bits 54..59 at n = 11
        plain &= code >> n * (n - 1) // 2 == 0
        codes[rows] = code
        order[rows[~plain]] = 0
    cuts = np.flatnonzero(np.diff(order)) + 1
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(order)]):
        if order[a]:
            yield int(order[a]), codes[a:b]
            continue
        for i in range(a, b):
            item = _record(block[starts[i]:ends[i]], lineno + i + 1, strict)
            if item is not None:
                yield item


def read_code_blocks(source, strict: bool = True):
    """Lazily parse a graph6 corpus into (order, code) items, in file order.

    A code is an int, or an int64 array holding the codes of a run of
    consecutive records of that order.  source is a path, read _BLOCK bytes
    at a time with runs decoded by NumPy, or a stream or an iterable of str
    or bytes lines, parsed one line at a time.  A header on the first line
    is skipped; blank lines are ignored.  Parse errors are re-raised with
    the line number; the first failing line raises, after every item before
    it has been yielded.
    """
    if not isinstance(source, (str, os.PathLike)):
        for lineno, raw in enumerate(source, start=1):
            item = _record(raw, lineno, strict)
            if item is not None:
                yield item
        return
    with open(source, "rb") as handle:
        pending, lineno = b"", 0
        while True:
            data = handle.read(_BLOCK)
            pending += data
            cut = pending.rfind(b"\n") + 1 if data else len(pending)
            if cut:
                block, pending = pending[:cut], pending[cut:]
                yield from _block_codes(block, lineno, strict)
                lineno += block.count(b"\n") + (not block.endswith(b"\n"))
            if not data:
                return


def read_codes(source, strict: bool = True):
    """Lazily parse a graph6 corpus into (order, code) pairs (see read_code_blocks)."""
    for order, code in read_code_blocks(source, strict):
        if isinstance(code, np.ndarray):
            yield from ((order, c) for c in code.tolist())
        else:
            yield order, code


def read_corpus(source, strict: bool = True):
    """Lazily decode a graph6 corpus into graphs, in order (see read_codes)."""
    for n, code in read_codes(source, strict=strict):
        yield decode(n, code)
