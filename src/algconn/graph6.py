"""graph6 text format: bit-exact reader and writer for simple graphs.

One graph per line, printable bytes 63..126, optional ">>graph6<<" header.
A record is an order prefix followed by the bits of the graph's integer code
(graphs.encode), bit 0 first, six bits per byte (most significant first),
zero-padded and each byte offset by 63.  The pair order lives in
graphs.pair_index; this module only frames codes.  Only plain graph6 is
handled; sparse6 and digraph6 are out of scope.
"""

from __future__ import annotations

import os

from .errors import Graph6Error
from .graphs import Graph, decode, encode

__all__ = ["HEADER", "parse_graph6", "write_graph6", "read_corpus"]

HEADER = ">>graph6<<"

_MAX_N = 258047  # largest order the 4-byte prefix can carry


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
    if isinstance(line, bytes):
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError as exc:
            skip = len(HEADER) if line.startswith(HEADER.encode()) else 0
            raise Graph6Error("non-ASCII byte", offset=exc.start - skip) from None
    else:
        text = line
    text = text.rstrip("\r\n")
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    if not text:
        raise Graph6Error("empty record")
    for pos, ch in enumerate(text):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside 63..126", offset=pos)

    if text[0] == "~":
        if len(text) >= 2 and text[1] == "~":
            raise Graph6Error("8-byte order prefix not supported", offset=1)
        if len(text) < 4:
            raise Graph6Error("truncated order prefix", offset=len(text))
        n = 0
        for ch in text[1:4]:
            n = n << 6 | (ord(ch) - 63)
        start = 4
        if n <= 62:
            raise Graph6Error(f"order {n} must use the 1-byte prefix", offset=0)
    else:
        n = ord(text[0]) - 63
        start = 1
    if n == 0:
        raise Graph6Error("order 0 not supported", offset=0)

    body = text[start:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(
            f"bit stream truncated: need {need} bytes, got {len(body)}",
            offset=len(text),
        )
    if len(body) > need:
        raise Graph6Error(f"{len(body) - need} trailing bytes", offset=start + need)

    # graph6 bit b (six per byte, most significant first) is code bit b.
    stream = "".join(format(ord(ch) - 63, "06b") for ch in body)
    code = int("0" + stream[::-1], 2)
    if code >> nbits:
        if strict:
            raise Graph6Error("nonzero padding bits", offset=start + need - 1)
        code &= (1 << nbits) - 1
    return decode(n, code)


def read_corpus(source, strict: bool = True):
    """Lazily decode a graph6 corpus: a path, text stream, or iterable of lines.

    Yields graphs in order; a header on the first line is skipped; blank
    lines are ignored.  Parse errors are re-raised with the line number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            yield from read_corpus(handle, strict=strict)
        return
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        stripped = raw.strip()
        if not stripped:
            continue
        if lineno == 1 and stripped == HEADER:
            continue
        try:
            yield parse_graph6(stripped, strict=strict)
        except Graph6Error as exc:
            raise Graph6Error(str(exc), line=lineno) from None
