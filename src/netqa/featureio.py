"""Deterministic writers for the output layers and tables.

Every writer produces byte-identical files for identical inputs: keys are
sorted, floats rounded at fixed precision, newlines fixed to \\n. Nothing
time-dependent belongs in these files; run metadata with timestamps goes
in its own file excluded from golden comparisons.

JSON is written compact (no indentation, ``,`` and ``:`` separators), so
the C encoder of the standard library does the work. A feature collection
is streamed from any iterable of features: the ``{"features":[`` header
line, one feature per line (the line layout of RFC 8142 GeoJSON text
sequences, inside one RFC 7946 ``FeatureCollection``), then the footer
line, so a layer is never held in memory whole. ``write_feature_lines`` is
that one framing loop; it takes features already encoded as ASCII bytes,
one line each or blocks of lines joined by ``,\\n``, so a producer that
formats its lines itself (every layer netqa writes, from columns) writes
the same bytes as ``encode`` of its features would.

Such a producer spells its numbers with ``decimal_text`` and
``integer_text``: array kernels that turn a column into a byte matrix
whose rows, with their zero bytes dropped, are the text ``encode`` gives
each value (after ``round`` to fixed decimals, for floats). Rows of
different widths share one matrix this way, and a block of lines is the
matrix's non-zero bytes, written as they are. ``_feature_lines`` lays such
blocks out for any layer of one geometry kind, from a block's vertex text
and one text matrix per property; each layer's speller lives beside the
columns it reads (``matching._segment_lines``, ``graph._undershoot_lines``
and ``graph._component_lines``, ``spatial._lisa_lines``,
``hexgrid._grid_lines``).

CSV tables go through the ``csv`` module with ``\\n`` line ends and minimal
quoting (RFC 4180): a field holding a comma, a quote or a line break is
quoted, ``None`` is an empty field, and every other field is written as
``str`` of its value.
"""

from __future__ import annotations

import csv
import json
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "round_metric",
    "encode",
    "decimal_text",
    "integer_text",
    "write_feature_lines",
    "write_feature_collection",
    "write_json",
    "write_csv",
]

COORD_DECIMALS = 6
METRIC_DECIMALS = 9


def round_metric(x, decimals: int = METRIC_DECIMALS):
    if x is None:
        return None
    return round(float(x), decimals)


# compact separators and no indent: ``encode`` runs the C encoder
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@cache  # built on first use: a run that spells no number column skips it
def _words() -> np.ndarray:
    """Four-byte spellings of 0..9999 as ``uint32`` words, zero bytes for padding.

    At ``i``, i with leading zeros ("0042"); at ``_LEAD + i``, i
    without them ("42"); at ``_TAIL + i``, i with leading zeros but without
    trailing ones ("042" for 420). The spelling of 0 is blank in the last
    two; ``_ZERO`` is "0".
    """
    # copies of the ten digits, not arithmetic on 0..9999: no array is
    # larger than the table, and no NumPy kernel is used that a run needs
    # anyway. Each kernel a run uses first maps more of NumPy's library
    # into its memory (64 KB and more), so the spellers keep to few kernels.
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    words = np.zeros((_ZERO + 1, 4), dtype=np.uint8)
    full, lead, tail = words[:_LEAD], words[_LEAD:_TAIL], words[_TAIL:_ZERO]
    for col, place in enumerate((1000, 100, 10, 1)):
        full[:, col] = np.tile(np.repeat(digits, place), 1000 // place)  # the digit (i // place) % 10
        lead[place:, col] = full[place:, col]  # from i = place on
        tail[:, col] = full[:, col]
        tail[:: 10 * place, col] = 0  # where i % (10 * place) == 0
    words[_ZERO, 0] = ord("0")
    return words.view(np.uint32).ravel()


_LEAD, _TAIL, _ZERO = 10000, 20000, 30000
_MINUS, _POINT = (np.frombuffer(b, dtype=np.uint32)[0] for b in (b"\0\0\0-", b".\0\0\0"))


def _limbs(n: np.ndarray) -> int:
    """The four-digit words needed for the largest of ``n >= 0`` (at least one)."""
    return -(-len(str(int(n.max(initial=0)))) // 4)


def _spell_whole(n: np.ndarray, out: np.ndarray) -> None:
    """Spell each ``n >= 0`` into a row of words, without leading zeros."""
    zero = n == 0
    for k in range(out.shape[1] - 1, -1, -1):  # least significant word first
        n, limb = np.divmod(n, 10000)
        out[:, k] = _words().take(np.where(n == 0, limb + _LEAD, limb))  # where, not a product: see _words
    out[zero, -1] = _words()[_ZERO]


def _spell_fraction(n: np.ndarray, digits: int, out: np.ndarray) -> None:
    """Spell each ``0 <= n < 10**digits`` as ``digits`` decimals into a row
    of words, without trailing zeros but with at least the first decimal."""
    zero = n == 0
    n = n * 10 ** (4 * out.shape[1] - digits)
    table = np.full(len(n), _TAIL)  # _TAIL, then 0 from the last word with a non-zero digit on
    for k in range(out.shape[1] - 1, -1, -1):
        n, limb = np.divmod(n, 10000)
        out[:, k] = _words().take(limb + table)
        table = np.where(limb == 0, table, 0)  # where, not a product: see _words
    out[zero, 0] = _words()[_ZERO]


def integer_text(values) -> np.ndarray:
    """``encode(int(v))`` of each integer as the rows of a zero-padded ``uint8`` matrix.

    Row k with its zero bytes dropped is the text of ``values[k]`` (any
    int64 but the most negative): the sign of a negative value, then its
    digits.
    """
    v = np.asarray(values, dtype=np.int64)
    n = np.where(v < 0, 0 - v, v)  # not np.abs: a kernel nothing else loads
    out = np.empty((len(v), 1 + _limbs(n)), dtype=np.uint32)
    out[:, 0] = 0
    out[v < 0, 0] = _MINUS
    _spell_whole(n, out[:, 1:])
    return out.view(np.uint8)


def decimal_text(values, decimals: int) -> np.ndarray:
    """``encode(round(v, decimals))`` of each float as the rows of a zero-padded ``uint8`` matrix.

    Row k with its zero bytes dropped is that text, byte for byte, for
    ``0 <= decimals <= 15``. ``round`` rounds the exact binary value half
    to even at ``decimals`` places, giving the integer N of the decimal
    N / 10**decimals; ``encode`` spells the float nearest to it by
    ``repr``. The kernel finds N exactly: p = |v| * 10**decimals is
    rounded to the nearest integer (``np.rint``), and only where p is a
    half-integer does the rounding error of the product, found exactly by
    Dekker's TwoProduct (Dekker 1971), decide the side. While N < 10**15
    and N / 10**decimals is 0 or at least 1e-4, the decimal has at most
    15 significant digits, so it is the shortest text that reads back as
    that float, which is ``repr``'s (Gay 1990; DBL_DIG is 15): the sign,
    the integer digits, ``.``, and the decimals without trailing zeros (at
    least one kept). Every other value (an exponent form, 16 or more
    significant digits, NaN, infinities) is spelled by
    ``encode(round(v, decimals))`` itself, one value at a time, into the
    same matrix.
    """
    if not 0 <= decimals <= 15:
        raise ValueError(f"decimals must be in 0..15, got {decimals}")
    v = np.asarray(values, dtype=float)
    scale = 10.0**decimals
    with np.errstate(all="ignore"):
        p = np.abs(v) * scale
        floor = np.floor(p)
        n = np.rint(p)
        tie = np.flatnonzero(p - floor == 0.5)
        if len(tie):
            # Dekker's TwoProduct: p + err == |v| * scale exactly (Veltkamp splits)
            a = np.abs(v[tie])
            a_hi = a * 134217729.0
            a_hi -= a_hi - a
            a_lo = a - a_hi
            s_hi = scale * 134217729.0
            s_hi -= s_hi - scale
            s_lo = scale - s_hi
            err = (a_hi * s_hi - p[tie] + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
            n[tie] = np.where(err == 0.0, n[tie], floor[tie] + (err > 0.0))
        plain = (n < 1e15) & ((n == 0.0) | (n >= 10.0 ** (decimals - 4)))  # False for NaN
    whole, fraction = np.divmod(np.where(plain, n, 0.0).astype(np.int64), 10**decimals)
    odd = [(k, encode(round(float(v[k]), decimals)).encode()) for k in np.flatnonzero(~plain)]
    w, f = _limbs(whole), -(-max(decimals, 1) // 4)  # round(v, 0) is spelled with ".0"
    out = np.empty((len(v), max([2 + w + f] + [-(-len(t) // 4) for _, t in odd])), dtype=np.uint32)
    out[:, 0] = 0
    out[np.signbit(v), 0] = _MINUS
    _spell_whole(whole, out[:, 1 : 1 + w])
    out[:, 1 + w] = _POINT
    _spell_fraction(fraction, max(decimals, 1), out[:, 2 + w : 2 + w + f])
    out[:, 2 + w + f :] = 0
    text = out.view(np.uint8)
    for k, t in odd:
        text[k] = 0
        text[k, : len(t)] = np.frombuffer(t, dtype=np.uint8)
    return text


# ---------------- blocks of feature lines ----------------

# Bytes of the matrix one block of rows is spelled into. Spelling a block
# holds about twice that (the matrix, then the block's text), so it sets
# the write stage's share of a run's peak memory.
_LINE_BLOCK = 1 << 18


def _text_rows(texts) -> np.ndarray:
    """ASCII texts as the rows of a zero-padded ``uint8`` matrix."""
    rows = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


_NULL = _text_rows(["null"])[0]
_BOOLEANS = _text_rows(["false", "true"])
_NESTING = {"Point": ("[", "]"), "LineString": ("[[", "]]"), "Polygon": ("[[[", "]]]")}  # around _vertex_parts


def _side_by_side(parts, n: int) -> bytearray:
    """``n`` rows of text as one zero-padded byte matrix: each part, a
    literal (``bytes``) or a ``uint8`` matrix of ``n`` rows, fills the next
    columns. The literals are laid out once, in a row repeated ``n`` times."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    text = bytearray(b"".join(p if isinstance(p, bytes) else bytes(w) for p, w in zip(parts, widths))) * n
    block = np.frombuffer(text, dtype=np.uint8).reshape(n, sum(widths))
    at = 0
    for part, width in zip(parts, widths):
        if not isinstance(part, bytes):
            block[:, at : at + width] = part
        at += width
    return text


def _block_text(matrix: bytearray) -> bytearray:
    """The lines of a matrix whose rows each end in ``,\\n``: its non-zero
    bytes, without the last separator (``write_feature_lines`` puts one
    between two blocks)."""
    text = matrix.translate(None, b"\0")
    del text[-2:]
    return text


def _vertex_parts(xy: np.ndarray) -> list:
    """``_side_by_side`` parts of the vertices ``xy`` (n, k, 2): ``x,y`` at 6
    decimals each, joined by ``],[``, a geometry's text inside its brackets."""
    text = decimal_text(xy.ravel(), COORD_DECIMALS).reshape(*xy.shape, -1)
    parts = [text[:, 0, 0], b",", text[:, 0, 1]]
    for i in range(1, xy.shape[1]):
        parts += [b"],[", text[:, i, 0], b",", text[:, i, 1]]
    return parts


def _feature_lines(kind: str, n: int, spell):
    """``n`` features with ``kind`` geometries, in blocks of lines; ``spell(rows)``
    gives a block's vertex text parts and a ``uint8`` matrix of each
    property's value text. A block's matrix is about ``_LINE_BLOCK`` bytes
    at the width of the block before (512 bytes a line for the first)."""
    lo, step = 0, max(1, _LINE_BLOCK >> 9)
    while lo < n:
        hi = min(lo + step, n)
        text, size = _feature_block(kind, slice(lo, hi), spell)
        lo, step = hi, max(1, _LINE_BLOCK * (hi - lo) // size)
        yield text


def _feature_block(kind: str, rows: slice, spell) -> tuple:
    """The lines of features ``rows``, each ``encode`` of its
    feature byte for byte, and the bytes of the matrix they were spelled in."""
    vertices, properties = spell(rows)
    opening, closing = _NESTING[kind]
    parts = [f'{{"geometry":{{"coordinates":{opening}'.encode(), *vertices]
    head = f'{closing},"type":"{kind}"}},"properties":{{'
    for key in sorted(properties):  # encode's key order
        parts += [f"{head}{encode(key)}:".encode(), properties[key]]
        head = ","
    parts.append(b'},"type":"Feature"},\n')
    matrix = _side_by_side(parts, rows.stop - rows.start)
    del vertices, properties, parts  # the columns go before the matrix is read
    return _block_text(matrix), len(matrix)


def _open(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_feature_lines(path, lines) -> None:
    """Stream ``lines`` (any iterable, consumed once) as a FeatureCollection.

    Each item is ASCII bytes (any bytes-like object): one encoded feature,
    or a block of them joined by ``,\\n``.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b'{"features":[')
        sep = b"\n"
        for line in lines:
            fh.write(sep)
            fh.write(line)
            sep = b",\n"
        fh.write(b'\n],"type":"FeatureCollection"}\n')


def write_feature_collection(path, features) -> None:
    """Stream ``features`` (any iterable, consumed once) as a FeatureCollection."""
    write_feature_lines(path, map(str.encode, map(encode, features)))


def write_json(path, obj) -> None:
    with _open(path) as fh:
        fh.write(encode(obj) + "\n")


def write_csv(path, header, rows) -> None:
    with _open(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
