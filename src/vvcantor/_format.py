"""Text formatting shared by the table writers and ``tree.jsonl``.

The outputs fix their number text by Python's ``format``/``repr``/``str``.
Table floats are written as ``"{:.17g}".format`` writes them, and
``float_text`` writes those bytes for a whole float64 array. numpy
generates the 17 digits of every value whose rounding it can prove: the
exact product x * 10**(16 - k), for k the decimal exponent of x, is formed
as a double-double (Dekker 1971; the power is held as an unevaluated sum of
two doubles), which is within 1e-14 of the true product, so the correctly
rounded 17-digit integer is fixed whenever the product's fraction lies more
than 1e-9 from one half. The digits are laid out by one gather from a
template per (exponent, significant digits, sign). Python's formatter,
which rounds correctly for every double (Gay 1990), stays for the values
numpy cannot prove: zero, infinities, NaN, subnormals, |x| outside
[1e-270, 1e290), a ``floor(log10)`` exponent guess off by one near a power
of ten, and products within 1e-9 of a tie. ``np.char.mod("%.17g", ...)``
writes the same bytes too, but through one Python call per value, and is
slower than ``format`` itself. Integers are written as ``str`` writes them,
by digit generation in numpy (``int_text``).

A table column's text is an (n, w) uint8 matrix of ASCII, one row per line,
NUL-padded to the longest text w: floats left-aligned, integers
right-aligned. A float column is formatted once per distinct bit pattern,
found by one ``np.unique`` of its bits, and gathered by row
(``column_text``); the cell ends of a decomposition once per decomposition
(``CellDecomposition.endpoint_text``), shared by ``cells.csv`` and
``gaps.csv``. ``write_table`` copies a block of rows of every column into
one buffer whose separator columns are written once, and drops the NULs
with one compress per block; no output holds a NUL, so what is left is the
lines' bytes.

``tree.jsonl`` keeps the ``str`` path (``vtree.tree_to_jsonl``): a line is
its node's path between two texts, each formatted once per distinct bit
pattern among the node classes (``_kernels.groups``).
"""

from __future__ import annotations

import numpy as np

# Rows per ``write`` of ``write_table`` and ``tree_to_jsonl``, and values per
# ``float_text`` kernel call: bounds the row buffer, the joined text and the
# kernel's temporaries while keeping the per-block overhead small.
_BLOCK_ROWS = 4096

# Decimal exponents k = floor(log10|x|) that the kernel formats. Within them
# every split, product and error term below is a normal double.
_K_MIN, _K_MAX = -270, 289
# Product error bound is about 1e-14; a fraction this close to 1/2 is
# left to Python's formatter.
_TIE_MARGIN = 1e-9
_E16, _E17 = 10 ** 16, 10 ** 17


def _pow10_table():
    """10**(16 - k) for each kernel exponent k, as two float64 arrays whose
    sum is the power to about 2**-106 relative: ``hi`` is the power
    rounded, ``lo`` the rounded remainder. Python's int division rounds
    correctly, so both are exact roundings of rationals."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


def _split(a):
    """Veltkamp's split of a into two 26-bit halves, high first."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_P_HI, _P_LO = _pow10_table()
_P_HH, _P_HL = _split(_P_HI)


def _code_pairs(texts) -> np.ndarray:
    """ASCII texts of one even length as rows of uint16 words, each holding
    two characters in memory order."""
    codes = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
    return codes.reshape(len(texts), -1).view(np.uint16)


# A text is gathered from 26 source characters, stored as 13 words of two:
# the 17 digits, ".", "0", "e", the exponent's sign and three digits, "-"
# and NUL, which pads a text to ``_WIDTH``.
_DOT, _ZERO, _E, _ESIGN, _EXP, _MINUS, _NUL = 17, 18, 19, 20, 21, 24, 25
_SOURCE_WIDTH, _WIDTH = 26, 24  # "-d." 16 digits "e-ddd" is the longest
_PAIRS = _code_pairs([f"{i:02d}" for i in range(100)]).ravel()
# _SIG_END[u, p]: a text's significant digits when the digit pair u (digits
# 2u and 2u + 1) holds p and every later digit is zero; 0 for p = 0.
_SIG_END = np.array([[2 * u + 1 + (p % 10 != 0) if p else 0 for p in range(100)]
                     for u in range(8)])
_LAST = _code_pairs([f"{d}." for d in range(10)]).ravel()
_ZERO_E, _MINUS_NUL = _code_pairs(["0e", "-\0"]).ravel()
_EXPONENT = _code_pairs([f"{k:+04d}" for k in range(_K_MIN, _K_MAX + 1)])
# Layout classes: fixed notation for exponents -4..16 (class k + 4), and
# scientific with a two- or three-digit exponent.
_SCI2, _SCI3 = 21, 22
_LAYOUT = np.array([k + 4 if -4 <= k <= 16 else _SCI2 if abs(k) < 100 else _SCI3
                    for k in range(_K_MIN, _K_MAX + 1)]) * 36


def _templates() -> np.ndarray:
    """Source columns of each text, keyed by (layout class * 18 +
    significant digits) * 2 + sign, as ``.17g`` lays the text out after
    dropping trailing zeros."""
    rows = []
    for cls in range(_SCI3 + 1):
        for s in range(18):
            if cls >= _SCI2:
                body = [0] + ([_DOT, *range(1, s)] if s > 1 else [])
                body += [_E, _ESIGN, *range(_EXP + (cls == _SCI2), _EXP + 3)]
            elif cls >= 4:  # exponent X >= 0: X + 1 integer digits
                point = cls - 3
                body = [*range(point), *([_DOT, *range(point, s)] if s > point else [])]
            else:  # exponent X in -4..-1: "0." and -X - 1 zeros
                body = [_ZERO, _DOT, *[_ZERO] * (3 - cls), *range(s)]
            rows.append(body + [_NUL] * (_WIDTH - len(body)))
    positive = np.array(rows, np.intp)
    # A negative value's text is "-" and the positive text, which never
    # fills the last column.
    table = np.empty((positive.shape[0], 2, _WIDTH), np.intp)
    table[:, 0] = positive
    table[:, 1, 0] = _MINUS
    table[:, 1, 1:] = positive[:, :-1]
    return table.reshape(-1, _WIDTH)


_TEMPLATES = _templates()


def _digit_text(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``.17g`` text of a float64 block as an (n, ``_WIDTH``) uint8
    matrix of NUL-padded ASCII, and the mask of rows it proves; the other
    rows hold filler and must be formatted by Python."""
    n = x.shape[0]
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    proven = (k >= _K_MIN) & (k <= _K_MAX)  # False on 0, inf, NaN
    a[~proven] = 1.0
    row = np.where(proven, k - _K_MIN, -_K_MIN).astype(np.intp)
    # a * 10**(16 - k) = p + lo: Dekker's product makes a * hi exactly p
    # plus the error term, and lo adds the rounded a * lo term to it, so
    # |a * 10**(16 - k) - p - lo| < 1e-14.
    p = a * _P_HI[row]
    ah, al = _split(a)
    hh, hl = _P_HH[row], _P_HL[row]
    lo = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    lo += a * _P_LO[row]
    whole = np.floor(lo)
    frac = lo - whole
    scaled = p.astype(np.int64) + whole.astype(np.int64)
    digits = scaled + (frac > 0.5)
    # A product below 1e16 or rounding to 1e17 means k was off by one.
    proven &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (scaled >= _E16) & (digits < _E17)
    digits[~proven] = _E16

    source = np.empty((n, _SOURCE_WIDTH // 2), np.uint16)
    first = digits // 10  # the first 16 digits, as two halves of 8
    last = digits - first * 10
    sig = np.where(last != 0, 17, 0)  # significant digits, as trailing zeros drop
    high = first // 100_000_000
    halves = np.stack([high, first - high * 100_000_000]).astype(np.uint32)
    for j in range(3, -1, -1):
        rest = halves // 100
        pair = halves - rest * 100
        source[:, j], source[:, j + 4] = np.take(_PAIRS, pair)
        np.maximum(sig, _SIG_END[j].take(pair[0]), out=sig)
        np.maximum(sig, _SIG_END[j + 4].take(pair[1]), out=sig)
        halves = rest
    source[:, 8] = _LAST[last]
    source[:, 9] = _ZERO_E
    np.take(_EXPONENT, row, axis=0, out=source[:, 10:12])
    source[:, 12] = _MINUS_NUL
    text = source.view(np.uint8)
    cols = np.take(_TEMPLATES, _LAYOUT[row] + 2 * sig + (x < 0), axis=0)
    cols += np.arange(0, n * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    return text.ravel().take(cols), proven


def float_rows(x: np.ndarray) -> np.ndarray:
    """``.17g`` text of a float64 array as an (n, ``_WIDTH``) uint8 matrix,
    left-aligned and NUL-padded: numpy writes every row ``_digit_text``
    proves, a block of ``_BLOCK_ROWS`` values at a time, and Python formats
    the rest, encoded and padded into their rows."""
    out = np.empty((x.shape[0], _WIDTH), np.uint8)
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = x[lo:lo + _BLOCK_ROWS]
        text, proven = _digit_text(block)
        rest = np.flatnonzero(~proven)
        if rest.shape[0]:
            fallback = np.array(list(map("{:.17g}".format, block[rest].tolist())), f"S{_WIDTH}")
            text[rest] = fallback.view(np.uint8).reshape(-1, _WIDTH)
        out[lo:lo + block.shape[0]] = text
    return out


def trim(text: np.ndarray) -> np.ndarray:
    """A left-aligned ``_WIDTH``-column text matrix cut to its longest row,
    as a contiguous copy, which gathers rows faster than a view: column c
    holds a character in some row exactly when c is below the longest
    length."""
    used = np.array([np.bitwise_or.reduce(word) for word in text.view(np.uint64).T])
    return np.ascontiguousarray(text[:, :np.count_nonzero(used.view(np.uint8))])


def float_text(values) -> np.ndarray:
    """``"{:.17g}".format`` of each value of a 1-D float array, as an (n, w)
    uint8 matrix of left-aligned, NUL-padded ASCII, w the longest text:
    row i without its NULs is the text of value i, byte for byte."""
    return trim(float_rows(np.asarray(values, np.float64)))


def int_text(values) -> np.ndarray:
    """``str`` of each value of a 1-D integer array as an (n, w) uint8
    matrix: the digits right-aligned, NULs before them and ``-`` before a
    negative value's digits, w the longest text. Magnitudes are negated in
    uint64, which holds the magnitude 2**63 of -2**63 where int64 cannot."""
    values = np.asarray(values, np.int64)
    n = values.shape[0]
    negative = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    digits = len(str(int(magnitude.max(initial=0))))
    width = digits + bool(negative.any())
    out = np.zeros((n, width), np.uint8)
    length = np.ones(n, np.intp)  # digits of each value, "0" included
    for j in range(1, digits + 1):
        quotient = magnitude // 10
        digit = (magnitude - quotient * 10).astype(np.uint8) + np.uint8(48)
        if j > 1:
            live = magnitude != 0
            digit *= live
            length += live
        out[:, width - j] = digit
        magnitude = quotient
    rows = np.flatnonzero(negative)
    out[rows, width - 1 - length[rows]] = ord("-")
    return out


def column_text(column) -> np.ndarray:
    """The text matrix of a table column: a 2-D uint8 array is text already
    and is returned as it is; floats are written by ``float_text`` once per
    distinct bit pattern and gathered by row, integers by ``int_text``."""
    column = np.asarray(column)
    if column.ndim == 2:
        return column
    if column.dtype.kind == "f":
        bits = np.ascontiguousarray(column, np.float64).view(np.uint64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        return np.take(float_text(distinct.view(np.float64)), inverse.ravel(), axis=0)
    return int_text(column)


def write_table(fp, texts) -> None:
    """Write line i as the i-th rows of the ``texts`` matrices (see
    ``column_text``) without their NULs, comma separated and ending in CRLF,
    for every row up to the shortest matrix's length. A block of
    ``_BLOCK_ROWS`` rows is copied into one reused buffer whose separator
    columns are written once, and its nonzero bytes, in row-major order,
    are the block's lines."""
    n = min((t.shape[0] for t in texts), default=0)
    widths = [t.shape[1] for t in texts]
    starts = np.cumsum([0] + [w + 1 for w in widths])  # each field and its separator
    buf = np.zeros((min(n, _BLOCK_ROWS), starts[-1] + 1), np.uint8)
    buf[:, starts[1:-1] - 1] = ord(",")
    buf[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    for lo in range(0, n, _BLOCK_ROWS):
        block = buf[:min(_BLOCK_ROWS, n - lo)]
        for text, start, width in zip(texts, starts.tolist(), widths):
            block[:, start:start + width] = text[lo:lo + block.shape[0]]
        flat = block.ravel()
        fp.write(flat[flat != 0].tobytes().decode("ascii"))
