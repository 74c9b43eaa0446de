"""Text formatting shared by the table writers and ``tree.jsonl``.

The outputs fix their number text by Python's ``format``/``repr``/``str``.
Table floats are written as ``"{:.17g}".format`` writes them, and
``format_17g`` writes those bytes for a whole float64 array. numpy
generates the 17 digits of every value whose rounding it can prove: the
exact product x * 10**(16 - k), for k the decimal exponent of x, is formed
as a double-double (Dekker 1971; the power is held as an unevaluated sum of
two doubles), which is within 1e-14 of the true product, so the correctly
rounded 17-digit integer is fixed whenever the product's fraction lies more
than 1e-9 from one half. The digits are laid out by one gather from a
template per (exponent, significant digits, sign) and read back as ``str``.
Python's formatter, which rounds correctly for every double (Gay 1990),
stays for the values numpy cannot prove: zero, infinities, NaN,
subnormals, |x| outside [1e-270, 1e290), a ``floor(log10)`` exponent guess
off by one near a power of ten, and products within 1e-9 of a tie.
``np.char.mod("%.17g", ...)`` writes the same bytes too, but through one
Python call per value, and is slower than ``format`` itself.

Columns that repeat are formatted once per distinct value
(``format_distinct``, and ``format_17g`` on the distinct floats of a table
column); the cell ends of a decomposition once per decomposition
(``CellDecomposition.endpoint_text``), shared by ``cells.csv`` and
``gaps.csv``; ``tree.jsonl`` paths are gathered from the parents' paths.
Lines are then joined a block of rows at a time, with one ``str.join`` over
the interleaved cells and literal pieces; a column is any sequence of
strings, a list or an object array.
"""

from __future__ import annotations

import numpy as np

# Rows per ``write`` of ``write_rows``, and values per ``format_17g`` kernel
# call: bounds the interleaved list, the joined text and the kernel's
# temporaries while keeping the per-block overhead small.
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
    """Texts of one even length as rows of uint64 words, each holding two
    code points in memory order."""
    codes = np.frombuffer("".join(texts).encode("utf-32-le"), "<u4").astype(np.uint32)
    return codes.reshape(len(texts), -1).view(np.uint64)


# A text is gathered from 26 source code points, stored as 13 words of two:
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
    """The ``.17g`` text of a float64 block as an (n, ``_WIDTH``) uint32
    array of NUL-padded code points, and the mask of rows it proves; the
    other rows hold filler and must be formatted by Python."""
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

    source = np.empty((n, _SOURCE_WIDTH // 2), np.uint64)
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
    text = source.view(np.uint32)
    cols = np.take(_TEMPLATES, _LAYOUT[row] + 2 * sig + (x < 0), axis=0)
    cols += np.arange(0, n * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    return text.ravel().take(cols), proven


def format_17g(values) -> np.ndarray:
    """``"{:.17g}".format`` of each value of a 1-D float array, as an object
    array of ``str``, byte-identical to it: numpy writes the text of every
    value ``_digit_text`` proves, a block of ``_BLOCK_ROWS`` values at a
    time, and Python formats the rest."""
    x = np.asarray(values, np.float64)
    out = np.empty(x.shape[0], dtype=object)
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = x[lo:lo + _BLOCK_ROWS]
        text, proven = _digit_text(block)
        part = out[lo:lo + block.shape[0]]
        part[:] = text.view(f"U{_WIDTH}").ravel()
        rest = np.flatnonzero(~proven)
        if rest.shape[0]:
            part[rest] = list(map("{:.17g}".format, block[rest].tolist()))
    return out


def format_distinct(values, fmt) -> list[str]:
    """``[fmt(v) for v in values.tolist()]`` for a numeric array, calling
    ``fmt`` once per distinct bit pattern: ``-0.0`` and ``0.0``, and NaNs
    with different payloads, stay apart, so each value keeps its own text."""
    distinct, inverse = _distinct(values)
    strings = np.array([fmt(v) for v in distinct.tolist()], dtype=object)
    return strings[inverse].tolist()


def format_distinct_17g(values) -> np.ndarray:
    """``format_17g`` of a float array, run once per distinct bit pattern
    and gathered, as an object array."""
    distinct, inverse = _distinct(np.asarray(values, np.float64))
    return format_17g(distinct)[inverse]


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of a numeric array, in its dtype, and the
    index of each value among them."""
    values = np.ascontiguousarray(values)
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return distinct.view(values.dtype), inverse.ravel()


def write_rows(fp, pieces, columns) -> None:
    """Write line i as ``pieces[0] + columns[0][i] + pieces[1] + ... +
    columns[-1][i] + pieces[-1]`` for every position of the ``columns``
    string sequences (lists or object arrays, read a block at a time with
    no whole-column copy), stopping at the shortest; ``pieces`` holds one
    literal more than there are columns."""
    width = len(pieces) + len(columns)
    n = min(map(len, columns), default=0)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        parts = [""] * (width * rows)
        for j, piece in enumerate(pieces):
            parts[2 * j::width] = [piece] * rows
        for j, column in enumerate(columns):
            parts[2 * j + 1::width] = column[lo:lo + rows]
        fp.write("".join(parts))
