"""Text formatting shared by the table writers and ``tree.jsonl``.

The outputs fix their number text by Python's ``format``/``repr``/``str``,
and no vectorized formatter writes the same bytes. But an output column
holds few distinct values (a pencil of 100k rows has a few hundred distinct
stiffness entries and a handful of mass entries; a tree generation has as
many ratio products as distinct map compositions, and a few types), so the
formatter runs once per distinct value and the strings are gathered from
there. A column whose values are all distinct is not sent through it: the
cell ends of a decomposition are formatted once per decomposition
(``CellDecomposition.endpoint_text``) and shared by ``cells.csv`` and
``gaps.csv``, and ``tree.jsonl`` paths are gathered from the parents' paths.
Lines are then joined a block of rows at a time, with one ``str.join`` over
the interleaved cells and literal pieces; a column is any sequence of
strings, a list or an object array.
"""

from __future__ import annotations

import numpy as np

# Rows per ``write`` of ``write_rows``: bounds the interleaved list and the
# joined text while keeping the per-block overhead small.
_BLOCK_ROWS = 4096


def format_distinct(values, fmt) -> list[str]:
    """``[fmt(v) for v in values.tolist()]`` for a numeric array, calling
    ``fmt`` once per distinct bit pattern: ``-0.0`` and ``0.0``, and NaNs
    with different payloads, stay apart, so each value keeps its own text."""
    values = np.ascontiguousarray(values)
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    strings = np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return strings[inverse].tolist()


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
