"""Level-n cell decompositions and the piecewise-uniform approximating measure.

A decomposition holds the generation-n cells of a tree in left-to-right
order. Each cell carries the exact cumulative weight product as its mass and
a constant density mass/length, so the mass of every interval is closed form.
Gaps between consecutive cells carry no mass; zero-length gaps (touching
cells) are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._format import column_text, float_rows, trim, write_table
from .errors import DepthExhaustedError, InvalidInputError
from .vtree import VTree

# Consecutive cells overlapping by more than this many ulps of the base
# interval indicate broken input; smaller overlaps and gaps are rounding
# debris from composing affine maps and get clamped to touching. A debris gap
# kept as an element would put 1/h ~ 1e16 into the stiffness matrix and spoil
# the inertia counts.
_OVERLAP_ULPS = 64


def touching_tol(a: float, b: float) -> float:
    """Gaps and overlaps up to this length count as touching on ``[a, b]``."""
    return _OVERLAP_ULPS * np.finfo(float).eps * max(abs(a), abs(b), b - a)


@dataclass
class CellDecomposition:
    """Ordered cells and gaps of one tree generation (or a refinement)."""

    interval: tuple[float, float]
    lefts: np.ndarray
    rights: np.ndarray
    masses: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.lefts.shape[0])

    @property
    def densities(self) -> np.ndarray:
        return self.masses / (self.rights - self.lefts)

    @property
    def _gap_mask(self) -> np.ndarray:
        """True between consecutive cells that do not touch."""
        return self.lefts[1:] > self.rights[:-1]

    @cached_property
    def endpoint_text(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``.17g`` text of every left and every right end, as two
        (n, w) uint8 matrices of NUL-padded ASCII (see ``_format``) that
        ``cells_to_csv`` and ``gaps_to_csv`` both read. Each left is
        formatted once. A right end with the bit pattern of the next cell's
        left reuses its row; bits, not values, so a ``-0.0`` end touching
        ``0.0`` keeps its own text. Only the other right ends are
        formatted. Computed on first use: the end arrays must not change
        after it."""
        lefts = np.asarray(self.lefts, np.float64)
        rights = np.asarray(self.rights, np.float64)
        left_text = float_rows(lefts)
        shared = np.zeros(left_text.shape[0], bool)
        shared[:-1] = rights[:-1].view(np.uint64) == lefts[1:].view(np.uint64)
        right_text = np.empty_like(left_text)
        right_text[shared] = left_text[1:][shared[:-1]]
        right_text[~shared] = float_rows(rights[~shared])
        return trim(left_text), trim(right_text)


def decompose(tree: VTree, level: int) -> CellDecomposition:
    """Cells of generation ``level`` with exact affine-composed endpoints."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > tree.depth:
        raise DepthExhaustedError(
            f"tree materialized to depth {tree.depth}, requested level {level}",
            extra_depth_hint=level - tree.depth)
    a, b = tree.catalog.lower, tree.catalog.upper
    gen = tree.generations[level]
    lefts = gen.rprod * a + gen.shift
    rights = gen.rprod * b + gen.shift
    masses = gen.mprod.copy()

    gaps = lefts[1:] - rights[:-1]
    tol = touching_tol(a, b)
    if (gaps < -tol).any():
        worst = float(gaps.min())
        raise InvalidInputError(
            f"consecutive cells overlap by {-worst!r} at level {level}")
    clamp = (gaps != 0) & (gaps <= tol)
    if clamp.any():  # rounding debris from affine composition: snap to touching
        lefts = lefts.copy()
        lefts[1:][clamp] = rights[:-1][clamp]

    return CellDecomposition(interval=(a, b), lefts=lefts, rights=rights, masses=masses)


# ---------------------------------------------------------------------------
# CSV export

def write_meta(fp, meta: dict | None) -> None:
    """One ``# key=value`` line (LF-terminated) per meta entry."""
    fp.writelines(f"# {key}={value}\n" for key, value in (meta or {}).items())


def write_csv(fp, header: str, columns, meta: dict | None = None) -> None:
    """The layout of every table output: meta lines, then ``header`` and one
    line per position of the ``columns`` arrays, comma separated, stopping
    at the shortest; table lines end in CRLF, as ``csv.writer`` ends them.
    Each column becomes a uint8 text matrix (``_format.column_text``):
    floats with 17 significant digits (``.17g``), each distinct value
    formatted once, and integers as ``str`` writes them. A 2-D uint8
    column is text already (the cell ends of
    ``CellDecomposition.endpoint_text``) and is written as it is.
    ``_format.write_table`` writes the lines.
    """
    texts = [column_text(col) for col in columns]
    write_meta(fp, meta)
    fp.write(f"{header}\r\n")
    write_table(fp, texts)


def cells_to_csv(decomposition: CellDecomposition, fp, meta: dict | None = None) -> None:
    """One line per cell: its ends, from the decomposition's shared
    ``endpoint_text``, then its mass and density."""
    d = decomposition
    write_csv(fp, "left,right,mass,density", (*d.endpoint_text, d.masses, d.densities), meta)


def gaps_to_csv(decomposition: CellDecomposition, fp, meta: dict | None = None) -> None:
    """One line per gap. Gap ends are cell ends, so their text is gathered
    from the shared ``endpoint_text`` and nothing is formatted again: the
    endpoints are formatted once per decomposition, whichever of the two
    writers runs first."""
    d = decomposition
    left_text, right_text = d.endpoint_text
    gaps = np.flatnonzero(d._gap_mask)
    write_csv(fp, "left,right", (np.take(right_text, gaps, axis=0),
                                 np.take(left_text, gaps + 1, axis=0)), meta)


def counting_to_csv(fp, xs, counts_d, counts_n, level: int, splits: int,
                    meta: dict | None = None) -> None:
    xs = np.asarray(xs, np.float64)
    write_csv(fp, "x,n_dirichlet,n_neumann,level,splits",
              (xs, np.asarray(counts_d, np.int64), np.asarray(counts_n, np.int64),
               np.full(xs.shape, level), np.full(xs.shape, splits)), meta)
