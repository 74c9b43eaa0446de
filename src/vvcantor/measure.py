"""Level-n cell decompositions and the piecewise-uniform approximating measure.

A decomposition holds the generation-n cells of a tree in left-to-right
order. Each cell carries the exact cumulative weight product as its mass and
a constant density mass/length, so every interval mass query is closed form.
Gaps between consecutive cells carry no mass; zero-length gaps (touching
cells) are dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

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

    level: int
    interval: tuple[float, float]
    lefts: np.ndarray
    rights: np.ndarray
    masses: np.ndarray
    splits: int = 1

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

    @property
    def gap_lefts(self) -> np.ndarray:
        return self.rights[:-1][self._gap_mask]

    @property
    def gap_rights(self) -> np.ndarray:
        return self.lefts[1:][self._gap_mask]


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

    return CellDecomposition(
        level=level, interval=(a, b), lefts=lefts, rights=rights, masses=masses)


def cell_mass(decomposition: CellDecomposition, index: int) -> float:
    """Mass of one cell: the stored cumulative weight product."""
    if not 0 <= index < decomposition.n_cells:
        raise IndexError(f"cell index {index} out of range")
    return float(decomposition.masses[index])


def measure_of_interval(decomposition: CellDecomposition, lo: float, hi: float) -> float:
    """Exact mass of [lo, hi]: density times overlap length, summed."""
    a, b = decomposition.interval
    if not (a <= lo <= hi <= b):
        raise ValueError(f"interval [{lo}, {hi}] must be ordered within [{a}, {b}]")
    overlap = np.minimum(hi, decomposition.rights) - np.maximum(lo, decomposition.lefts)
    np.clip(overlap, 0.0, None, out=overlap)
    return float((decomposition.densities * overlap).sum())


# ---------------------------------------------------------------------------
# CSV export / import

def write_meta(fp, meta: dict | None) -> None:
    """One ``# key=value`` line (LF-terminated) per meta entry."""
    fp.writelines(f"# {key}={value}\n" for key, value in (meta or {}).items())


def write_csv(fp, header: str, row: str, columns, meta: dict | None = None) -> None:
    """The layout of every table output: meta lines, then ``header`` and one
    line per position of the ``columns`` sequences, formatted by the ``row``
    template (``str.format`` fields, ``{:.17g}`` for floats); table lines end
    in CRLF, as ``csv.writer`` ends them.
    """
    write_meta(fp, meta)
    fp.write(f"{header}\r\n")
    fp.writelines(map(f"{row}\r\n".format, *columns))


def cells_to_csv(decomposition: CellDecomposition, fp, meta: dict | None = None) -> None:
    d = decomposition
    write_csv(fp, "left,right,mass,density", "{:.17g},{:.17g},{:.17g},{:.17g}",
              (d.lefts.tolist(), d.rights.tolist(), d.masses.tolist(),
               d.densities.tolist()), meta)


def gaps_to_csv(decomposition: CellDecomposition, fp, meta: dict | None = None) -> None:
    d = decomposition
    write_csv(fp, "left,right", "{:.17g},{:.17g}",
              (d.gap_lefts.tolist(), d.gap_rights.tolist()), meta)


def cells_from_csv(fp, level: int, interval: tuple[float, float],
                   splits: int = 1) -> CellDecomposition:
    """Rebuild a decomposition from its cells CSV; gaps follow from the cells."""
    rows = [r for r in csv.reader(line for line in fp if not line.startswith("#"))]
    body = rows[1:]
    lefts = np.array([float(r[0]) for r in body])
    rights = np.array([float(r[1]) for r in body])
    masses = np.array([float(r[2]) for r in body])
    return CellDecomposition(level=level, interval=interval, lefts=lefts,
                             rights=rights, masses=masses, splits=splits)
