"""Counting functions and individual eigenvalues of tridiagonal pencils.

Everything is built on Sylvester inertia: the number of generalized
eigenvalues of (K, M) at or below x equals the number of nonpositive pivots
in the symmetric factorization of K - x M, which costs O(dim) per shift.
Full spectra are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _kernels
from .assembly import Pencil
from .errors import InvalidInputError
from .measure import write_csv

# Interior points per bracket-shrinking round of the eigenvalue search; one
# batched inertia pass shrinks the bracket 16x.
_LADDER = 15

# Largest |x| times a pencil's mass scale that a count accepts. The counts
# square and multiply shifted entries of about that size, which leave the
# float range past 2**512: the counts would fall as x rises.
MAX_SCALED_MASS = 2.0 ** 500


@dataclass
class CountingSample:
    x: float
    count: int
    bc: str
    provenance: dict


def checked_shifts(xs, mass: float) -> np.ndarray:
    """``xs`` as a 1-d float array, if every shift is finite and |x| times
    ``mass`` stays within ``MAX_SCALED_MASS``; else ``InvalidInputError``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if not np.isfinite(xs).all():
        raise InvalidInputError("NaN or infinite shift passed to inertia count")
    scaled = float(np.abs(xs).max(initial=0.0)) * mass
    if scaled > MAX_SCALED_MASS:
        raise InvalidInputError(
            f"shift times mass {scaled!r} exceeds {MAX_SCALED_MASS!r}: the count would overflow")
    return xs


def inertia_counts(pencil: Pencil, xs) -> np.ndarray:
    """Batched count of eigenvalues <= x for every x in xs; the mass scale
    of ``checked_shifts`` is the largest mass entry."""
    xs = checked_shifts(xs, max(np.abs(pencil.md).max(initial=0.0),
                                np.abs(pencil.mo).max(initial=0.0)))
    if np.isnan(pencil.kd).any() or np.isnan(pencil.md).any():
        raise InvalidInputError("pencil contains NaN entries")
    return _kernels.sturm_counts(pencil.kd, pencil.ko, pencil.md, pencil.mo, xs)


def inertia_count(pencil: Pencil, x: float) -> int:
    return int(inertia_counts(pencil, [x])[0])


def counting_function(pencil: Pencil, xs) -> list[CountingSample]:
    """One inertia count per shift; shifts must be ascending."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.shape[0] == 0:
        raise ValueError("xs must be a non-empty 1-d sequence")
    if (np.diff(xs) < 0).any():
        raise ValueError("xs must be sorted ascending")
    counts = inertia_counts(pencil, xs)
    if (np.diff(counts) < 0).any():
        raise AssertionError("counting function decreased along ascending shifts")
    return [CountingSample(float(x), int(c), pencil.bc, pencil.provenance)
            for x, c in zip(xs, counts)]


def spectral_upper_bound(pencil: Pencil) -> float:
    """Shift with count == dim, from row-wise |K|/(M diagonal dominance)."""
    if pencil.dim == 0:
        return 1.0
    ko_abs = np.abs(pencil.ko)
    k_row = np.abs(pencil.kd).copy()
    k_row[:-1] += ko_abs
    k_row[1:] += ko_abs
    m_row = pencil.md.copy()
    m_row[:-1] -= pencil.mo
    m_row[1:] -= pencil.mo
    np.clip(m_row, 1e-300, None, out=m_row)
    upper = float((k_row / m_row).max()) * (1.0 + 1e-9) + 1e-300
    for _ in range(200):
        if inertia_count(pencil, upper) == pencil.dim:
            return upper
        upper *= 2.0
    raise AssertionError("failed to bracket the spectrum from above")


def eigenvalue(pencil: Pencil, index: int, rtol: float = 1e-10) -> float:
    """The index-th smallest generalized eigenvalue (1-based) by bisection.

    The returned value lies in a bracket [lo, hi] with count(lo) < index
    <= count(hi) and hi - lo <= rtol * hi.
    """
    if not 1 <= index <= pencil.dim:
        raise IndexError(f"eigenvalue index {index} outside 1..{pencil.dim}")
    if inertia_count(pencil, 0.0) >= index:
        return 0.0  # nonnegative spectrum: the eigenvalue is zero
    lo, hi = 0.0, spectral_upper_bound(pencil)
    for _ in range(60):
        if hi - lo <= rtol * hi:
            break
        grid = lo + (hi - lo) * np.arange(1, _LADDER + 1) / (_LADDER + 1)
        counts = inertia_counts(pencil, grid)
        pos = int(np.searchsorted(counts, index))
        # counts[pos] is the first >= index; bracket between neighbours
        new_lo = lo if pos == 0 else float(grid[pos - 1])
        new_hi = hi if pos == _LADDER else float(grid[pos])
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def first_eigenvalue_bounds(catalog, interval=None) -> tuple[float, float]:
    """Universal enclosure of the first pinned-end eigenvalue for measures
    built from the catalog: [1/(b-a), (1-r_inf^2)/((r_inf m_inf (1-r_sup))^2 (b-a))].

    The lower bound holds for every probability measure on [a, b]; the upper
    bound holds for any decomposition of level >= 2 because the test function
    it comes from is piecewise linear on second-level cell endpoints.
    """
    from .catalog import scale_extrema

    ex = scale_extrema(catalog)
    a, b = catalog.interval if interval is None else interval
    lower = 1.0 / (b - a)
    upper = (1.0 - ex.r_inf ** 2) / ((ex.r_inf * ex.m_inf * (1.0 - ex.r_sup)) ** 2 * (b - a))
    return lower, upper


def counting_to_csv(fp, xs, counts_d, counts_n, level: int, splits: int,
                    meta: dict | None = None) -> None:
    write_csv(fp, "x,n_dirichlet,n_neumann,level,splits", "{:.17g},{},{},{},{}",
              (np.asarray(xs, np.float64).tolist(),
               np.asarray(counts_d, np.int64).tolist(),
               np.asarray(counts_n, np.int64).tolist(), repeat(level), repeat(splits)),
              meta)
