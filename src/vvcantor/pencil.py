"""Piecewise-linear Ritz pencils of the energy/mass form pair, and their
eigenvalue counts and eigenvalues.

The mesh is the deduplicated sorted set of cell endpoints; gaps become
elements of zero density. Per element of length h and constant density rho
the stiffness block is (1/h) [[1,-1],[-1,1]] and the mass block
rho*h [[1/3,1/6],[1/6,1/3]]. Stiffness integrates over the whole interval
(gaps included) while mass sees only the cells, and the Dirichlet variant
removes the two boundary rows/columns. Eigenvalues of K u = lambda M u are
then upper bounds of the corresponding operator eigenvalues for the
piecewise-uniform measure, because the hat-function space is conforming and
all element integrals are exact.

Everything read from a pencil is built on Sylvester inertia: the number of
generalized eigenvalues of (K, M) at or below x equals the number of
nonpositive pivots in the symmetric factorization of K - x M, which costs
O(dim) per shift (``_kernels.sturm_counts``). Full spectra are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .catalog import scale_extrema
from .errors import InvalidInputError, SingularMassError, TreeTooLargeError
from .measure import CellDecomposition, write_csv
from .vtree import DEFAULT_NODE_CAP

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Interior points per bracket-shrinking round of the eigenvalue search; one
# batched inertia pass shrinks the bracket 16x.
_LADDER = 15


@dataclass
class Pencil:
    """Symmetric tridiagonal stiffness/mass pair on a fixed mesh."""

    kd: np.ndarray
    ko: np.ndarray
    md: np.ndarray
    mo: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.kd.shape[0])


# ---------------------------------------------------------------------------
# Assembly

def refine_uniform(decomposition: CellDecomposition, splits: int) -> CellDecomposition:
    """Split every cell into ``splits`` equal sub-cells of the same density.

    Masses and all interval measures are unchanged; the mesh on cells gets
    ``splits`` times finer. ``splits == 1`` returns the input unchanged.
    """
    if splits < 1:
        raise ValueError("splits must be >= 1")
    if splits == 1:
        return decomposition
    n = decomposition.n_cells
    if n * splits > DEFAULT_NODE_CAP:
        raise TreeTooLargeError(f"refinement would create {n * splits} cells")
    lengths = decomposition.rights - decomposition.lefts
    frac = np.arange(splits + 1) / splits
    edges = decomposition.lefts[:, None] + lengths[:, None] * frac[None, :]
    edges[:, 0] = decomposition.lefts   # guard fp drift at the
    edges[:, -1] = decomposition.rights  # original endpoints
    return CellDecomposition(
        interval=decomposition.interval,
        lefts=edges[:, :-1].ravel(),
        rights=edges[:, 1:].ravel(),
        masses=np.repeat(decomposition.masses / splits, splits))


def assemble(decomposition: CellDecomposition, bc: str) -> Pencil:
    """Assemble the tridiagonal pencil for the given boundary condition."""
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"bc must be {DIRICHLET!r} or {NEUMANN!r}")
    if decomposition.n_cells < 1:
        raise ValueError("decomposition has no cells")

    # Interleave cell and gap elements in mesh order. Gap bounds coincide
    # with cell endpoints, so nodes are cell endpoints with touching cells
    # deduplicated (their shared endpoint appears once).
    cl, cr = decomposition.lefts, decomposition.rights
    rho = decomposition.densities
    n = decomposition.n_cells
    starts = np.empty(2 * n - 1)
    ends = np.empty(2 * n - 1)
    dens = np.zeros(2 * n - 1)
    starts[0::2] = cl
    ends[0::2] = cr
    dens[0::2] = rho
    if n > 1:
        starts[1::2] = cr[:-1]
        ends[1::2] = cl[1:]
    keep = ends > starts
    keep[0::2] = True  # cells always kept; only zero-length gaps drop out
    starts, ends, dens = starts[keep], ends[keep], dens[keep]

    h = ends - starts
    inv_h = 1.0 / h
    nn = h.shape[0] + 1

    kd = np.zeros(nn)
    kd[:-1] += inv_h
    kd[1:] += inv_h
    ko = -inv_h
    md = np.zeros(nn)
    md[:-1] += dens * h / 3.0
    md[1:] += dens * h / 3.0
    mo = dens * h / 6.0

    if bc == DIRICHLET:
        kd, ko, md, mo = kd[1:-1], ko[1:-1], md[1:-1], mo[1:-1]

    pencil = Pencil(kd=kd, ko=ko, md=md, mo=mo)
    _check_mass_definite(pencil)
    return pencil


def _check_mass_definite(pencil: Pencil) -> None:
    """M is a sum of element blocks rho*h*[[1/3,1/6],[1/6,1/3]] with
    rho*h >= 0, each positive semidefinite, so x^T M x >= (1/2) sum md_i x_i^2
    and M is positive definite exactly when every row has md > 0 (NaN fails).
    """
    ok = pencil.md > 0
    if not ok.all():
        node = int(np.argmin(ok))  # first failing row
        raise SingularMassError(
            f"mass matrix is not positive definite near node {node}", node=node)


def pencil_to_csv(pencil: Pencil, fp, meta: dict | None = None) -> None:
    """Rows (i, K_diag, K_off, M_diag, M_off); the last off entries are 0."""
    write_csv(fp, "i,k_diag,k_off,m_diag,m_off",
              (np.arange(pencil.dim), pencil.kd, np.append(pencil.ko, 0.0),
               pencil.md, np.append(pencil.mo, 0.0)), meta)


# ---------------------------------------------------------------------------
# Counts and eigenvalues

def inertia_counts(pencil: Pencil, xs) -> np.ndarray:
    """Batched count of eigenvalues <= x for every x in xs; the mass scale
    of ``_kernels.checked_shifts`` is the largest mass entry."""
    xs = _kernels.checked_shifts(xs, max(np.abs(pencil.md).max(initial=0.0),
                                         np.abs(pencil.mo).max(initial=0.0)))
    if np.isnan(pencil.kd).any() or np.isnan(pencil.md).any():
        raise InvalidInputError("pencil contains NaN entries")
    return _kernels.sturm_counts(pencil.kd, pencil.ko, pencil.md, pencil.mo, xs)


def inertia_count(pencil: Pencil, x: float) -> int:
    return int(inertia_counts(pencil, [x])[0])


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


def first_eigenvalue_bounds(catalog) -> tuple[float, float]:
    """Universal enclosure of the first pinned-end eigenvalue for measures
    built from the catalog: [1/(b-a), (1-r_inf^2)/((r_inf m_inf (1-r_sup))^2 (b-a))].

    The lower bound holds for every probability measure on [a, b]; the upper
    bound holds for any decomposition of level >= 2 because the test function
    it comes from is piecewise linear on second-level cell endpoints.
    """
    ex = scale_extrema(catalog)
    a, b = catalog.interval
    lower = 1.0 / (b - a)
    upper = (1.0 - ex.r_inf ** 2) / ((ex.r_inf * ex.m_inf * (1.0 - ex.r_sup)) ** 2 * (b - a))
    return lower, upper
