"""Piecewise-linear Ritz pencils of the energy/mass form pair, and their
eigenvalue counts.

The mesh is the deduplicated sorted set of cell endpoints; gaps become
elements of zero density. Per element of length h and constant density rho
the stiffness block is (1/h) [[1,-1],[-1,1]] and the mass block
rho*h [[1/3,1/6],[1/6,1/3]]. Stiffness integrates over the whole interval
(gaps included) while mass sees only the cells, and the Dirichlet variant
removes the two boundary rows/columns. Eigenvalues of K u = lambda M u are
then upper bounds of the corresponding operator eigenvalues for the
piecewise-uniform measure, because the hat-function space is conforming and
all element integrals are exact.

A pencil is read only through counts, by Sylvester inertia: the number of
generalized eigenvalues of (K, M) at or below x equals the number of
nonpositive pivots in the symmetric factorization of K - x M, which costs
O(dim) per shift (``_kernels.sturm_counts``). Full spectra are never formed.
The pencil serves ``count``'s ``pencil_dirichlet.csv`` and is the test
oracle of the condensed counts (``condense``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError, SingularMassError, TreeTooLargeError
from .measure import CellDecomposition, write_csv
from .vtree import DEFAULT_NODE_CAP

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


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
        raise SingularMassError(f"mass matrix is not positive definite near node {node}")


def pencil_to_csv(pencil: Pencil, fp, meta: dict | None = None) -> None:
    """Rows (i, K_diag, K_off, M_diag, M_off); the last off entries are 0."""
    write_csv(fp, "i,k_diag,k_off,m_diag,m_off",
              (np.arange(pencil.dim), pencil.kd, np.append(pencil.ko, 0.0),
               pencil.md, np.append(pencil.mo, 0.0)), meta)


# ---------------------------------------------------------------------------
# Counts

def inertia_counts(pencil: Pencil, xs) -> np.ndarray:
    """Batched count of eigenvalues <= x for every x in xs; the mass scale
    of ``_kernels.checked_shifts`` is the largest mass entry."""
    xs = _kernels.checked_shifts(xs, max(np.abs(pencil.md).max(initial=0.0),
                                         np.abs(pencil.mo).max(initial=0.0)))
    if np.isnan(pencil.kd).any() or np.isnan(pencil.md).any():
        raise InvalidInputError("pencil contains NaN entries")
    return _kernels.sturm_counts(pencil.kd, pencil.ko, pencil.md, pencil.mo, xs)
