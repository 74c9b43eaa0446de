"""Dirichlet and Neumann counts of a tree's pencil by hierarchical condensation.

Every node of one generation and one type has the same subtree below it
(``vtree``), and a node with ratio product r and weight product m carries
``K - x M = (1/r) (K̂ - x r m M̂)``, where ``(K̂, M̂)`` is the pencil of
its subtree mapped onto the base interval ``[a, b]``. So the part of the
pencil below a node depends only on the node's *key*: its generation, its
type and the integer exponent vector of its product ``r m`` over the
catalog's distinct map values ``r_i m_i``. Eliminating every mesh node
inside a subtree leaves a 2x2 Schur complement on its two outer nodes, and
by Haynsworth inertia additivity the count of ``K - x M`` is the number of
nonpositive pivots eliminated plus the inertia of what is left. So this
module condenses each key once, bottom-up, with one numpy step per
generation and map slot over all keys of the generation and a chunk of
shifts, instead of scanning every row of the assembled pencil: a
two_system_v2 tree of 80k cells has about 50 keys.

A complement ``[[κ + σ_L, -κ], [-κ, κ + σ_R]]`` is stored as its coupling
κ and its row sums σ_L, σ_R, never as its entries:

- A leaf sub-element of length h and mass μ at shift x̂ is
  ``κ = 1/h + x̂μ/6``, ``σ_L = σ_R = -x̂μ/2``. A leaf cell is a chain of
  ``splits`` of them, with ``h = (b - a)/splits`` and ``μ = 1/splits``.
- A gap of length ℓ is ``κ = 1/ℓ``, ``σ = 0``. A gap at or below
  ``measure.touching_tol``, the tolerance of ``measure.decompose``, joins
  its neighbours directly.
- Child i of a node at shift x̂ is its key's complement at ``x̂ r_i m_i``,
  divided by ``r_i``. The mesh of a subtree runs from its first cell's left
  end to its last cell's right end; these end insets depend only on the
  generation and the type, and are tracked, so a catalog whose first map
  starts inside the interval still gets its exact gaps.
- Joining A then B at their shared node, with ``s = σ_AR + σ_BL``, the
  node's pivot is ``p = κ_A + κ_B + s``; it counts when ``p <= 0``. Then
  ``κ = κ_A κ_B / p``, ``σ_L = σ_AL + κ_A s/p``, ``σ_R = σ_BR + κ_B s/p``.
- N_D is the count of the root's interior nodes. N_N adds the nonpositive
  pivots of the root's 2x2: ``p1 = κ + σ_L`` and ``p2 = det/p1``, with
  ``det = κ(σ_L + σ_R) + σ_L σ_R``. An exact 0 counts and ``p1 = 0`` is
  replaced by ``-(1e-300 + eps (|κ| + |σ_L|))``, so that a tie
  "eigenvalue == x" counts as ``<= x``, as in ``_kernels``.
- A join pivot within ``_NEAR`` (2^-20) of 0, relative to
  ``|κ_A| + |κ_B| + |s|``, is a near-pole of the complement: its entries
  grow like 1/p and cancel at a later join, taking the digits of the rest
  with them. The row recurrence handles such a pivot (the next one is
  huge and absorbs it), so the shifts where one occurs, exact ties among
  them, are recounted by ``_kernels.sturm_counts`` on the assembled
  pencils. That is rare: 11 of 18,576 shifts on trees of a catalog of
  twelve distinct ``r m`` values, none of 12,192 on the shipped configs.

Why row sums: where ``x̂μ`` is far below ``1/h``, the entries of a
complement carry the shift only as a relative perturbation of about
``x̂μh`` of the singular block ``κ [[1, -1], [-1, 1]]``, and products of
such blocks round it away; that is how a blocked transfer-matrix scan got
wrong counts. The row sums carry the mass terms directly, since stiffness
adds nothing to them. The only cancellation left is in the pivots ``p``,
``p1`` and ``p2``, whose signs are the counts, and ``det`` is formed
without the cancellation of ``(κ + σ_L)(κ + σ_R) - κ²``. This is the
accurate parametrization of diagonally dominant matrices by their
off-diagonals and row sums (Demmel & Koev 2004). The counts equal the row
recurrence of ``_kernels.sturm_counts`` on the assembled pencil except at
shifts within rounding of an eigenvalue.

Apart from that recount, only the environment table is read. A count is
at most the number of mesh nodes of the materialized ``level``, so it
cannot overflow int64.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .assembly import DIRICHLET, NEUMANN, assemble, refine_uniform
from .catalog import map_table
from .eigensolve import checked_shifts
from .errors import DepthExhaustedError, InvalidInputError, TreeTooLargeError
from .measure import decompose, touching_tol
from .vtree import DEFAULT_NODE_CAP, VTree


# A join pivot within this fraction of its terms of 0 puts a term about
# 1/p into the complement, which cancels at a later join and leaves the
# rest with a relative error of about eps / _NEAR: the shift is recounted
# on the assembled pencils.
_NEAR = 2.0 ** -20


def _join(a, b, unsure):
    """A then B joined at their shared node: ``(κ, σ_L, σ_R, count)``.
    Marks in ``unsure`` the shifts at which the node's pivot is within
    ``_NEAR`` of 0, relative to the terms that make it."""
    ka, la, ra, ca = a
    kb, lb, rb, cb = b
    s = ra + lb
    p = ka + kb + s
    count = ca + cb + (p <= 0.0)
    scale = np.abs(ka) + np.abs(kb) + np.abs(s)
    near = np.abs(p) <= _NEAR * scale
    if near.any():
        unsure |= near.any(axis=0)
        p = np.where(near, scale, p)  # any finite value: these shifts are recounted
    return ka * kb / p, la + ka * s / p, rb + kb * s / p, count


def _join_rows(acc, rows, b, unsure) -> None:
    """``acc[rows]`` joined with B, in place."""
    for a, new in zip(acc, _join([a[rows] for a in acc], b, unsure)):
        a[rows] = new


def _children(below, keys, ratio):
    """The complements of the keys ``keys`` of the generation below,
    divided by their map ratios ``ratio``."""
    k, l, r, c = below
    ratio = ratio[:, None]
    return [k[keys] / ratio, l[keys] / ratio, r[keys] / ratio, c[keys]]


def _rows(rows, n: int):
    """``rows`` of ``n``, as a slice when it is all of them (a view, not a copy)."""
    return slice(None) if rows.shape[0] == n else rows


def _unique_rows(rows):
    """The first index of each distinct row of the nonnegative ``rows``, in
    row order, and the number of each row's distinct row."""
    rows = rows.astype(np.min_scalar_type(rows.max()), copy=False)
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ordered = rows[order]
    new = np.ones(order.shape[0], bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _plan(tree: VTree, level: int) -> list:
    """Keys of generations 0 .. ``level``, top-down. Each generation above
    ``level`` is ``(first, joins)``: ``first = (keys, ratio)``, the child
    in slot 0 of every key, and per slot i >= 1 ``(rows, gapped,
    gap_kappa, keys, ratio)``, the keys of the generation that have slot
    i, those of them with a gap before it and its ``1/ℓ``, and the child
    in slot i. ``level`` itself is its keys' products ``r m``."""
    catalog = tree.catalog
    a, b = catalog.lower, catalog.upper
    tol = touching_tol(a, b)
    table = map_table(catalog)
    real = table[..., 0] > 0.0
    rm = table[..., 0] * table[..., 1]
    code = np.zeros(rm.shape, np.intp)  # index of each map's r m among the distinct values
    code[real] = np.unique(rm[real], return_inverse=True)[1].reshape(-1)
    last = real.sum(axis=1) - 1

    # left[t, i] and right[t, i]: where the first and the last cell below
    # slot i of a type-t node start and end, in the node's coordinates;
    # bottom-up from the leaf cells, whose insets are 0.
    ends = [None] * level
    inset_l = inset_r = np.zeros(tree.v_types)
    for g in reversed(range(level)):
        sys_, child = tree.level_sys[g], tree.child[g]
        r, c = table[sys_, :, 0], table[sys_, :, 2]
        left = r * (a + inset_l[child]) + c
        right = r * (b - inset_r[child]) + c
        inset_l = left[:, 0] - a
        inset_r = b - right[np.arange(tree.v_types), last[sys_]]
        ends[g] = left, right

    types = np.array([tree.root_type], np.intp)
    expo = np.zeros((1, int(code.max()) + 1), np.int64)
    prods = np.ones(1)
    plan = []
    for g in range(level):
        sys_ = tree.level_sys[g][types]
        has = real[sys_]
        key, slot = np.nonzero(has)  # key-major, slots in order
        rows = np.column_stack((tree.child[g][types[key], slot], expo[key]))
        rows[np.arange(key.shape[0]), 1 + code[sys_[key], slot]] += 1
        first, inverse = _unique_rows(rows)
        children = np.zeros(has.shape, np.intp)
        children[key, slot] = inverse
        ratio = table[sys_, :, 0]

        left, right = ends[g]
        gaps = left[types, 1:] - right[types, :-1]
        overlap = has[:, 1:] & (gaps < -tol)
        if overlap.any():
            raise InvalidInputError(
                f"consecutive cells overlap by {-float(gaps[overlap].min())!r} of the "
                f"interval of a generation-{g} node")
        joins = []
        for i in range(1, has.shape[1]):
            rows_i = np.flatnonzero(has[:, i])
            if rows_i.shape[0]:
                gap = gaps[rows_i, i - 1]
                wide = gap > tol
                joins.append((_rows(rows_i, has.shape[0]), _rows(rows_i[wide], has.shape[0]),
                              (1.0 / gap[wide])[:, None], children[rows_i, i],
                              ratio[rows_i, i]))
        plan.append(((children[:, 0], ratio[:, 0]), joins))

        prods = prods[key[first]] * rm[sys_[key[first]], slot[first]]
        types, expo = rows[first, 0], rows[first, 1:]
    plan.append(prods)
    return plan


def _chunk_counts(plan, h: float, splits: int, xs) -> tuple[np.ndarray, ...]:
    """N_D and N_N at the shifts ``xs``, one bottom-up pass, and which
    shifts met a join pivot near 0."""
    xm = plan[-1][:, None] * xs * (1.0 / splits)
    sigma = -xm / 2.0
    leaf = (1.0 / h + xm / 6.0, sigma, sigma, np.zeros(xm.shape, np.int64))
    unsure = np.zeros(xs.shape[0], bool)
    below = leaf
    for _ in range(splits - 1):
        below = _join(below, leaf, unsure)
    for (keys, ratio), joins in reversed(plan[:-1]):
        acc = _children(below, keys, ratio)
        for rows, gapped, gap_kappa, slot_keys, slot_ratio in joins:
            if gap_kappa.shape[0]:
                _join_rows(acc, gapped, (gap_kappa, 0.0, 0.0, 0), unsure)
            _join_rows(acc, rows, _children(below, slot_keys, slot_ratio), unsure)
        below = acc
    k, l, r, nd = (v[0] for v in below)
    p1 = k + l
    zero = p1 == 0.0
    p1 = np.where(zero, -(1e-300 + _kernels._EPS * (np.abs(k) + np.abs(l))), p1)
    p2 = (k * (l + r) + l * r) / p1
    return nd, nd + (p1 <= 0.0) + (p2 <= 0.0), unsure


def condensed_counts(tree: VTree, level: int, splits: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """N_D and N_N of ``tree``'s Dirichlet and Neumann pencils at ``level``
    (plus ``splits`` uniform splits of every cell) at the shifts ``xs``:
    the counts of ``_kernels.sturm_counts`` on those pencils, by
    condensation. Shifts are counted in chunks of at most ``_kernels._CHUNK``
    keys x shifts per generation.

    Raises, as ``measure.decompose`` and ``assembly.refine_uniform`` do,
    ``DepthExhaustedError`` past the tree's depth, ``TreeTooLargeError``
    for a refinement past the node cap and ``InvalidInputError`` for
    overlapping cells (measured in the local coordinates of their parent,
    so deep debris overlaps that ``decompose`` clamps raise here too), and
    ``InvalidInputError`` for a shift that is not finite or whose absolute
    value passes ``eigensolve.MAX_SCALED_MASS``: the root's row sums carry
    x times the measure's mass, 1."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > tree.depth:
        raise DepthExhaustedError(
            f"tree materialized to depth {tree.depth}, requested level {level}",
            extra_depth_hint=level - tree.depth)
    if splits < 1:
        raise ValueError("splits must be >= 1")
    cells = tree.generations[level].size
    if splits > 1 and cells * splits > DEFAULT_NODE_CAP:
        raise TreeTooLargeError(f"refinement would create {cells * splits} cells")
    xs = checked_shifts(xs, 1.0)
    plan = _plan(tree, level)
    widest = max([plan[-1].shape[0]] + [keys.shape[0] for (keys, _), _ in plan[:-1]])
    step = max(1, _kernels._CHUNK // widest)
    h = (tree.catalog.upper - tree.catalog.lower) / splits
    nd, nn = np.zeros((2, xs.shape[0]), np.int64)
    unsure = np.zeros(xs.shape[0], bool)
    for lo in range(0, xs.shape[0], step):
        nd[lo:lo + step], nn[lo:lo + step], unsure[lo:lo + step] = _chunk_counts(
            plan, h, splits, xs[lo:lo + step])
    if unsure.any():
        dec = refine_uniform(decompose(tree, level), splits)
        for counts, bc in ((nd, DIRICHLET), (nn, NEUMANN)):
            pencil = assemble(dec, bc)
            counts[unsure] = _kernels.sturm_counts(pencil.kd, pencil.ko, pencil.md,
                                                   pencil.mo, xs[unsure])
    return nd, nn
