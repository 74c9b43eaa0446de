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
  ``splits`` of them (``h = (b - a)/splits``, ``μ = 1/splits``), built by
  doubling in O(log splits) joins.
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
  with them. The shifts where one occurs, exact zeros among them, are
  counted again by the same plan and the same joins on ``decimal.Decimal``
  arrays at precision ``_PRECISION`` (100 digits), from the same numbers
  (``Decimal(float)`` is exact). There a pivot of exactly 0 is a tie: it
  counts and is replaced by ``-(1e-300 + 10^-70 (|κ_A| + |κ_B| + |s|))``,
  as the row recurrence replaces one. A nonzero pivot still within 10^-50
  of its terms raises ``InvalidInputError`` naming the shift, never a
  guess. That is rare: 11 of 18,576 shifts on trees of a catalog of
  twelve distinct ``r m`` values, none of 12,192 on the shipped configs,
  and about one in 10^4 at level 60 of two_system_v2.

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

Only the environment table is read, never a node, so ``level`` may lie
below the materialized generations, and nothing bounds a count by a
materialized mesh. Three checks take the place of that bound:

- Every join adds two counts below 2^63 and a pivot's 0 or 1, so a
  negative sum is an exact sign that a count passed 2^63 - 1, which
  raises ``InvalidInputError`` (two_system_v2 at level 60 passes it by
  x = 1e50).
- The keys, summed over the generations, are capped at
  ``vtree.DEFAULT_NODE_CAP`` (``TreeTooLargeError``). Keys never
  outnumber nodes, so every level that can be materialized counts. They
  grow about with the square of the level: 1,494 at level 60 and 371,864
  at level 1,000 on a two_system_v2 tree.
- A leaf's shift ``x r m / splits`` below the smallest normal float,
  ``sys.float_info.min``, for a nonzero x raises ``InvalidInputError``:
  past it the leaf masses underflow and the counts fall to those of a
  massless pencil (two_system_v2 from about level 294 at x = 2, Cantor
  from level 400 at x = 1000). Products ``r m`` only shrink with depth, so
  planning raises at the first generation past the floor, before any end
  inset or gap is computed.
"""

from __future__ import annotations

import sys
from decimal import Context, Decimal, localcontext

import numpy as np

from . import _kernels
from .catalog import map_table, real_slots
from .errors import DepthExhaustedError, InvalidInputError, TreeTooLargeError
from .measure import touching_tol
from .vtree import DEFAULT_NODE_CAP, VTree


# A join pivot within this fraction of its terms of 0 puts a term about
# 1/p into the complement, which cancels at a later join and leaves the
# rest with a relative error of about eps / _NEAR: the shift is counted
# again in decimal, where the same error is about 10^-_PRECISION / _DECIMAL_NEAR.
_NEAR = 2.0 ** -20
_PRECISION = 100
_DECIMAL_NEAR = Decimal("1e-50")
# The tie replacement ``-(tiny + rel * scale)`` of an exact-zero pivot,
# indexed by ``dtype == object``: the row recurrence's in float, a
# relative 10^-70, far below the decimal near threshold, in decimal.
_TIES = ((1e-300, _kernels._EPS), (Decimal("1e-300"), Decimal("1e-70")))


def _unwrapped(count):
    """``count``, a sum of counts below 2^63 and at most 2, which is negative
    exactly where it wrapped past 2^63 - 1; ``InvalidInputError`` then."""
    if (count < 0).any():
        raise InvalidInputError("a count passes 2^63 - 1 at these shifts")
    return count


def _tie(p, scale):
    """``p`` with each exact 0 replaced by a negative value far below
    ``scale``, so that a tie "eigenvalue == x" counts as ``<= x``."""
    tiny, rel = _TIES[p.dtype == object]
    return np.where(p == 0, -(tiny + rel * scale), p)


def _join(a, b, unsure):
    """A then B joined at their shared node: ``(κ, σ_L, σ_R, count)``, on
    float arrays or on ``Decimal`` object arrays. Marks in ``unsure`` the
    shifts at which the node's pivot is within ``_NEAR`` of 0 (float, an
    exact 0 too) or is nonzero within ``_DECIMAL_NEAR`` of 0 (decimal, where
    an exact 0 is a tie), relative to the terms that make it."""
    ka, la, ra, ca = a
    kb, lb, rb, cb = b
    s = ra + lb
    p = ka + kb + s
    count = _unwrapped(ca + cb + (p <= 0))
    scale = np.abs(ka) + np.abs(kb) + np.abs(s)
    if p.dtype == object:
        near = (p != 0) & (np.abs(p) <= _DECIMAL_NEAR * scale)
        p = _tie(p, scale)
    else:
        near = np.abs(p) <= _NEAR * scale
    if near.any():
        unsure |= near.any(axis=0)
        p = np.where(near, scale, p)  # any nonzero value: these shifts are counted again
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


def _plan(tree: VTree, level: int, xmin: float, splits: int) -> list:
    """Keys of generations 0 .. ``level``, top-down. Each generation above
    ``level`` is ``(first, joins)``: ``first = (keys, ratio)``, the child
    in slot 0 of every key, and per slot i >= 1 ``(rows, gapped,
    gap_kappa, keys, ratio)``, the keys of the generation that have slot
    i, those of them with a gap before it and its ``1/ℓ``, and the child
    in slot i. ``level`` itself is its keys' products ``r m``. Raises at
    the first generation whose leaf shift at ``xmin`` (inf for none)
    underflows, or past the key cap, before any end inset or gap is
    computed."""
    catalog = tree.catalog
    a, b = catalog.lower, catalog.upper
    tol = touching_tol(a, b)
    table, real = map_table(catalog), real_slots(catalog)
    rm = table[..., 0] * table[..., 1]
    code = np.zeros(rm.shape, np.intp)  # index of each map's r m among the distinct values
    code[real] = np.unique(rm[real], return_inverse=True)[1].reshape(-1)

    types = np.array([tree.root_type], np.intp)
    expo = np.zeros((1, int(code.max()) + 1), np.int64)
    prods = np.ones(1)
    keyed, n_keys = [], 1  # per generation above level: (types, has, children, ratio)
    for g in range(level + 1):
        leaf = float(prods.min()) * xmin * (1.0 / splits)
        if leaf < sys.float_info.min:
            raise InvalidInputError(
                f"a leaf shift at level {level} is {leaf!r} by generation {g}, below the "
                "smallest normal float: the leaf masses underflow")
        if g == level:
            break
        sys_ = tree.level_sys[g][types]
        has = real[sys_]
        key, slot = np.nonzero(has)  # key-major, slots in order
        rows = np.column_stack((tree.child[g][types[key], slot], expo[key]))
        rows[np.arange(key.shape[0]), 1 + code[sys_[key], slot]] += 1
        first, inverse = _unique_rows(rows)
        n_keys += first.shape[0]
        if n_keys > DEFAULT_NODE_CAP:
            raise TreeTooLargeError(
                f"condensing needs more than {DEFAULT_NODE_CAP} keys by generation {g + 1}")
        children = np.zeros(has.shape, np.intp)
        children[key, slot] = inverse
        keyed.append((types, has, children, table[sys_, :, 0]))
        prods = prods[key[first]] * rm[sys_[key[first]], slot[first]]
        types, expo = rows[first, 0], rows[first, 1:]

    # left[t, i] and right[t, i]: where the first and the last cell below
    # slot i of a type-t node start and end, in the node's coordinates;
    # bottom-up from the leaf cells, whose insets are 0.
    last = real.sum(axis=1) - 1
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

    plan = []
    for g, (types, has, children, ratio) in enumerate(keyed):
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
    plan.append(prods)
    return plan


def _decimal(plan) -> list:
    """``plan`` with its float arrays as ``Decimal`` object arrays of the
    same values (``Decimal(float)`` is exact)."""
    exact = np.frompyfunc(Decimal, 1, 1)
    return [((keys, exact(ratio)), [(rows, gapped, exact(gap_kappa), slot_keys, exact(slot_ratio))
                                    for rows, gapped, gap_kappa, slot_keys, slot_ratio in joins])
            for (keys, ratio), joins in plan[:-1]] + [exact(plan[-1])]


def _chunk_counts(plan, h, mu, splits: int, xs) -> tuple[np.ndarray, ...]:
    """N_D and N_N at the shifts ``xs``, one bottom-up pass over leaves of
    length ``h`` and mass ``mu``, and which shifts met a join pivot near 0.
    The same body runs on floats and on ``Decimal`` objects."""
    xm = plan[-1][:, None] * xs * mu
    sigma = -xm / 2
    leaf = (1 / h + xm / 6, sigma, sigma, np.zeros(xm.shape, np.int64))
    unsure = np.zeros(xs.shape[0], bool)
    below = leaf
    for bit in bin(splits)[3:]:  # MSB first: double the chain, then add a leaf
        below = _join(below, below, unsure)
        if bit == "1":
            below = _join(below, leaf, unsure)
    for (keys, ratio), joins in reversed(plan[:-1]):
        acc = _children(below, keys, ratio)
        for rows, gapped, gap_kappa, slot_keys, slot_ratio in joins:
            if gap_kappa.shape[0]:
                _join_rows(acc, gapped, (gap_kappa, 0, 0, 0), unsure)
            _join_rows(acc, rows, _children(below, slot_keys, slot_ratio), unsure)
        below = acc
    k, l, r, nd = (v[0] for v in below)
    p1 = _tie(k + l, np.abs(k) + np.abs(l))
    p2 = (k * (l + r) + l * r) / p1
    return nd, _unwrapped(nd + (p1 <= 0) + (p2 <= 0)), unsure


def _counts(plan, h, mu, splits: int, xs, step: int) -> tuple[np.ndarray, ...]:
    """``_chunk_counts`` over ``xs`` in chunks of ``step`` shifts."""
    nd, nn = np.zeros((2, xs.shape[0]), np.int64)
    unsure = np.zeros(xs.shape[0], bool)
    for lo in range(0, xs.shape[0], step):
        nd[lo:lo + step], nn[lo:lo + step], unsure[lo:lo + step] = _chunk_counts(
            plan, h, mu, splits, xs[lo:lo + step])
    return nd, nn, unsure


def condensed_counts(tree: VTree, level: int, splits: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """N_D and N_N of ``tree``'s Dirichlet and Neumann pencils at ``level``
    (plus ``splits`` uniform splits of every cell) at the shifts ``xs``:
    the counts of ``_kernels.sturm_counts`` on those pencils, by
    condensation. Shifts are counted in chunks of at most ``_kernels._CHUNK``
    keys x shifts per generation. Only the environment table is read, so
    ``level`` may pass ``tree.depth``; a build's ``node_cap`` bounds its
    materialized nodes and does not apply here. The rare shifts at which a
    join pivot comes near 0 are counted again by the same condensation in
    decimal, at ``_PRECISION`` digits, where an exact-zero pivot is a tie
    that counts as ``<= x``.

    Raises, as ``measure.decompose`` does, ``DepthExhaustedError`` past the
    tree's environment levels and ``InvalidInputError`` for overlapping
    cells (measured in the local coordinates of their parent, so deep
    debris overlaps that ``decompose`` clamps raise here too), and
    ``InvalidInputError`` for a shift that is not finite or whose absolute
    value passes ``_kernels.MAX_SCALED_MASS``: the root's row sums carry
    x times the measure's mass, 1. It also raises
    ``TreeTooLargeError`` for a plan of more keys than the node cap,
    ``InvalidInputError`` for a count past 2^63 - 1, which no level that
    materializes within ``DEFAULT_NODE_CAP`` nodes meets, and
    ``InvalidInputError`` for a nonzero shift whose leaf shift underflows,
    at the first generation planned where it does, and ``InvalidInputError``
    naming the shifts at which a nonzero join pivot stays within
    ``_DECIMAL_NEAR`` of 0 in decimal. A cell's ``splits`` leaves take
    O(log splits) joins, so no cap bounds ``splits``."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > tree.env_levels:
        raise DepthExhaustedError(
            f"tree has {tree.env_levels} environment levels, requested level {level}",
            extra_depth_hint=level - tree.env_levels)
    if splits < 1:
        raise ValueError("splits must be >= 1")
    xs = _kernels.checked_shifts(xs, 1.0)
    plan = _plan(tree, level, float(np.abs(xs[xs != 0.0]).min(initial=np.inf)), splits)
    widest = max([plan[-1].shape[0]] + [keys.shape[0] for (keys, _), _ in plan[:-1]])
    step = max(1, _kernels._CHUNK // widest)
    h, mu = (tree.catalog.upper - tree.catalog.lower) / splits, 1.0 / splits
    nd, nn, unsure = _counts(plan, h, mu, splits, xs, step)
    if unsure.any():
        exact = np.frompyfunc(Decimal, 1, 1)
        with localcontext(Context(prec=_PRECISION)):  # the default traps stay on
            nd[unsure], nn[unsure], near = _counts(_decimal(plan), Decimal(h), Decimal(mu),
                                                   splits, exact(xs[unsure]), step)
        if near.any():
            raise InvalidInputError(
                f"a join pivot stays within {_DECIMAL_NEAR} of 0 at {_PRECISION} digits at "
                f"the shifts {xs[unsure][near].tolist()}")
    return nd, nn
