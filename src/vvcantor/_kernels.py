"""Two numeric kernels and a row grouping, vectorized in numpy.

Sturm-sequence inertia counts on assembled symmetric tridiagonal pencils,
and the per-type dynamic program that evaluates the neck block log-sums of
the Monte Carlo batches. Each has exactly one implementation, as has
``groups``, which groups rows by their bits for the condensation keys and
the node classes of ``tree.jsonl``. Shifts (or blocks) are numpy lanes that
never interact, so one batched call gives the same result as one call per
shift. The counts the CLI writes come from ``condense``, which reads the
tree instead of a pencil; the Sturm count serves ``pencil.inertia_counts``
and is the test oracle of the condensed counts. Both count engines share
what this module fixes for them: the chunk budget ``_CHUNK``, the tie rule
below, and the shift domain of ``checked_shifts``, finite shifts whose
product with a mass scale stays within ``MAX_SCALED_MASS``.

The inertia count is the row recurrence ``d_i = (kd_i - x md_i) -
(ko_{i-1} - x mo_{i-1})^2 / d_{i-1}``, evaluated in row chunks of at most
about ``_CHUNK`` rows x shifts. Each chunk fills two reused buffers with
``a = kd - x md`` and ``bb = (ko - x mo)^2`` for all its rows at once (row
0 gets ``bb = 0`` and enters with ``d = +inf``), then runs the recurrence in
place, two ufunc calls per row, and counts its nonpositive pivots in one
pass. The pivot leaving a chunk is copied out before the next chunk
overwrites the buffer. These are the same IEEE operations on the same
operands in the same order as a row-by-row loop, so the counts are
bit-identical to it. A prefix scan over 2x2 transfer matrices is not: it
regroups the products and loses the tiny entry perturbations that decide
the count when ``x md`` is far below ``kd``.

An exact-zero pivot is counted as nonpositive and then replaced by a tiny
negative value, ``-(1e-300 + eps * (|kd_i| + |x| * md_i))``, before it
divides; ties "eigenvalue == x" therefore count as "<= x". The fast row
loop does not replace: a chunk that produced an exact zero is refilled and
re-run with the replacement, row by row.

The neck-block DP runs on a ``BlockLayout``, built once by ``block_layout``
from the blocks' lengths, which the Monte Carlo lanes record as each block
necks, and from entries ``(blocks, level_sys, child)``, each the next table
row of each listed block, in the order the lanes draw them, read in one
pass. The layout orders the blocks longest first, stable by id, so the
blocks still running at level p are the first ``counts[p]``, and stores
level p's rows as consecutive columns in that order: lanes-last, with the
blocks on the last, contiguous axis, as the lanes draw them. A DP step
then works on leading column slices of its (V, blocks) state and of
reused buffers, with every numpy loop running along the blocks, and the
log sums go back to block order once, at the end. Per level, one
``np.bincount`` adds the products ``A[v] * (ratio*weight)**x``, in C order
(type, map slot, block), to their (block, child type) sums. It adds in
index order, so the sum of one block and child type still runs over
types, then slots, ascending: the order of an ``np.add.at`` scatter over a
flat (CSR) list of the same products, so the sums are bit-identical to it,
however a block's rows were split into entries. A row of the new vector
is summed as ``numpy.sum`` sums it: by column adds, left to right, below 8
types, and by ``sum`` itself from 8 on, where numpy sums pairwise. A
padded slot's factor is masked to exactly 0, never computed as ``0.0 **
x`` (1 at x = 0), so it adds +0.0 to a nonnegative sum, which changes no
bit, and x = 0 still gives log node counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import InvalidInputError

_EPS = 1.1102230246251565e-16  # 2^-53
_CHUNK = 1 << 16  # rows x shifts per chunk buffer

# Largest |x| times a pencil's mass scale that a count accepts. The counts
# square and multiply shifted entries of about that size, which leave the
# float range past 2**512: the counts would fall as x rises.
MAX_SCALED_MASS = 2.0 ** 500


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


def groups(*columns) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group and the first row of each group, for rows grouped
    by equal bits in every one of ``columns``. Groups are numbered in the
    order of one stable ``np.lexsort(columns)`` of the rows' unsigned bit
    views, which for nonnegative integers is their numeric order."""
    keys = [c.view(f"u{c.itemsize}") for c in columns]
    order = np.lexsort(keys)
    new = np.zeros(order.shape[0], bool)  # True where a group starts
    new[:1] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    group = np.empty(order.shape[0], np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


# ---------------------------------------------------------------------------
# Sturm-sequence inertia counts for K - x*M, symmetric tridiagonal.

def _fill_chunk(kd, ko, md, mo, xs, r0, a, bb) -> None:
    """a = kd - x*md and bb = (ko - x*mo)**2 for rows r0 .. r0 + len(a)."""
    m = a.shape[0]
    np.multiply(md[r0:r0 + m, None], xs, out=a)
    np.subtract(kd[r0:r0 + m, None], a, out=a)
    j0 = 1 if r0 == 0 else 0  # row 0 has no off-diagonal term
    bb[:j0] = 0.0
    b = bb[j0:]
    off = slice(r0 + j0 - 1, r0 + m - 1)
    np.multiply(mo[off, None], xs, out=b)
    np.subtract(ko[off, None], b, out=b)
    np.multiply(b, b, out=b)


def sturm_counts(kd, ko, md, mo, xs) -> np.ndarray:
    """Generalized eigenvalues of (K, M) that are <= x, for each x in xs."""
    xs = np.asarray(xs, dtype=np.float64)
    n, s = kd.shape[0], xs.shape[0]
    counts = np.zeros(s, np.int64)
    if n == 0 or s == 0:
        return counts
    rows = max(1, _CHUNK // s)
    abuf = np.empty((min(rows, n), s))
    bbuf = np.empty_like(abuf)
    t = np.empty(s)
    d = np.full(s, np.inf)  # pivot entering the chunk
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r0 in range(0, n, rows):
            m = min(rows, n - r0)
            a, bb = abuf[:m], bbuf[:m]
            _fill_chunk(kd, ko, md, mo, xs, r0, a, bb)
            prev = d
            for ai, bi in zip(a, bb):
                np.divide(bi, prev, out=t)
                np.subtract(ai, t, out=ai)
                prev = ai
            if (a == 0.0).any():
                _fill_chunk(kd, ko, md, mo, xs, r0, a, bb)
                for i, (ai, bi) in enumerate(zip(a, bb), r0):
                    np.divide(bi, d, out=t)
                    np.subtract(ai, t, out=ai)
                    repl = -(1e-300 + _EPS * (abs(kd[i]) + np.abs(xs) * md[i]))
                    d = np.where(ai == 0.0, repl, ai)
            else:
                np.copyto(d, a[-1])
            counts += (a <= 0.0).sum(axis=0)
    return counts


# ---------------------------------------------------------------------------
# Neck block log-sums. Each block runs the per-type vector A through its
# levels, renormalized by its sum per level while the log-sums accumulate,
# so the result never over- or underflows.

@dataclass(frozen=True)
class BlockLayout:
    """Neck blocks longest first: the blocks that run at level p are the
    first ``counts[p]`` of ``order``, and level p's table rows are
    ``counts[p]`` consecutive columns of ``level_sys`` (V, rows) and
    ``child`` (V, W, rows) in that order, after those of the levels above
    it. The blocks are the last, contiguous axis, as the lanes draw them and
    as the DP reads them."""

    order: np.ndarray  # block ids, length descending, stable by id
    roots: np.ndarray  # root types, in block id order
    lens: np.ndarray  # levels per block, in block id order
    counts: np.ndarray  # blocks of more than p levels, non-increasing in p
    level_sys: np.ndarray
    child: np.ndarray

    def runs(self):
        """Runs of levels with the same running blocks: ``(n, levels)``,
        where ``levels`` yields each level's ``(level_sys, child)`` as
        column views, (V, n) and (V, W, n)."""
        start = 0
        for n, run in groupby(self.counts.tolist()):
            stop = start + n * len(list(run))
            yield n, ((self.level_sys[:, lo:lo + n], self.child[..., lo:lo + n])
                      for lo in range(start, stop, n))
            start = stop

    def entries(self):
        """The layout as ``block_layout`` entries, one per level."""
        for n, levels in self.runs():
            for level_sys, child in levels:
                yield self.order[:n], level_sys.T, child.transpose(2, 0, 1)

    def by_block(self, a: np.ndarray) -> np.ndarray:
        """``a``, given in ``order``, put in block id order."""
        out = np.empty_like(a)
        out[self.order] = a
        return out


def block_layout(levels, lens, roots) -> BlockLayout:
    """The layout of the blocks with ``lens`` levels and root types
    ``roots`` (both in block id order) whose DP steps are ``levels``:
    entries ``(blocks, level_sys, child)`` of distinct blocks, level_sys
    (blocks, V) and child (blocks, V, W), each block's entries in its level
    order, read once. Each entry's rows are scattered to their blocks'
    sorted columns, in lanes-last arrays of the first entry's dtype and row
    shape. Raises ``ValueError`` unless the entries give each block exactly
    its ``lens`` rows."""
    n_blocks = roots.shape[0]
    order = np.argsort(-lens, kind="stable")
    counts = n_blocks - np.cumsum(np.bincount(lens))[:-1]
    starts = np.cumsum(counts) - counts
    pos = np.empty(n_blocks, np.int64)
    pos[order] = np.arange(n_blocks)
    level_sys = child = None
    seen = np.zeros(n_blocks, np.int64)
    for blocks, sys_, ch in levels:
        if level_sys is None:
            level_sys, child = (np.empty(col.shape[1:] + (int(lens.sum()),), col.dtype)
                                for col in (sys_, ch))
        p = seen[blocks]
        if (p >= lens[blocks]).any():
            raise ValueError("an entry gives a block more rows than its length")
        rows = starts[p] + pos[blocks]
        for dst, src in ((level_sys, sys_), (child, ch)):
            # One 1-d scatter per (type, slot) row runs along the blocks.
            k = math.prod(src.shape[1:])
            for d, r in zip(dst.reshape(k, -1), src.reshape(-1, k).T):
                d[rows] = r
        seen[blocks] = p + 1
    if not np.array_equal(seen, lens):
        raise ValueError("the entries give a block fewer rows than its length")
    if level_sys is None:  # no entries, so no rows
        level_sys = child = np.empty(0, np.int64)
    return BlockLayout(order, roots, lens, counts, level_sys, child)


def block_log_sums(layout: BlockLayout, v_types: int, table, x: float) -> np.ndarray:
    """log of sum over block paths of the per-path (ratio*weight)**x
    products, in block id order; ``table`` is ``catalog.map_table``. Level
    p updates the running blocks, the first ``layout.counts[p]`` columns
    of the (V, blocks) state, in buffers sliced once per run of equal
    counts. Products and targets are (V, W, n) views of flat buffers, so
    ``np.bincount`` reads them without a copy, in (type, slot, block)
    order: each (block, child type) bin still gets its products type by
    type, slots ascending."""
    rm = table[..., 0] * table[..., 1]
    real = table[..., 0] > 0.0
    fx = np.zeros(rm.shape)
    fx[real] = rm[real] ** x
    fx_t = np.ascontiguousarray(fx.T)  # (W, systems): one take per type
    n_blocks = layout.order.shape[0]
    out = np.zeros(n_blocks)
    n0 = int(layout.counts[0]) if layout.counts.shape[0] else 0
    amat = np.zeros((v_types, n0))
    amat[layout.roots[layout.order[:n0]], np.arange(n0)] = 1.0
    width = fx.shape[1]
    base = np.arange(0, n0 * v_types, v_types)
    products = np.empty(v_types * width * n0)
    targets = np.empty(products.shape, np.int64)
    sums = np.empty(n0)
    pairwise = v_types >= 8  # numpy's row sum; below 8 it adds left to right
    for n, levels in layout.runs():
        a, o, s = amat[:, :n], out[:n], sums[:n]
        prod1, tgt1 = products[:v_types * width * n], targets[:v_types * width * n]
        prod, tgt = prod1.reshape(v_types, width, n), tgt1.reshape(v_types, width, n)
        a3, b1 = a[:, None, :], base[:n]
        for level_sys, child in levels:
            # System ids are in range; "clip" spares "raise"'s buffered copy.
            for sys_v, prod_v in zip(level_sys, prod):
                fx_t.take(sys_v, axis=1, out=prod_v, mode="clip")
            np.multiply(prod, a3, out=prod)
            np.add(child, b1, out=tgt)
            new = np.bincount(tgt1, prod1, n * v_types).reshape(n, v_types)
            if pairwise:
                new.sum(axis=1, out=s)
            else:
                np.copyto(s, new[:, 0])
                for t in range(1, v_types):
                    np.add(s, new[:, t], out=s)
            np.divide(new.T, s, out=a)
            del new  # freed before the next level's sums are allocated
            np.log(s, out=s)
            np.add(o, s, out=o)
    return layout.by_block(out)
