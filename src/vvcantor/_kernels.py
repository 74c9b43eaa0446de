"""Two numeric kernels, vectorized in numpy.

Sturm-sequence inertia counts on assembled symmetric tridiagonal pencils,
and the per-type dynamic program that evaluates the neck block log-sums of
the Monte Carlo batches. Each has exactly one implementation. Shifts (or
blocks) are numpy lanes that never interact, so one batched call gives the
same result as one call per shift. The counts the CLI writes come from
``condense``, which reads the tree instead of a pencil; the Sturm count
serves ``pencil.inertia_counts`` and is the test oracle of the condensed
counts. Both count engines share what this module fixes for them: the
chunk budget ``_CHUNK``, the tie rule below, and the shift domain of
``checked_shifts``, finite shifts whose product with a mass scale stays
within ``MAX_SCALED_MASS``.

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
level p's rows in that order. A DP step then works on leading slices of
its state and of reused buffers, and the log sums go back to block order
once, at the end. Per level, one ``np.bincount`` adds the products ``A[v]
* (ratio*weight)**x``, in C order (block, type, map slot), to their
(block, child type) sums. It adds in index order, so a sum runs over types, then
slots, ascending: the order of an ``np.add.at`` scatter over a flat (CSR)
list of the same products, so the sums are bit-identical to it, however a
block's rows were split into entries. A row of the new vector is summed as
``numpy.sum`` sums it: by column adds, left to right, below 8 types, and
by ``sum`` itself from 8 on, where numpy sums pairwise. A padded slot's
factor is masked to exactly 0, never computed as ``0.0 ** x`` (1 at x =
0), so it adds +0.0 to a nonnegative sum, which changes no bit, and x = 0
still gives log node counts.
"""

from __future__ import annotations

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
    ``counts[p]`` consecutive rows of ``level_sys`` and ``child`` in that
    order, after those of the levels above it."""

    order: np.ndarray  # block ids, length descending, stable by id
    roots: np.ndarray  # root types, in block id order
    lens: np.ndarray  # levels per block, in block id order
    counts: np.ndarray  # blocks of more than p levels, non-increasing in p
    level_sys: np.ndarray
    child: np.ndarray

    def runs(self):
        """Runs of levels with the same running blocks: ``(n, level_sys,
        child)``, the rows of the run's levels as views with a leading
        level axis."""
        start = 0
        for n, run in groupby(self.counts.tolist()):
            stop = start + n * len(list(run))
            yield (n, *(rows[start:stop].reshape((-1, n) + rows.shape[1:])
                        for rows in (self.level_sys, self.child)))
            start = stop

    def entries(self):
        """The layout as ``block_layout`` entries, one per level."""
        for n, run_sys, run_child in self.runs():
            for level_sys, child in zip(run_sys, run_child):
                yield self.order[:n], level_sys, child

    def by_block(self, a: np.ndarray) -> np.ndarray:
        """``a``, given in ``order``, put in block id order."""
        out = np.empty_like(a)
        out[self.order] = a
        return out


def block_layout(levels, lens, roots) -> BlockLayout:
    """The layout of the blocks with ``lens`` levels and root types
    ``roots`` (both in block id order) whose DP steps are ``levels``:
    entries ``(blocks, level_sys, child)`` of distinct blocks, each block's
    entries in its level order, read once. Each entry's rows are scattered
    to their blocks' sorted positions, in arrays of the first entry's dtype
    and row shape. Raises ``ValueError`` unless the entries give each
    block exactly its ``lens`` rows."""
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
            level_sys, child = (np.empty((int(lens.sum()),) + col.shape[1:], col.dtype)
                                for col in (sys_, ch))
        p = seen[blocks]
        if (p >= lens[blocks]).any():
            raise ValueError("an entry gives a block more rows than its length")
        rows = starts[p] + pos[blocks]
        level_sys[rows] = sys_
        child[rows] = ch
        seen[blocks] = p + 1
    if not np.array_equal(seen, lens):
        raise ValueError("the entries give a block fewer rows than its length")
    if level_sys is None:  # no entries, so no rows
        level_sys = child = np.empty(0, np.int64)
    return BlockLayout(order, roots, lens, counts, level_sys, child)


def block_log_sums(layout: BlockLayout, v_types: int, table, x: float) -> np.ndarray:
    """log of sum over block paths of the per-path (ratio*weight)**x
    products, in block id order; ``table`` is ``catalog.map_table``. Level
    p updates the running blocks, the first ``layout.counts[p]`` rows of
    the state, in buffers sliced once per run of equal counts."""
    rm = table[..., 0] * table[..., 1]
    real = table[..., 0] > 0.0
    fx = np.zeros(rm.shape)
    fx[real] = rm[real] ** x
    n_blocks = layout.order.shape[0]
    out = np.zeros(n_blocks)
    amat = np.zeros((n_blocks, v_types))
    amat[np.arange(n_blocks), layout.roots[layout.order]] = 1.0
    n0 = int(layout.counts[0]) if layout.counts.shape[0] else 0
    base = np.arange(0, n0 * v_types, v_types)[:, None, None]
    products = np.empty((n0, v_types, fx.shape[1]))
    targets = np.empty(products.shape, np.int64)
    sums = np.empty(n0)
    pairwise = v_types >= 8  # numpy's row sum; below 8 it adds left to right
    for n, run_sys, run_child in layout.runs():
        a, o, prod, tgt, s = amat[:n], out[:n], products[:n], targets[:n], sums[:n]
        a3, b3, prod1, tgt1, s2 = a[:, :, None], base[:n], prod.ravel(), tgt.ravel(), s[:, None]
        for level_sys, child in zip(run_sys, run_child):
            # System ids are in range; "clip" spares "raise"'s buffered copy.
            fx.take(level_sys, axis=0, out=prod, mode="clip")
            np.multiply(a3, prod, out=prod)
            np.add(b3, child, out=tgt)
            new = np.bincount(tgt1, prod1, n * v_types).reshape(n, v_types)
            if pairwise:
                new.sum(axis=1, out=s)
            else:
                first, *rest = new.T
                np.copyto(s, first)
                for col in rest:
                    np.add(s, col, out=s)
            np.divide(new, s2, out=a)
            np.log(s, out=s)
            np.add(o, s, out=o)
    return layout.by_block(out)
