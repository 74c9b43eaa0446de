"""Two numeric kernels, vectorized in numpy.

Sturm-sequence inertia counts on assembled symmetric tridiagonal pencils,
and the per-type dynamic program that evaluates neck block log-sums for
Monte Carlo batches and for ``vtree.scale_sum_at_neck``. Each has exactly
one implementation. Shifts (or blocks) are numpy lanes that never
interact, so one batched call gives the same result as one call per shift.
The counts the CLI writes come from ``condense``, which reads the tree
instead of a pencil; the Sturm count serves the ``Pencil`` API
(``pencil``) and is the test oracle of the condensed counts. Both count
engines share what this module fixes for them: the chunk budget
``_CHUNK``, the tie rule below, and the shift domain of
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

The neck-block DP takes one step per entry ``(blocks, level_sys, child)``,
the next table row of each listed block, in the order the Monte Carlo lanes
draw them or ``segment_levels`` gathers them. Per entry, one
``np.bincount`` adds the products ``A[v] * (ratio*weight)**x``, in C order
(block, type, map slot), to their (block, child type) sums. It adds in
index order, so a sum runs over types, then slots, ascending: the order of
an ``np.add.at`` scatter over a flat (CSR) list of the same products, so
the sums are bit-identical to it, however a block's rows are split into
entries. A padded slot's factor is masked to exactly 0, never computed as
``0.0 ** x`` (1 at x = 0), so it adds +0.0 to a nonnegative sum, which
changes no bit, and x = 0 still gives log node counts.
"""

from __future__ import annotations

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

def segment_levels(level_sys, child, starts, lens):
    """DP entries for blocks that are segments of one table: block b is
    rows ``starts[b] .. starts[b] + lens[b] - 1``, one entry per level."""
    for p in range(int(lens.max(initial=0))):
        active = np.nonzero(lens > p)[0]
        rows = starts[active] + p
        yield active, level_sys[rows], child[rows]


def block_log_sums(levels, roots, v_types: int, table, x: float) -> np.ndarray:
    """log of sum over block paths of the per-path (ratio*weight)**x
    products; ``table`` is ``catalog.map_table``. Each entry of ``levels``
    is one DP step ``(blocks, level_sys, child)`` of distinct blocks, and
    each block's entries come in its level order."""
    rm = table[..., 0] * table[..., 1]
    real = table[..., 0] > 0.0
    fx = np.zeros(rm.shape)
    fx[real] = rm[real] ** x
    n_blocks = roots.shape[0]
    out = np.zeros(n_blocks)
    amat = np.zeros((n_blocks, v_types))
    amat[np.arange(n_blocks), roots] = 1.0
    for blocks, level_sys, child in levels:
        n = blocks.shape[0]
        targets = np.arange(0, n * v_types, v_types)[:, None, None] + child
        products = amat[blocks][:, :, None] * fx[level_sys]
        new = np.bincount(targets.ravel(), products.ravel(),
                          n * v_types).reshape(n, v_types)
        sums = new.sum(axis=1)
        out[blocks] += np.log(sums)
        amat[blocks] = new / sums[:, None]
    return out
