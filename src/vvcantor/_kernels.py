"""The two hot numeric kernels, vectorized in numpy.

Sturm-sequence inertia counts on symmetric tridiagonal pencils, and the
per-type dynamic program that evaluates neck block log-sums for Monte Carlo
batches and for ``vtree.scale_sum_at_neck``. Each has exactly one
implementation. Shifts (or blocks) are numpy lanes that never interact, so
one batched call gives the same result as one call per shift.

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
"""

from __future__ import annotations

import numpy as np

_EPS = 1.1102230246251565e-16  # 2^-53
_CHUNK = 1 << 16  # rows x shifts per chunk buffer


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
# Neck block log-sums.
#
# A batch of blocks is packed level-major:
#   level_sys[l, v]   system index assigned to type v at packed level l
#   row_off[l, v]     start of the child-type row for (l, v) in types_flat
#   types_flat[t]     concatenated child-type rows
#   block_ptr[b]      half-open level range [block_ptr[b], block_ptr[b+1])
#   root_types[b]     type of the block's root
#   sys_off[j], n_maps[j]   per-system slice of the map table
#   fx[m]             per-map factor (ratio*weight)**x, precomputed
#
# Each block runs the per-type vector A through its levels; the vector is
# renormalized by its sum per level and the log-sums accumulate, so the
# result never over- or underflows.

def pack_blocks(catalog, v_types: int, root_types, blocks) -> tuple:
    """Pack blocks for ``block_log_sums``.

    ``blocks[b]`` is the environment sequence of block b and
    ``root_types[b]`` its root type. Returns ``(level_sys, row_off,
    types_flat, block_ptr, root_types, sys_off, n_maps, rm)`` where
    ``rm[m]`` is map m's ratio*weight; pass ``rm ** x`` as ``fx``.
    """
    n_maps = np.array([s.size for s in catalog.systems], np.int64)
    sys_off = np.concatenate(([0], np.cumsum(n_maps)[:-1]))
    rm = np.array([m.ratio * w for s in catalog.systems
                   for m, w in zip(s.maps, s.weights)])
    lens = np.array([len(envs) for envs in blocks], np.int64)
    block_ptr = np.concatenate(([0], np.cumsum(lens)))
    total_levels = int(block_ptr[-1])
    level_sys = np.empty((total_levels, v_types), np.int64)
    row_off = np.empty((total_levels, v_types), np.int64)
    flat: list[int] = []
    l = 0
    for envs in blocks:
        for env in envs:
            for vt in range(v_types):
                level_sys[l, vt] = env.indices[vt]
                row_off[l, vt] = len(flat)
                flat.extend(env.child_types[vt])
            l += 1
    return (level_sys, row_off, np.array(flat, np.int64), block_ptr,
            np.array(root_types, np.int64), sys_off, n_maps, rm)


def block_log_sums(level_sys, row_off, types_flat, block_ptr, root_types,
                   sys_off, n_maps, fx, n_types) -> np.ndarray:
    """log of sum over block paths of the per-path factor products."""
    n_blocks = root_types.shape[0]
    out = np.zeros(n_blocks, np.float64)
    lens = block_ptr[1:] - block_ptr[:-1]
    amat = np.zeros((n_blocks, n_types), np.float64)
    amat[np.arange(n_blocks), root_types] = 1.0
    max_len = int(lens.max()) if n_blocks else 0
    for p in range(max_len):
        active = np.nonzero(lens > p)[0]
        levels = block_ptr[active] + p
        new = np.zeros((active.shape[0], n_types), np.float64)
        for v in range(n_types):
            av = amat[active, v]
            sysv = level_sys[levels, v]
            cnt = n_maps[sysv]
            rep = np.repeat(np.arange(active.shape[0]), cnt)
            starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            local = np.arange(cnt.sum()) - np.repeat(starts, cnt)
            targets = types_flat[np.repeat(row_off[levels, v], cnt) + local]
            vals = av[rep] * fx[np.repeat(sys_off[sysv], cnt) + local]
            np.add.at(new, (rep, targets), vals)
        sums = new.sum(axis=1)
        out[active] += np.log(sums)
        amat[active] = new / sums[:, None]
    return out
