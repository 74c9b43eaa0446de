"""Random trees with a bounded number of per-level types.

Each level of a tree is governed by an environment: an assignment, for every
type v in {0..V-1}, of a catalog system index and of the types handed to that
system's children. A level whose environment gives every child slot the same
type is a neck; below a neck all subtrees rooted at that generation are
identical, which is what makes cut sets and block factorizations cheap.

Environments are one table: ``level_sys[l, v]`` is the system of type v at
level l and ``child[l, v, i]`` the type of its child i, 0 past the system's
maps (``slot_mask``), stored in the dtype of ``LevelDraws``, which draws it
level by level for every lane of a ``Xoshiro256StarStarLanes`` (a tree's
stream is one lane, each Monte Carlo block another). It only ever indexes,
so no arithmetic runs in its narrow dtype. ``Environment`` is one level as
a dataclass, the schema of ``environments.json``.

Trees separate two depths. The environment sequence can be long (it costs a
few integers per level), while node generations are materialized only to the
requested depth, with an explicit node cap; several operations (block sums,
Monte Carlo estimates) only need the environments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from .catalog import Catalog, map_table, scale_extrema
from .errors import DepthExhaustedError, TreeTooLargeError
from .rng import Xoshiro256StarStar, categorical_index, cumulative_probs

DEFAULT_NODE_CAP = 10_000_000


def _map_counts(catalog: Catalog) -> np.ndarray:
    return np.array([s.size for s in catalog.systems], np.int64)


def slot_mask(sizes: np.ndarray, width: int) -> np.ndarray:
    """Which of ``width`` slots are real in rows of ``sizes`` maps each."""
    return np.arange(width) < sizes[..., None]


def neck_mask(child, real) -> np.ndarray:
    """Which levels of the table rows ``child`` are necks: every real slot
    (``slot_mask``) holds the same type. Slot 0 of type 0 always exists."""
    return ((child == child[..., :1, :1]) | ~real).all(axis=(-2, -1))


class LevelDraws:
    """Draws one level of the environment table per lane.

    Draw order (reproducibility contract), per level: the system of each
    type 0..V-1, one ``rng.categorical_index`` draw on the catalog's index
    distribution each; then the child types type by type, map slot by map
    slot, one ``randint(V)`` each. A lane draws only the slots its type's system has,
    so its stream does not depend on the other lanes. ``dtype``, the
    smallest unsigned dtype that holds a type and a system, is the table's.
    """

    def __init__(self, catalog: Catalog, v_types: int):
        if v_types < 1:
            raise ValueError("v_types must be >= 1")
        self.v_types = v_types
        self.n_maps = _map_counts(catalog)
        self.width = int(self.n_maps.max())
        self.dtype = np.min_scalar_type(max(v_types, catalog.n_systems) - 1)
        self._cum = cumulative_probs(catalog.index_probs)

    def __call__(self, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(level_sys, child)`` rows of the next level, one per lane of
        the ``Xoshiro256StarStarLanes`` ``rng``, and their ``slot_mask``."""
        v, min_size = self.v_types, int(self.n_maps.min())
        sys_ = categorical_index(self._cum, rng.uniforms([None] * v).T).astype(self.dtype)
        real = slot_mask(self.n_maps[sys_], self.width)
        u = rng.uniforms([None if i < min_size else real[:, t, i]  # has slot i
                          for t in range(v) for i in range(self.width)])
        child = np.where(real, u.T.reshape(real.shape) * v, 0.0).astype(self.dtype)
        return sys_, child, real


@dataclass(frozen=True)
class Environment:
    """Per-type system indices and child-type rows for one level.

    ``indices[v]`` is the catalog system assigned to type v and
    ``child_types[v][i]`` the type handed to the i-th child of a type-v node.
    """

    indices: tuple[int, ...]
    child_types: tuple[tuple[int, ...], ...]

    @classmethod
    def from_row(cls, level_sys, child, n_maps) -> Environment:
        """One level ``(level_sys, child)`` of the table."""
        return cls(tuple(level_sys.tolist()),
                   tuple(tuple(row[:n]) for row, n in
                         zip(child.tolist(), n_maps[level_sys].tolist())))

    @property
    def is_neck(self) -> bool:
        sizes = [len(row) for row in self.child_types]
        child = [row + (0,) * (max(sizes) - len(row)) for row in self.child_types]
        return bool(neck_mask(np.array(child), slot_mask(np.array(sizes), max(sizes))))


def sample_environment(catalog: Catalog, v_types: int, rng: Xoshiro256StarStar) -> Environment:
    """Draw one level with ``LevelDraws`` from the one-lane ``rng``."""
    draw = LevelDraws(catalog, v_types)
    level_sys, child, _ = draw(rng)
    return Environment.from_row(level_sys[0], child[0], draw.n_maps)


@dataclass
class Generation:
    """Node arrays for one generation (parent-major, left to right)."""

    parent: np.ndarray  # index into previous generation, -1 for the root
    pos: np.ndarray     # map position within the parent's system
    types: np.ndarray   # in the table's dtype
    system: np.ndarray  # system splitting this node (table dtype), int64 -1 when unknown
    rprod: np.ndarray   # cumulative ratio product
    mprod: np.ndarray   # cumulative weight product
    shift: np.ndarray   # cumulative affine offset

    @property
    def size(self) -> int:
        return self.types.shape[0]


class VTree:
    """A realized tree: the environment table (``level_sys`` and ``child``,
    in ``LevelDraws``' dtype) plus materialized generations."""

    def __init__(self, catalog: Catalog, v_types: int, root_type: int,
                 level_sys: np.ndarray, child: np.ndarray, generations: list[Generation]):
        self.catalog = catalog
        self.v_types = v_types
        self.root_type = root_type
        self.level_sys = level_sys
        self.child = child
        self.generations = generations
        necks = neck_mask(child, slot_mask(_map_counts(catalog)[level_sys], child.shape[2]))
        self.neck_levels = tuple((np.flatnonzero(necks) + 1).tolist())

    @property
    def depth(self) -> int:
        """Deepest materialized generation."""
        return len(self.generations) - 1

    @property
    def env_levels(self) -> int:
        return self.level_sys.shape[0]

    @property
    def node_count(self) -> int:
        return sum(g.size for g in self.generations)


def _check_table(level_sys: np.ndarray, child: np.ndarray, v_types: int,
                 n_maps: np.ndarray) -> None:
    """Reject a caller's table that does not fit the tree and catalog,
    naming the first level and type, in order, that does not."""
    if not (level_sys.ndim == 2 and child.ndim == 3
            and level_sys.shape == child.shape[:2] == (len(level_sys), v_types)):
        raise ValueError("environment type count does not match the tree")
    known = (level_sys >= 0) & (level_sys < len(n_maps))
    sizes = n_maps[np.where(known, level_sys, 0)]
    invalid = (slot_mask(sizes, child.shape[2]) & ((child < 0) | (child >= v_types))).any(axis=2)
    problem = np.select([~known, sizes > child.shape[2], invalid], [1, 2, 3])
    if problem.any():
        l, v = np.argwhere(problem)[0]
        j = level_sys[l, v]
        raise ValueError([f"environment assigns unknown system {j} to type {v}",
                          f"environment row {v} does not match system {j} map count",
                          f"environment row {v} contains an invalid type"][problem[l, v] - 1])


def build_tree(catalog: Catalog, v_types: int, depth: int, *,
               root_type: int | None = None,
               rng: Xoshiro256StarStar | None = None,
               environments=None,
               env_levels: int | None = None,
               node_cap: int = DEFAULT_NODE_CAP) -> VTree:
    """Materialize a tree of the given depth.

    ``environments`` is a ``(level_sys, child)`` table, checked, then stored
    narrow; when it is None, the one-lane ``rng`` draws it with
    ``LevelDraws`` after the root type (drawn only if ``root_type`` is
    None). ``env_levels`` may exceed ``depth`` so
    that operations needing only environments can look past the
    materialized part. Raises ``TreeTooLargeError`` before allocating
    anything past ``node_cap``, checking drawn levels as they are drawn.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if env_levels is None:
        env_levels = depth
    if env_levels < depth:
        raise ValueError("env_levels must cover the materialized depth")

    if (environments is None or root_type is None) and rng is None:
        raise ValueError("rng is required when root type or environments are sampled")
    if root_type is None:
        root_type = rng.randint(v_types)
    if not 0 <= root_type < v_types:
        raise ValueError("root_type outside {0..V-1}")
    draw = LevelDraws(catalog, v_types)
    n_maps = draw.n_maps

    # Size precheck from per-type counts (Python ints, no overflow).
    counts = [0] * v_types
    counts[root_type] = 1
    total_nodes = 1

    def grow(g: int, sys_row, child_row) -> None:
        nonlocal counts, total_nodes
        nxt = [0] * v_types
        for count, j, row in zip(counts, sys_row.tolist(), child_row.tolist()):
            for t in row[:n_maps[j]]:
                nxt[t] += count
        counts = nxt
        total_nodes += sum(counts)
        if total_nodes > node_cap:
            raise TreeTooLargeError(
                f"tree needs more than {node_cap} nodes by generation {g + 1}")

    if environments is None:
        rows = [(np.zeros((0, v_types), draw.dtype),
                 np.zeros((0, v_types, draw.width), draw.dtype))]
        for g in range(env_levels):
            rows.append(draw(rng)[:2])
            if g < depth:
                grow(g, rows[-1][0][0], rows[-1][1][0])
        level_sys, child = (np.concatenate(col) for col in zip(*rows))
    else:
        level_sys, child = (np.asarray(a) for a in environments)
        _check_table(level_sys, child, v_types, n_maps)
        level_sys, child = (a.astype(draw.dtype, copy=False) for a in (level_sys, child))
        if level_sys.shape[0] < depth:
            raise ValueError("not enough environments for the requested depth")
        for g in range(depth):
            grow(g, level_sys[g], child[g])

    table = map_table(catalog)

    root = Generation(
        parent=np.array([-1], np.int64),
        pos=np.array([-1], np.int64),
        types=np.array([root_type], draw.dtype),
        system=np.array([-1], np.int64),
        rprod=np.array([1.0]),
        mprod=np.array([1.0]),
        shift=np.array([0.0]),
    )
    generations = [root]
    for g in range(depth):
        gen = generations[-1]
        gen.system = level_sys[g][gen.types]  # the system that splits this generation
        n_children = n_maps[gen.system]
        total = int(n_children.sum())
        parent = np.repeat(np.arange(gen.size, dtype=np.int64), n_children)
        starts = np.cumsum(n_children) - n_children
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, n_children)
        system = gen.system[parent]
        generations.append(Generation(
            parent=parent,
            pos=pos,
            types=child[g][gen.types[parent], pos],
            system=np.full(total, -1, np.int64),
            rprod=gen.rprod[parent] * table[system, pos, 0],
            mprod=gen.mprod[parent] * table[system, pos, 1],
            shift=gen.rprod[parent] * table[system, pos, 2] + gen.shift[parent],
        ))
    return VTree(catalog, v_types, root_type, level_sys, child, generations)


# ---------------------------------------------------------------------------
# Cut sets

@dataclass
class CutSet:
    """Antichain of nodes where the ratio*weight product first drops
    below exp(-k) at a neck level, with its summary statistics."""

    k: int
    levels: np.ndarray      # neck level of each member
    node_index: np.ndarray  # index within its generation
    prev_neck: np.ndarray   # previous neck level (0 for the first)
    products: np.ndarray    # ratio*weight cumulative product
    size: int
    harmonic_scale: float   # M_k / sum of member products
    max_gap: int            # largest n(l) - n(l-1) over members

    def __iter__(self):
        for i in range(self.size):
            yield (int(self.levels[i]), int(self.node_index[i]),
                   int(self.prev_neck[i]), float(self.products[i]))


def cut_set(tree: VTree, k: int) -> CutSet:
    """Members, one per deep path, selected at neck levels by exp(-k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return CutSet(0, np.zeros(1, np.int64), np.zeros(1, np.int64),
                      np.zeros(1, np.int64), np.ones(1), 1, 1.0, 0)
    thr = math.exp(-float(k))
    neck_set = set(l for l in tree.neck_levels if l <= tree.depth)

    levels, nodes, prevs, prods = [], [], [], []
    anchor = np.ones(1)  # product at the nearest neck at or above each node
    prev_neck = 0
    member_count = np.zeros(1, np.int64)
    for g in range(1, tree.depth + 1):
        gen = tree.generations[g]
        anchor = anchor[gen.parent]
        member_count = member_count[gen.parent]
        if g in neck_set:
            prod = gen.rprod * gen.mprod
            sel = (prod <= thr) & (anchor > thr)
            idx = np.nonzero(sel)[0]
            if idx.size:
                levels.append(np.full(idx.size, g, np.int64))
                nodes.append(idx.astype(np.int64))
                prevs.append(np.full(idx.size, prev_neck, np.int64))
                prods.append(prod[idx])
                member_count[idx] += 1
            anchor = prod
            prev_neck = g

    uncovered = anchor > thr
    if uncovered.any():
        extrema = scale_extrema(tree.catalog)
        worst = float(anchor[uncovered].max())
        shrink = -math.log(extrema.r_sup * extrema.m_sup)
        hint = max(1, math.ceil((k + math.log(worst)) / shrink))
        raise DepthExhaustedError(
            f"cut set {k} incomplete at depth {tree.depth}; "
            f"needs at least {hint} more levels", extra_depth_hint=hint)
    if not (member_count == 1).all():
        raise AssertionError("cut-set property violated: some path not covered exactly once")

    levels = np.concatenate(levels)
    nodes = np.concatenate(nodes)
    prevs = np.concatenate(prevs)
    prods = np.concatenate(prods)
    order = np.lexsort((nodes, levels))
    levels, nodes, prevs, prods = levels[order], nodes[order], prevs[order], prods[order]
    size = int(levels.shape[0])
    return CutSet(
        k=k, levels=levels, node_index=nodes, prev_neck=prevs, products=prods,
        size=size,
        harmonic_scale=size / float(prods.sum()),
        max_gap=int((levels - prevs).max()),
    )


# ---------------------------------------------------------------------------
# Block sums of (ratio*weight)**x at neck levels

@dataclass
class NeckSums:
    """Direct and block-factorized evaluations of the neck-level sums."""

    x: float
    k: int
    neck_levels: tuple[int, ...]
    block_log_sums: list[float]
    log_direct: float

    @property
    def log_block_product(self) -> float:
        return float(sum(self.block_log_sums))

    @property
    def direct_sum(self) -> float:
        return math.exp(self.log_direct)

    @property
    def rel_gap(self) -> float:
        """Relative disagreement between the two evaluations."""
        return abs(self.log_direct - self.log_block_product) / max(1.0, abs(self.log_direct))


def scale_sum_at_neck(tree: VTree, x: float, k: int) -> NeckSums:
    """Sum of (ratio*weight)**x over the k-th neck generation, computed both
    straight through and as a product over neck-to-neck blocks.

    Only the environment sequence is consulted, so the generation itself
    need not be materialized.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    necks = tree.neck_levels
    if len(necks) < k:
        raise DepthExhaustedError(
            f"tree has {len(necks)} neck levels within {tree.env_levels} "
            f"environments, need {k}", extra_depth_hint=0)
    bounds = np.array((0,) + necks[:k])
    # A neck block starts at the common child type of the neck above it (the
    # root type for the first); one extra block runs from the root straight
    # to the k-th neck over the same levels. One call runs both in lockstep.
    roots = np.concatenate(([tree.root_type], tree.child[bounds[1:-1] - 1, 0, 0],
                            [tree.root_type]))
    levels = _kernels.segment_levels(tree.level_sys, tree.child, np.append(bounds[:-1], 0),
                                     np.append(np.diff(bounds), bounds[-1]))
    sums = _kernels.block_log_sums(levels, roots, tree.v_types, map_table(tree.catalog),
                                   x).tolist()
    return NeckSums(x=x, k=k, neck_levels=tuple(necks[:k]),
                    block_log_sums=sums[:-1], log_direct=sums[-1])


def neck_subtree(tree: VTree, level: int, depth: int,
                 node_cap: int = DEFAULT_NODE_CAP) -> VTree:
    """The common subtree rooted at any node of a neck generation.

    All generation-``level`` nodes of a neck level share one type and all
    deeper environments, so their subtrees coincide; this builds that shared
    subtree once, materialized to ``depth``.
    """
    if level == 0:
        start = tree.root_type
    else:
        if level not in tree.neck_levels:
            raise ValueError(f"level {level} is not a neck level")
        start = int(tree.child[level - 1, 0, 0])
    if level + depth > tree.env_levels:
        raise DepthExhaustedError(
            f"subtree at level {level} needs {depth} more environment levels",
            extra_depth_hint=level + depth - tree.env_levels)
    return build_tree(tree.catalog, tree.v_types, depth, root_type=start,
                      environments=(tree.level_sys[level:level + depth],
                                    tree.child[level:level + depth]),
                      node_cap=node_cap)


# ---------------------------------------------------------------------------
# Exports

def tree_to_jsonl(tree: VTree, fp) -> None:
    """One node per line, generation by generation, left to right: path
    (child positions from the root), type, system index (null in the last
    generation, which no system splits), ratio and weight products.

    Lines are JSON objects with sorted keys, ``", "``/``": "`` separators
    and ``repr`` floats, as ``json.dumps(..., sort_keys=True)`` writes them.
    Each node's path text extends its parent's, so the cost is linear in
    the node count.
    """
    paths, sep = [""], ""
    for level, gen in enumerate(tree.generations):
        if level:
            paths = [f"{paths[p]}{sep}{q}"
                     for p, q in zip(gen.parent.tolist(), gen.pos.tolist())]
            sep = ", "
        fp.writelines(
            f'{{"m_product": {m!r}, "path": [{path}], "r_product": {r!r}, '
            f'"system": {"null" if s < 0 else s}, "type": {t}}}\n'
            for path, t, s, r, m in zip(paths, gen.types.tolist(),
                                        gen.system.tolist(), gen.rprod.tolist(),
                                        gen.mprod.tolist()))


def environments_to_obj(tree: VTree) -> list:
    """Each level of the table as ``asdict`` of its ``Environment``."""
    n_maps = _map_counts(tree.catalog)
    return [asdict(Environment.from_row(level_sys, child, n_maps))
            for level_sys, child in zip(tree.level_sys, tree.child)]
