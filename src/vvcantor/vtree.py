"""Random trees with a bounded number of per-level types.

Each level of a tree is governed by an environment: an assignment, for every
type v in {0..V-1}, of a catalog system index and of the types handed to that
system's children. A level whose environment gives every child slot the same
type is a neck; below a neck all subtrees rooted at that generation are
identical, which is what makes cut sets and block factorizations cheap.

Environments are one table: ``level_sys[l, v]`` is the system of type v at
level l and ``child[l, v, i]`` the type of its child i, 0 past the system's
maps. Which slots hold a map is ``catalog.real_slots``, the one mask every
reader of the table uses. The table is stored in the dtype of
``LevelDraws``, which draws it level by level for every lane of a
``Xoshiro256StarStarLanes`` (a tree's stream is one lane, each Monte Carlo
block another). It only ever indexes, so no arithmetic runs in its narrow
dtype. ``Environment`` is one level as a dataclass, the schema of
``environments.json``.

Trees separate two depths. The environment sequence can be long (it costs a
few integers per level), while node generations are materialized only to the
requested depth, with an explicit node cap; the condensed counts
(``condense``) and the Monte Carlo blocks only need the environments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import compress

import numpy as np

from ._format import _BLOCK_ROWS
from ._kernels import groups
from .catalog import Catalog, map_table, real_slots, scale_extrema
from .errors import DepthExhaustedError, TreeTooLargeError
from .rng import Xoshiro256StarStar, categorical_index, cumulative_probs

DEFAULT_NODE_CAP = 10_000_000


def neck_mask(child, real) -> np.ndarray:
    """Which levels of the table rows ``child`` are necks: every slot that
    ``real`` (``real_slots``) marks holds the same type. Slot 0 of type 0
    always exists. Types and slots are the last two axes, as in the table
    (levels, V, W); ``LevelDraws``' lanes-last rows (V, W, lanes) pass
    ``rows.transpose(2, 0, 1)`` views."""
    return ((child == child[..., :1, :1]) | ~real).all(axis=(-2, -1))


class LevelDraws:
    """Draws one level of the environment table per lane.

    Draw order (reproducibility contract), per level: the system of each
    type 0..V-1, one ``rng.categorical_index`` draw on the catalog's index
    distribution each; then the child types type by type, map slot by map
    slot, one ``randint(V)`` each. A lane draws only the slots its type's system has,
    so its stream does not depend on the other lanes. ``dtype``, the
    smallest unsigned dtype that holds a type and a system, is the table's.

    The rows come lanes-last, as the generator makes them: one uniform row
    per draw, so ``level_sys`` is (V, lanes) and ``child`` and its real
    slots are (V, W, lanes), and every operation on them runs along the
    lanes. A one-lane caller reads its row as ``[..., 0]``.
    """

    def __init__(self, catalog: Catalog, v_types: int):
        if v_types < 1:
            raise ValueError("v_types must be >= 1")
        self.v_types = v_types
        self.real = real_slots(catalog)
        self._min_size = int(self.real.sum(axis=1).min())  # slots every system has
        self._real_t = np.ascontiguousarray(self.real.T)  # (W, systems)
        self._gate_t = self._real_t[self._min_size:].astype(np.uint64)  # as draw masks
        self.dtype = np.min_scalar_type(max(v_types, catalog.n_systems) - 1)
        self._cum = cumulative_probs(catalog.index_probs)

    def __call__(self, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(level_sys, child)`` of the next level for the lanes of the
        ``Xoshiro256StarStarLanes`` ``rng``, (V, lanes) and (V, W, lanes),
        and the real slots of ``child``."""
        v = self.v_types
        sys_ = categorical_index(self._cum, rng.uniforms([None] * v)).astype(self.dtype)
        gate = self._gate_t.take(sys_, axis=1)  # has slot i, as 0 or 1
        u = rng.uniforms([None if i < self._min_size else gate[i - self._min_size, t]
                          for t in range(v) for i in range(self.real.shape[1])])
        # A lane without slot i drew 0 there, so its child type is 0.
        child = np.multiply(u, v, out=u).reshape(v, self.real.shape[1], -1).astype(self.dtype)
        return sys_, child, self._real_t.take(sys_, axis=1).transpose(1, 0, 2)


@dataclass(frozen=True)
class Environment:
    """Per-type system indices and child-type rows for one level.

    ``indices[v]`` is the catalog system assigned to type v and
    ``child_types[v][i]`` the type handed to the i-th child of a type-v node.
    """

    indices: tuple[int, ...]
    child_types: tuple[tuple[int, ...], ...]

    @classmethod
    def from_row(cls, level_sys, child, real) -> Environment:
        """One level ``(level_sys, child)`` of the table; ``real`` is ``real_slots``."""
        return cls(tuple(level_sys.tolist()),
                   tuple(tuple(compress(row, has)) for row, has in
                         zip(child.tolist(), real[level_sys].tolist())))

    @property
    def is_neck(self) -> bool:
        """Every child slot holds the same type."""
        return len({t for row in self.child_types for t in row}) == 1


def sample_environment(catalog: Catalog, v_types: int, rng: Xoshiro256StarStar) -> Environment:
    """Draw one level with ``LevelDraws`` from the one-lane ``rng``."""
    draw = LevelDraws(catalog, v_types)
    level_sys, child, _ = draw(rng)
    return Environment.from_row(level_sys[..., 0], child[..., 0], draw.real)


@dataclass
class Generation:
    """Node arrays for one generation (parent-major, left to right). The
    systems that split generation g are ``tree.level_sys[g][types]``."""

    parent: np.ndarray  # index into previous generation, -1 for the root
    pos: np.ndarray     # map position within the parent's system
    types: np.ndarray   # in the table's dtype
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
        necks = neck_mask(child, real_slots(catalog)[level_sys])
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
                 real: np.ndarray) -> None:
    """Reject a caller's table that does not fit the tree and catalog (its
    ``real_slots``), naming the first level and type, in order, that does not."""
    if not (level_sys.ndim == 2 and child.ndim == 3
            and level_sys.shape == child.shape[:2] == (len(level_sys), v_types)):
        raise ValueError("environment type count does not match the tree")
    known = (level_sys >= 0) & (level_sys < len(real))
    has = real[np.where(known, level_sys, 0)]
    w = min(child.shape[2], real.shape[1])
    bad = (child[..., :w] < 0) | (child[..., :w] >= v_types)
    problem = np.select([~known, has[..., w:].any(axis=2), (has[..., :w] & bad).any(axis=2)],
                        [1, 2, 3])
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
    None). ``env_levels``, the number of levels drawn (default ``depth``),
    may exceed ``depth`` so that operations needing only environments can
    look past the materialized part; a given table has its own length, so
    passing both is an error. Raises ``TreeTooLargeError`` before
    allocating anything past ``node_cap``, checking drawn levels as they
    are drawn. Each generation is split as ``condense`` splits keys: one
    ``np.nonzero`` over the real map slots of every node's system gives
    the children's parents and slots, parent-major and slot-ascending.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if environments is not None and env_levels is not None:
        raise ValueError("env_levels is the length of the given environments")
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

    # Size precheck from per-type counts (Python ints, no overflow).
    counts = [0] * v_types
    counts[root_type] = 1
    total_nodes = 1

    def grow(g: int, sys_row, child_row) -> None:
        nonlocal counts, total_nodes
        nxt = [0] * v_types
        for count, row, has in zip(counts, child_row.tolist(), draw.real[sys_row].tolist()):
            for t in compress(row, has):
                nxt[t] += count
        counts = nxt
        total_nodes += sum(counts)
        if total_nodes > node_cap:
            raise TreeTooLargeError(
                f"tree needs more than {node_cap} nodes by generation {g + 1}")

    if environments is None:
        level_sys = np.empty((env_levels, v_types), draw.dtype)
        child = np.empty((env_levels, v_types, draw.real.shape[1]), draw.dtype)
        for g in range(env_levels):
            sys_, ch, _ = draw(rng)
            level_sys[g], child[g] = sys_[..., 0], ch[..., 0]
            if g < depth:
                grow(g, level_sys[g], child[g])
    else:
        level_sys, child = (np.asarray(a) for a in environments)
        _check_table(level_sys, child, v_types, draw.real)
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
        rprod=np.array([1.0]),
        mprod=np.array([1.0]),
        shift=np.array([0.0]),
    )
    generations = [root]
    for g in range(depth):
        gen = generations[-1]
        parent_sys = level_sys[g][gen.types]
        parent, pos = np.nonzero(draw.real[parent_sys])  # parent-major, slots in order
        system = parent_sys[parent]
        generations.append(Generation(
            parent=parent,
            pos=pos,
            types=child[g][gen.types[parent], pos],
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
    products: np.ndarray    # ratio*weight cumulative product
    size: int
    harmonic_scale: float   # M_k / sum of member products
    max_gap: int            # largest n(l) - n(l-1) over members


def cut_set(tree: VTree, k: int) -> CutSet:
    """Members, one per deep path, selected at neck levels by exp(-k), in
    (level, node index) order: each level's members are found in node order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return CutSet(0, np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1), 1, 1.0, 0)
    thr = math.exp(-float(k))
    neck_set = set(l for l in tree.neck_levels if l <= tree.depth)

    levels, nodes, prods = [], [], []
    anchor = np.ones(1)  # product at the nearest neck at or above each node
    prev_neck = max_gap = 0
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
                prods.append(prod[idx])
                max_gap = max(max_gap, g - prev_neck)
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
            f"needs at least {hint} more levels")
    if not (member_count == 1).all():
        raise AssertionError("cut-set property violated: some path not covered exactly once")

    levels = np.concatenate(levels)
    nodes = np.concatenate(nodes)
    prods = np.concatenate(prods)
    size = int(levels.shape[0])
    return CutSet(
        k=k, levels=levels, node_index=nodes, products=prods, size=size,
        harmonic_scale=size / float(prods.sum()), max_gap=max_gap,
    )


def neck_subtree(tree: VTree, level: int) -> VTree:
    """The subtree shared by every node of neck generation ``level`` (or
    the whole tree at level 0): its root alone, of the type all those nodes
    have, with the table below them, ``tree.env_levels - level`` levels.
    Raises ``ValueError`` for a level that is not a neck."""
    if level == 0:
        start = tree.root_type
    else:
        if level not in tree.neck_levels:
            raise ValueError(f"level {level} is not a neck level")
        start = int(tree.child[level - 1, 0, 0])
    return build_tree(tree.catalog, tree.v_types, 0, root_type=start,
                      environments=(tree.level_sys[level:], tree.child[level:]))


# ---------------------------------------------------------------------------
# Exports

def _classes(parent_class, classes: int, gen: Generation, width: int):
    """Each node's class and one node of each class in ``gen``. A class
    holds the nodes with equal ``m_product``, ``r_product`` and type bits.
    ``build_tree`` fixes these from the parent's and the slot (the parent's
    type fixes its system), so one node per occurring (parent's class,
    slot) pair is read, and pairs with the same bits share a class."""
    pair = parent_class.take(gen.parent) * width
    pair += gen.pos
    rep = np.full(classes * width, -1, np.intp)
    rep[pair] = np.arange(pair.shape[0])
    occurs = np.flatnonzero(rep >= 0)
    rep = rep[occurs]
    group, first = groups(gen.mprod[rep], gen.rprod[rep], gen.types[rep])
    pair_class = np.empty(classes * width, np.intp)
    pair_class[occurs] = group
    return pair_class.take(pair), rep[first]


def tree_to_jsonl(tree: VTree, fp) -> None:
    """One node per line, generation by generation, left to right: path
    (child positions from the root), type, system index (``level_sys`` of
    the node's generation and type; null in the last generation, which no
    system splits), ratio and weight products.

    Lines are JSON objects with sorted keys, ``", "``/``": "`` separators
    and ``repr`` floats, as ``json.dumps(..., sort_keys=True)`` writes them.
    Paths are object arrays of text: a generation's paths are its parents'
    gathered by ``parent``, plus the suffix of each node's slot gathered by
    ``pos`` (``"q"`` below the root, ``", q"`` further down), so the cost
    is linear in the node count. The rest of a line is the same for all
    nodes of a class (equal products and type, ``_classes``), and the text
    before the path (``m_product``) and the text after it (``r_product``
    and type) are formatted once per distinct value among the classes.
    Each block of lines is joined from one reused (rows, 3) object buffer.
    """
    small = [str(i) for i in range(max(tree.v_types, tree.catalog.n_systems))]
    width = tree.child.shape[2]
    suffix = np.array([str(q) for q in range(width)], dtype=object)
    paths = np.array([""], dtype=object)
    node_class = rep = np.zeros(1, np.intp)
    for level, gen in enumerate(tree.generations):
        if level:
            paths = paths.take(gen.parent) + suffix.take(gen.pos)
            suffix = np.array([f", {q}" for q in range(width)], dtype=object)
            node_class, rep = _classes(node_class, rep.shape[0], gen, width)
        # Texts per distinct value among the classes, gathered to the classes.
        mprod, rprod, types = gen.mprod[rep], gen.rprod[rep], gen.types[rep]
        head_of, first = groups(mprod)
        heads = np.array([f'{{"m_product": {m!r}, "path": ['
                          for m in mprod[first].tolist()], dtype=object).take(head_of)
        tail_of, first = groups(rprod, types)
        types = types[first].tolist()
        systems = ([small[s] for s in tree.level_sys[level][types].tolist()]
                   if level < tree.depth else ["null"] * len(types))
        tails = np.array([f'], "r_product": {r!r}, "system": {s}, "type": {small[t]}}}\n'
                          for r, s, t in zip(rprod[first].tolist(), systems, types)],
                         dtype=object).take(tail_of)
        lines = np.empty((min(gen.size, _BLOCK_ROWS), 3), dtype=object)
        for lo in range(0, gen.size, _BLOCK_ROWS):
            block = lines[:gen.size - lo]
            hi = lo + block.shape[0]
            block[:, 0] = heads.take(node_class[lo:hi])
            block[:, 1] = paths[lo:hi]
            block[:, 2] = tails.take(node_class[lo:hi])
            fp.write("".join(block.ravel().tolist()))


def environments_to_obj(tree: VTree) -> list:
    """Each level of the table as ``asdict`` of its ``Environment``."""
    real = real_slots(tree.catalog)
    return [asdict(Environment.from_row(level_sys, child, real))
            for level_sys, child in zip(tree.level_sys, tree.child)]
