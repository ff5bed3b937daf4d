"""Extensive-form game trees with perfect recall.

A tree is a list of nodes (chance nodes with fixed distributions,
player-owned decision nodes, leaves with per-player payoffs) plus an
explicit information-set table.  Decision nodes sharing an information set
must share the owning player's own action-observation history (perfect
recall).  ``TreeBuilder.build``, one breadth-first pass, is the one
validator of a tree and numbers its nodes in that order, and ``load_tree``
builds through it; ``CompiledTree`` lowers a tree to flat arrays in one
more pass, over the nodes in that numbering.

Leaf payoffs are supplied in whatever units the game is naturally stated
in; the solver-facing payoffs are affinely mapped into [0, 1] per player
(identity when the payoffs already lie there), and the map is stored so
reported exploitability can be converted back to original units.

Tree file grammar (``save_tree`` / ``load_tree``)
-------------------------------------------------
Line-oriented plain text; blank lines and ``#`` comments are ignored;
node 0 is the root and children are given by id.  Leaf payoffs are written
in original units (the [0, 1] map is re-derived on load)::

    efg <num_players>
    infoset <id> player <i> actions <k> key <token>
    ...
    node <id> chance <k> <p_1> ... <p_k> <child_1> ... <child_k>
    node <id> player <i> infoset <iid> <k> <child_1> ... <child_k>
    node <id> leaf <v_1> ... <v_num_players>

Infoset keys are opaque whitespace-free tokens without ``#`` (builders
use them to identify decision points); they take no part in solving.  The
header comes once, each id is defined once, and each (player, key) too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core import BlockLayout

__all__ = [
    "ChanceNode",
    "DecisionNode",
    "LeafNode",
    "Infoset",
    "GameTree",
    "TreeBuilder",
    "CompiledTree",
    "save_tree",
    "load_tree",
]


@dataclass(frozen=True)
class ChanceNode:
    """Chance picks child k with probability ``probs[k]``."""
    probs: np.ndarray
    children: tuple[int, ...]


@dataclass(frozen=True)
class DecisionNode:
    """A move by ``player`` at a member of ``infoset``: action k to child k."""
    player: int
    infoset: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class LeafNode:
    """Per-player payoffs, in the tree's [0, 1] units."""
    payoffs: np.ndarray


@dataclass(frozen=True)
class Infoset:
    """``player``'s indistinguishable ``nodes``, each with ``num_actions``."""
    player: int
    num_actions: int
    nodes: tuple[int, ...]
    key: str


@dataclass(frozen=True)
class GameTree:
    """Immutable tree; node 0 is the root, and nodes are numbered
    breadth-first with each node's children contiguous, in action order
    (``TreeBuilder.build`` makes every tree, and numbers it so).

    ``payoff_scale``/``payoff_offset`` recover original payoff units from
    the stored [0, 1] values: original = scale * stored + offset.
    """

    num_players: int
    nodes: tuple
    infosets: tuple[Infoset, ...]
    payoff_scale: np.ndarray
    payoff_offset: np.ndarray
    own_sequences: tuple[tuple[tuple[int, int], ...], ...]  # per infoset

    @property
    def behavioral_dim(self) -> int:
        """P = total number of (infoset, action) pairs."""
        return self.compiled.layout.size

    def infosets_of(self, player: int) -> list[int]:
        return [i for i, j in enumerate(self.infosets) if j.player == player]

    def original_leaf_payoffs(self, node_id: int) -> np.ndarray:
        leaf = self.nodes[node_id]
        return self.payoff_scale * leaf.payoffs + self.payoff_offset

    @cached_property
    def compiled(self) -> CompiledTree:
        """Flat-array layout the value passes run on, built on first use.

        Cached outside the dataclass fields, so equality and the tree's
        construction cost are unaffected."""
        return CompiledTree(self)


class TreeBuilder:
    """Bottom-up tree construction: create children first, then parents.

    ``leaf``/``decision``/``chance`` return node ids; ``build(root)``, in
    one breadth-first pass from the root, relabels the nodes in that order,
    groups decision nodes into infosets by (player, key) and validates the
    perfect-recall property; then it derives the [0, 1] payoff map, which
    a player's payoffs spanning more than the float range cannot have.
    """

    def __init__(self, num_players: int):
        if num_players < 1:
            raise ValueError("need at least one player")
        self.num_players = num_players
        self._nodes: list = []

    def leaf(self, payoffs) -> int:
        payoffs = np.asarray(payoffs, dtype=float)
        if payoffs.shape != (self.num_players,):
            raise ValueError("one payoff per player required")
        if not np.all(np.isfinite(payoffs)):
            raise ValueError("non-finite leaf payoff")
        self._nodes.append(("leaf", payoffs))
        return len(self._nodes) - 1

    def decision(self, player: int, key: str, children) -> int:
        if not 0 <= player < self.num_players:
            raise ValueError(f"bad player {player}")
        # "#" starts a comment in tree files: such a key would not load back
        if not key or "#" in key or any(c.isspace() for c in key):
            raise ValueError("infoset keys must be nonempty, whitespace-free "
                             "and without '#'")
        children = tuple(int(c) for c in children)
        if not children:
            raise ValueError("decision node needs at least one action")
        self._nodes.append(("decision", player, key, children))
        return len(self._nodes) - 1

    def chance(self, probs, children) -> int:
        probs = np.asarray(probs, dtype=float)
        children = tuple(int(c) for c in children)
        if probs.shape != (len(children),):
            raise ValueError("one probability per child required")
        if (not np.all(np.isfinite(probs)) or np.any(probs < 0.0)
                or abs(probs.sum() - 1.0) > 1e-9):
            raise ValueError("chance probabilities must be finite, nonnegative "
                             "and sum to 1")
        self._nodes.append(("chance", probs, children))
        return len(self._nodes) - 1

    def build(self, root: int) -> GameTree:
        # (player, key) -> (infoset id, action count, member nodes, the
        # player's own (infoset, action) history at the first member)
        table: dict[tuple[int, str], tuple[int, int, list[int], tuple]] = {}
        nodes: list = []  # a leaf holds its row of ``payoffs`` until mapped
        leaf_rows: list[np.ndarray] = []
        # breadth-first from the root: ``order`` and ``histories`` (per
        # node, each player's own history on the way down) grow while read
        order, seen, histories = [root], {root}, [{}]
        for new_id, old_id in enumerate(order):
            raw = self._nodes[old_id]
            if raw[0] == "leaf":
                nodes.append(len(leaf_rows))
                leaf_rows.append(raw[1])
                continue
            children = tuple(range(len(order), len(order) + len(raw[-1])))
            order.extend(raw[-1])
            seen.update(raw[-1])
            if len(seen) != len(order):
                raise ValueError("node referenced twice: not a tree")
            history = histories[new_id]
            if raw[0] == "chance":
                nodes.append(ChanceNode(raw[1], children))
                histories.extend([history] * len(children))
                continue
            _, player, key, _ = raw
            own = history.get(player, ())
            iid, actions, members, first_own = table.setdefault(
                (player, key), (len(table), len(children), [], own))
            if actions != len(children):
                raise ValueError(f"infoset {key!r}: inconsistent action counts")
            if first_own != own:
                raise ValueError(f"perfect recall violated at infoset {key!r}")
            members.append(new_id)
            nodes.append(DecisionNode(player, iid, children))
            histories.extend({**history, player: own + ((iid, action),)}
                             for action in range(len(children)))

        # per-player affine map into [0, 1]; identity when already inside.
        # Each column reduces on its own, as a 1-D view: a 2-D reduction
        # may pick the other zero among +0.0 and -0.0.
        payoffs = np.array(leaf_rows, dtype=float).reshape(-1, self.num_players)
        scale = np.ones(self.num_players)
        offset = np.zeros(self.num_players)
        for i, column in enumerate(payoffs.T if len(payoffs) else ()):
            lo, hi = float(column.min()), float(column.max())
            if lo < 0.0 or hi > 1.0:  # scale 0: constant payoffs off [0, 1]
                if not np.isfinite(hi - lo):
                    raise ValueError(f"player {i}: leaf payoffs span more "
                                     "than the float range")
                scale[i], offset[i] = hi - lo, lo
        mapped = np.where(scale > 0.0,
                          (payoffs - offset) / np.where(scale > 0.0, scale, 1.0),
                          0.5)
        nodes = [LeafNode(mapped[nd]) if isinstance(nd, int) else nd
                 for nd in nodes]
        infosets = tuple(Infoset(player, actions, tuple(members), key)
                         for (player, key), (_, actions, members, _)
                         in table.items())
        return GameTree(self.num_players, tuple(nodes), infosets, scale, offset,
                        tuple(entry[3] for entry in table.values()))


class CompiledTree:
    """A ``GameTree`` lowered to flat arrays (see ``efg.values``).

    A node's *position* is its id: ``TreeBuilder.build`` numbers nodes
    breadth-first from the root, so each depth is one contiguous range of
    positions and the children of a node are contiguous, in action order.
    Per position: ``parent`` (-1 at the root), ``mover`` (the player,
    ``num_players`` for chance, -1 at leaves), ``infoset`` (-1 off
    decision nodes), ``first_child`` and ``num_children``.
    ``levels`` holds the ``(lo, hi)`` position range of every depth below
    the root; ``leaves`` and ``leaf_payoffs`` (one row per leaf) hold the
    payoff matrix.  Infoset j owns block j of one flat behavioural vector,
    cut by ``layout`` (a ``BlockLayout`` bucketing every infoset by action
    count; its ``size`` is P).  The probability on the edge into position
    c is entry ``edge_source[c]`` of that vector followed by
    ``chance_probs`` (chance-edge probabilities, then a 1.0 for the root).
    ``dfs_decisions`` lists the decision positions in depth-first
    pre-order, the order the recursive passes visit them in.

    The rest are gather/scatter indices for the passes, into the
    row-major (position, player) value matrix and the (position, player
    or chance) reach matrix; ``groups`` holds the edge table of every
    update group.
    """

    def __init__(self, tree: GameTree):
        n = tree.num_players
        self.layout = BlockLayout([j.num_actions for j in tree.infosets])
        offsets, dim = self.layout.offsets.tolist(), self.layout.size
        parent, depth = [-1], [0]
        mover, infoset, first_child = [], [], []
        edge_source, chance_probs = [-1], []
        for pos, node in enumerate(tree.nodes):
            if isinstance(node, LeafNode):
                mover.append(-1)
                infoset.append(-1)
                first_child.append(-1)
                continue
            k = len(node.children)
            first_child.append(node.children[0])
            if isinstance(node, ChanceNode):
                mover.append(n)
                infoset.append(-1)
                start = dim + len(chance_probs)
                chance_probs.extend(node.probs.tolist())
            else:
                mover.append(node.player)
                infoset.append(node.infoset)
                start = offsets[node.infoset]
            edge_source.extend(range(start, start + k))
            parent.extend([pos] * k)
            depth.extend([depth[pos] + 1] * k)
        edge_source[0] = dim + len(chance_probs)
        chance_probs.append(1.0)
        size = len(tree.nodes)
        self.num_players, self.size = n, size
        (self.parent, self.mover, self.infoset, self.first_child,
         self.edge_source) = (
            np.array(column, dtype=np.intp)
            for column in (parent, mover, infoset, first_child, edge_source))
        mover, infoset, first_child = self.mover, self.infoset, self.first_child
        self.chance_probs = np.array(chance_probs)
        self.num_children = np.bincount(self.parent[1:], minlength=size)
        self.parent_mover = np.where(self.parent >= 0, mover[self.parent], -1)
        self.levels = tuple(
            (bisect_left(depth, d), bisect_right(depth, d))
            for d in range(1, depth[-1] + 1))
        self.leaves = np.flatnonzero(mover == -1)
        self.leaf_payoffs = np.array(
            [tree.nodes[p].payoffs for p in self.leaves.tolist()],
            dtype=float).reshape(-1, n)

        dfs: list[int] = []
        stack = [0]
        while stack:
            pos = stack.pop()
            if mover[pos] == -1:
                continue
            if mover[pos] < n:
                dfs.append(pos)
            first = int(first_child[pos])
            stack.extend(range(first + int(self.num_children[pos]) - 1, first - 1, -1))
        self.dfs_decisions = np.array(dfs, dtype=np.intp)

        m = n + 1
        below = np.arange(1, size)
        self.reach_gather = (self.parent[below, None] * m + np.arange(m)).ravel()
        self.reach_factor = below * m + mover[self.parent[below]]
        self.value_scatter = (self.parent[below, None] * n + np.arange(n)).ravel()
        self.dfs_own_slot = self.dfs_decisions * m + mover[self.dfs_decisions]
        self.dfs_infoset = infoset[self.dfs_decisions]

    @cached_property
    def groups(self) -> dict:
        """One table per update group, keyed ``None`` for every infoset and
        i for player i's: the group's ``BlockLayout`` and its decision
        edges in pre-order, as the parent's reach entries but the mover's
        (``(num_players, edges)``, in column order), the child's entry in
        the group's node values and the behavioural slot."""
        n = self.num_players
        fan = self.num_children[self.dfs_decisions]
        parent = np.repeat(self.dfs_decisions, fan)
        rank = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        mover, infoset = self.mover[parent], self.infoset[parent]
        column = np.arange(n)[:, None]
        others = parent * (n + 1) + column + (column >= mover)  # skip the mover
        child = self.first_child[parent] + rank
        slot = self.layout.offsets[infoset] + rank
        return {None: (self.layout, others, child * n + mover, slot),
                **{i: (self.layout.restricted(np.unique(infoset[own])),
                       others[:, own], child[own], slot[own])
                   for i in range(n) for own in [mover == i]}}


def save_tree(tree: GameTree, path) -> None:
    """Write ``tree`` in the tree grammar, with its original payoffs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"efg {tree.num_players}\n")
        for iid, iset in enumerate(tree.infosets):
            fh.write(f"infoset {iid} player {iset.player} "
                     f"actions {iset.num_actions} key {iset.key}\n")
        for nid, node in enumerate(tree.nodes):
            if isinstance(node, ChanceNode):
                probs = " ".join(f"{p:.17g}" for p in node.probs)
                kids = " ".join(str(c) for c in node.children)
                fh.write(f"node {nid} chance {len(node.children)} {probs} {kids}\n")
            elif isinstance(node, DecisionNode):
                kids = " ".join(str(c) for c in node.children)
                fh.write(f"node {nid} player {node.player} infoset {node.infoset} "
                         f"{len(node.children)} {kids}\n")
            else:
                original = tree.original_leaf_payoffs(nid)
                fh.write("node " + str(nid) + " leaf "
                         + " ".join(f"{v:.17g}" for v in original) + "\n")


def _parse_tree_line(parts: list[str]) -> tuple:
    """One tokenized line as ("efg", n, None), ("infoset", id, row) or
    ("node", id, row); raises ValueError naming what is wrong."""
    head = parts[0]
    if head == "efg":
        if len(parts) != 2:
            raise ValueError("expected 'efg <num_players>'")
        return "efg", int(parts[1]), None
    if head == "infoset":
        if len(parts) != 8 or parts[2::2] != ["player", "actions", "key"]:
            raise ValueError("expected 'infoset <id> player <i> actions <k> "
                             "key <token>'")
        return "infoset", int(parts[1]), (int(parts[3]), int(parts[5]), parts[7])
    if head != "node":
        raise ValueError(f"unknown directive {head!r}")
    if len(parts) < 3:
        raise ValueError("expected 'node <id> <kind> ...'")
    nid, kind = int(parts[1]), parts[2]
    if kind == "leaf":
        return "node", nid, ("leaf", [float(v) for v in parts[3:]])
    if kind == "chance":
        k = int(parts[3]) if len(parts) > 3 else -1
        if k < 0 or len(parts) != 4 + 2 * k:
            raise ValueError(f"malformed chance node {nid}: expected "
                             "'node <id> chance <k> <p_1..p_k> <child_1..child_k>'")
        return "node", nid, ("chance", [float(v) for v in parts[4:4 + k]],
                             [int(v) for v in parts[4 + k:]])
    if kind == "player":
        k = int(parts[6]) if len(parts) > 6 else -1
        if k < 0 or parts[4] != "infoset" or len(parts) != 7 + k:
            raise ValueError(f"malformed decision node {nid}: expected "
                             "'node <id> player <i> infoset <iid> <k> "
                             "<child_1..child_k>'")
        return "node", nid, ("decision", int(parts[3]), int(parts[5]),
                             [int(v) for v in parts[7:]])
    raise ValueError(f"unknown node kind {kind!r}")


def load_tree(path) -> GameTree:
    """Parse a tree file and rebuild it (payoff map re-derived).

    Every malformed input raises ValueError naming the file and, where one
    line is at fault, its line number."""
    num_players = None
    infoset_rows: dict[int, tuple[int, int, str]] = {}
    infoset_of: dict[tuple, int] = {}  # (player, key), as row[::2] -> id
    node_rows: dict[int, tuple[int, tuple]] = {}  # id -> (line number, row)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                kind, ident, row = _parse_tree_line(parts)
                if kind == "efg":
                    if num_players is not None:
                        raise ValueError("second efg header")
                    num_players = ident
                elif ident in (infoset_rows if kind == "infoset" else node_rows):
                    raise ValueError(f"{kind} {ident} defined twice")
                elif kind == "node":
                    node_rows[ident] = (lineno, row)
                elif infoset_of.setdefault(row[::2], ident) != ident:
                    raise ValueError(f"infoset {ident} repeats the player and "
                                     f"key of infoset {infoset_of[row[::2]]}")
                else:
                    infoset_rows[ident] = row
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if num_players is None:
        raise ValueError(f"{path}: missing efg header")
    if 0 not in node_rows:
        raise ValueError(f"{path}: missing root node 0")
    try:
        builder = TreeBuilder(num_players)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

    # the builder numbers nodes in file order, so every child's builder id
    # is known before the child is added; naming the root as a child is
    # naming it twice
    ids = {nid: k for k, nid in enumerate(node_rows)}
    has_parent = {0}
    for nid, (lineno, row) in node_rows.items():
        try:
            if row[0] == "leaf":
                if len(row[1]) != num_players:
                    raise ValueError(f"leaf {nid} payoff arity")
                builder.leaf(row[1])
                continue
            for child in row[-1]:
                if child not in ids:
                    raise ValueError(f"node {nid} has unknown child {child}")
                if child in has_parent:
                    raise ValueError(f"node {child} referenced twice")
                has_parent.add(child)
            children = [ids[c] for c in row[-1]]
            if row[0] == "chance":
                builder.chance(row[1], children)
                continue
            _, player, iid, _ = row
            if iid not in infoset_rows:
                raise ValueError(f"node {nid} uses unknown infoset {iid}")
            ip, acts, key = infoset_rows[iid]
            if ip != player or acts != len(children):
                raise ValueError(f"node {nid} disagrees with infoset table")
            builder.decision(player, key, children)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        tree = builder.build(ids[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(tree.nodes) != len(node_rows):
        raise ValueError(f"{path}: unreachable nodes present")
    return tree
