"""Extensive-form game trees with perfect recall.

A tree is a list of nodes (chance nodes with fixed distributions,
player-owned decision nodes, leaves with per-player payoffs) plus an
explicit information-set table.  Decision nodes sharing an information set
must share the owning player's own action-observation history (perfect
recall), which ``TreeBuilder.build`` verifies.

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
use them to identify decision points); they take no part in solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    probs: np.ndarray
    children: tuple[int, ...]


@dataclass(frozen=True)
class DecisionNode:
    player: int
    infoset: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class LeafNode:
    payoffs: np.ndarray  # [0, 1]-mapped units


@dataclass(frozen=True)
class Infoset:
    player: int
    num_actions: int
    nodes: tuple[int, ...]
    key: str


@dataclass(frozen=True)
class GameTree:
    """Immutable tree; node 0 is the root.

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

    ``leaf``/``decision``/``chance`` return node ids; ``build(root)``
    relabels nodes in breadth-first order from the root, groups decision
    nodes into infosets by (player, key), derives the [0, 1] payoff map and
    validates the perfect-recall property.
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
        order: list[int] = []
        seen: set[int] = set()
        queue = [root]
        while queue:
            nid = queue.pop(0)
            if nid in seen:
                raise ValueError("node referenced twice: not a tree")
            seen.add(nid)
            order.append(nid)
            raw = self._nodes[nid]
            if raw[0] == "decision":
                queue.extend(raw[3])
            elif raw[0] == "chance":
                queue.extend(raw[2])
        relabel = {old: new for new, old in enumerate(order)}

        infoset_ids: dict[tuple[int, str], int] = {}
        infoset_nodes: dict[int, list[int]] = {}
        infoset_actions: dict[int, int] = {}
        infoset_player: dict[int, int] = {}
        infoset_key: dict[int, str] = {}
        nodes: list = []
        raw_payoffs: list[np.ndarray] = []
        for new_id, old_id in enumerate(order):
            raw = self._nodes[old_id]
            if raw[0] == "leaf":
                raw_payoffs.append(raw[1])
                nodes.append(("leaf", len(raw_payoffs) - 1))
            elif raw[0] == "chance":
                nodes.append(ChanceNode(raw[1], tuple(relabel[c] for c in raw[2])))
            else:
                _, player, key, children = raw
                iid = infoset_ids.setdefault((player, key), len(infoset_ids))
                infoset_nodes.setdefault(iid, []).append(new_id)
                infoset_player[iid] = player
                infoset_key[iid] = key
                if infoset_actions.setdefault(iid, len(children)) != len(children):
                    raise ValueError(f"infoset {key!r}: inconsistent action counts")
                nodes.append(DecisionNode(player, iid,
                                          tuple(relabel[c] for c in children)))

        # per-player affine map into [0, 1]; identity when already inside
        payoff_matrix = (np.stack(raw_payoffs) if raw_payoffs
                         else np.zeros((0, self.num_players)))
        scale = np.ones(self.num_players)
        offset = np.zeros(self.num_players)
        for i in range(self.num_players):
            if payoff_matrix.shape[0] == 0:
                continue
            lo = float(payoff_matrix[:, i].min())
            hi = float(payoff_matrix[:, i].max())
            if 0.0 <= lo and hi <= 1.0:
                continue
            if hi > lo:
                scale[i], offset[i] = hi - lo, lo
            else:
                scale[i], offset[i] = 0.0, lo  # constant payoffs off [0, 1]
        mapped_nodes: list = []
        for nd in nodes:
            if isinstance(nd, tuple):
                raw_v = raw_payoffs[nd[1]]
                mapped = np.where(scale > 0.0, (raw_v - offset) / np.where(scale > 0.0, scale, 1.0), 0.5)
                mapped_nodes.append(LeafNode(mapped))
            else:
                mapped_nodes.append(nd)

        infosets = tuple(
            Infoset(infoset_player[i], infoset_actions[i],
                    tuple(infoset_nodes[i]), infoset_key[i])
            for i in range(len(infoset_ids))
        )
        own_sequences = _own_sequences(mapped_nodes, infosets)
        return GameTree(self.num_players, tuple(mapped_nodes), infosets,
                        scale, offset, own_sequences)


def _own_sequences(nodes, infosets) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-infoset own action history; raises on perfect-recall violations.

    Depth-first with an explicit stack (children pushed in reverse, so nodes
    are checked in pre-order), so the tree's depth is not bounded by
    Python's recursion limit."""
    history: dict[int, tuple[tuple[int, int], ...]] = {}
    stack: list[tuple[int, dict[int, tuple]]] = [(0, {})] if nodes else []
    while stack:
        nid, per_player = stack.pop()
        node = nodes[nid]
        if isinstance(node, LeafNode):
            continue
        if isinstance(node, ChanceNode):
            stack.extend((child, per_player) for child in reversed(node.children))
            continue
        own = per_player.get(node.player, ())
        prior = history.setdefault(node.infoset, own)
        if prior != own:
            key = infosets[node.infoset].key
            raise ValueError(f"perfect recall violated at infoset {key!r}")
        for action in reversed(range(len(node.children))):
            branched = dict(per_player)
            branched[node.player] = own + ((node.infoset, action),)
            stack.append((node.children[action], branched))
    return tuple(history.get(i, ()) for i in range(len(infosets)))


class CompiledTree:
    """A ``GameTree`` lowered to flat arrays (see ``efg.values``).

    Nodes are renumbered by *position*, their breadth-first rank from the
    root, so each depth is one contiguous range of positions and the
    children of a node are contiguous, in action order.  Per position:
    ``node_id``, ``parent`` (-1 at the root), ``depth``, ``rank`` among
    its siblings, ``mover`` (the player, ``num_players`` for chance, -1 at
    leaves), ``infoset`` (-1 off decision nodes), ``first_child`` and
    ``num_children``; ``members[j]`` holds infoset j's member positions in
    ``Infoset.nodes`` order.
    ``levels`` holds the ``(lo, hi)`` position range of every depth below
    the root; ``leaves`` and ``leaf_payoffs`` (one row per leaf) hold the
    payoff matrix.  Infoset j owns block j of one flat behavioural vector,
    cut by ``layout`` (a ``BlockLayout`` bucketing every infoset by action
    count; its ``size`` is P); ``player_layouts[i]``
    buckets player i's infosets only, for alternating updates.  The
    probability on the edge into position c is entry ``edge_source[c]`` of
    that vector followed by ``chance_probs`` (chance-edge probabilities,
    then a 1.0 for the root).  ``dfs_decisions`` lists the decision
    positions in depth-first pre-order, the order the recursive passes
    visit them in.

    The rest are gather/scatter indices for the passes: into the
    row-major (position, player) value matrix and the (position, player
    or chance) reach matrix, and the decision edges in pre-order.
    """

    def __init__(self, tree: GameTree):
        n = tree.num_players
        node_id, parent, rank, depth = [0], [-1], [0], [0]
        pos = 0
        while pos < len(node_id):
            node = tree.nodes[node_id[pos]]
            if not isinstance(node, LeafNode):
                for action, child in enumerate(node.children):
                    node_id.append(child)
                    parent.append(pos)
                    rank.append(action)
                    depth.append(depth[pos] + 1)
            pos += 1
        size = len(node_id)
        self.num_players = n
        self.size = size
        self.node_id = np.array(node_id, dtype=np.intp)
        self.parent = np.array(parent, dtype=np.intp)
        self.rank = np.array(rank, dtype=np.intp)
        self.depth = np.array(depth, dtype=np.intp)
        self.layout = BlockLayout([j.num_actions for j in tree.infosets])
        self.player_layouts = tuple(self.layout.restricted(tree.infosets_of(i))
                                    for i in range(n))
        offsets, dim = self.layout.offsets, self.layout.size

        mover = np.full(size, -1, dtype=np.intp)
        infoset = np.full(size, -1, dtype=np.intp)
        first_child = np.full(size, -1, dtype=np.intp)
        edge_source = np.empty(size, dtype=np.intp)
        chance_probs: list[float] = []
        for pos in range(size):
            node = tree.nodes[node_id[pos]]
            if isinstance(node, ChanceNode):
                mover[pos] = n
            elif isinstance(node, DecisionNode):
                mover[pos] = node.player
                infoset[pos] = node.infoset
            if pos == 0:
                continue
            up = parent[pos]
            if rank[pos] == 0:
                first_child[up] = pos
            if mover[up] == n:
                edge_source[pos] = dim + len(chance_probs)
                chance_probs.append(float(tree.nodes[node_id[up]].probs[rank[pos]]))
            else:
                edge_source[pos] = offsets[infoset[up]] + rank[pos]
        edge_source[0] = dim + len(chance_probs)
        chance_probs.append(1.0)
        self.mover, self.infoset, self.first_child = mover, infoset, first_child
        self.num_children = np.bincount(self.parent[1:], minlength=size)
        position = np.empty(size, dtype=np.intp)
        position[self.node_id] = np.arange(size)
        self.edge_source = edge_source
        self.chance_probs = np.array(chance_probs)
        self.parent_mover = np.where(self.parent >= 0, mover[self.parent], -1)
        self.levels = tuple(
            (int(np.searchsorted(self.depth, d, "left")),
             int(np.searchsorted(self.depth, d, "right")))
            for d in range(1, int(self.depth[-1]) + 1))
        self.leaves = np.flatnonzero(mover == -1)
        self.leaf_payoffs = np.array(
            [tree.nodes[node_id[p]].payoffs for p in self.leaves.tolist()],
            dtype=float).reshape(-1, n)
        self.members = tuple(position[list(j.nodes)] for j in tree.infosets)

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
        fan = self.num_children[self.dfs_decisions]
        edge_parent = np.repeat(self.dfs_decisions, fan)
        edge_rank = np.arange(edge_parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        self.edge_parent = edge_parent
        self.edge_value = (first_child[edge_parent] + edge_rank) * n + mover[edge_parent]
        self.edge_slot = offsets[infoset[edge_parent]] + edge_rank

    @cached_property
    def best_response_waves(self) -> tuple[tuple[BestResponseWave, ...], ...]:
        """Per player, the schedule ``values.best_response_value`` runs.

        A node's value needs its children's values; an own decision node
        also needs its infoset's chosen action, which needs the children of
        every member of that infoset, and members can sit at different
        depths.  So nodes are not swept by depth but by *height*: leaves
        are height 0, any other node not owned by the player sits one above
        its highest child, and an own node one above the highest child of
        its infoset's members.  Wave h computes the nodes of height h, then
        resolves the infosets whose highest member child has height h."""
        return tuple(self._waves_for(i) for i in range(self.num_players))

    def _waves_for(self, player: int) -> tuple[BestResponseWave, ...]:
        mover, parent = self.mover.tolist(), self.parent.tolist()
        infoset, fan = self.infoset.tolist(), self.num_children.tolist()
        first_child = self.first_child.tolist()
        height = [0] * self.size
        pending = list(fan)
        resolve_at = [0] * len(self.members)
        awaiting = [sum(fan[m] for m in members.tolist())
                    if mover[members[0]] == player else 0
                    for members in self.members]
        ready = self.leaves.tolist()
        while ready:
            child = ready.pop()
            up = parent[child]
            if up < 0:
                continue
            if mover[up] == player:
                j = infoset[up]
                resolve_at[j] = max(resolve_at[j], height[child])
                awaiting[j] -= 1
                if awaiting[j] == 0:
                    for member in self.members[j].tolist():
                        height[member] = resolve_at[j] + 1
                        ready.append(member)
            else:
                height[up] = max(height[up], height[child] + 1)
                pending[up] -= 1
                if pending[up] == 0:
                    ready.append(up)

        by_height: list[list[int]] = [[] for _ in range(height[0] + 1)]
        for pos in range(self.size):
            if mover[pos] != -1:
                by_height[height[pos]].append(pos)
        resolved_at: list[list[int]] = [[] for _ in range(height[0] + 1)]
        for j, members in enumerate(self.members):
            if mover[members[0]] == player:
                resolved_at[resolve_at[j]].append(j)
        waves = []
        for at, resolved in zip(by_height, resolved_at):
            summed = [p for p in at if mover[p] != player]
            slots, slot_children = [], []
            for j in resolved:
                start = int(self.layout.offsets[j])
                for member in self.members[j].tolist():
                    for action in range(fan[member]):
                        slots.append(start + action)
                        slot_children.append(first_child[member] + action)
            waves.append(BestResponseWave(
                sum_parents=np.repeat(np.array(summed, dtype=np.intp),
                                      [fan[p] for p in summed]),
                sum_children=np.array([first_child[p] + a for p in summed
                                       for a in range(fan[p])], dtype=np.intp),
                own=np.array([p for p in at if mover[p] == player], dtype=np.intp),
                resolved=np.array(resolved, dtype=np.intp),
                slots=np.array(slots, dtype=np.intp),
                slot_children=np.array(slot_children, dtype=np.intp)))
        return tuple(waves)


class BestResponseWave(NamedTuple):
    """One step of a best-response schedule (``CompiledTree``), in
    positions: nodes valued as the sum of their children (``sum_parents``
    repeated once per child in ``sum_children``, in action order), own
    nodes that take their chosen child's value, and own infosets resolved
    afterwards from per-slot sums over their members' children."""

    sum_parents: np.ndarray
    sum_children: np.ndarray
    own: np.ndarray
    resolved: np.ndarray
    slots: np.ndarray
    slot_children: np.ndarray


def save_tree(tree: GameTree, path) -> None:
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
    """One tokenized line as ("efg", n), ("infoset", id, row) or
    ("node", id, row); raises ValueError naming what is wrong."""
    head = parts[0]
    if head == "efg":
        if len(parts) != 2:
            raise ValueError("expected 'efg <num_players>'")
        return "efg", int(parts[1])
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
    node_rows: dict[int, tuple[int, tuple]] = {}  # id -> (line number, row)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                parsed = _parse_tree_line(parts)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if parsed[0] == "efg":
                num_players = parsed[1]
            elif parsed[0] == "infoset":
                infoset_rows[parsed[1]] = parsed[2]
            elif parsed[1] in node_rows:
                raise ValueError(f"{path}:{lineno}: node {parsed[1]} defined twice")
            else:
                node_rows[parsed[1]] = (lineno, parsed[2])
    if num_players is None:
        raise ValueError(f"{path}: missing efg header")
    if 0 not in node_rows:
        raise ValueError(f"{path}: missing root node 0")
    try:
        builder = TreeBuilder(num_players)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

    # children are built before their parent: an explicit post-order stack
    built: dict[int, int] = {}
    stack = [(0, False)]
    seen = {0}
    while stack:
        nid, expanded = stack.pop()
        lineno, row = node_rows[nid]
        where = f"{path}:{lineno}"
        if row[0] != "leaf" and not expanded:
            stack.append((nid, True))
            for child in reversed(row[-1]):
                if child not in node_rows:
                    raise ValueError(f"{where}: node {nid} has unknown child {child}")
                if child in seen:
                    raise ValueError(f"{where}: node {child} referenced twice")
                seen.add(child)
                stack.append((child, False))
            continue
        try:
            if row[0] == "leaf":
                if len(row[1]) != num_players:
                    raise ValueError(f"leaf {nid} payoff arity")
                built[nid] = builder.leaf(row[1])
            elif row[0] == "chance":
                built[nid] = builder.chance(row[1], [built[c] for c in row[2]])
            else:
                _, player, iid, children = row
                if iid not in infoset_rows:
                    raise ValueError(f"node {nid} uses unknown infoset {iid}")
                ip, acts, key = infoset_rows[iid]
                if ip != player or acts != len(children):
                    raise ValueError(f"node {nid} disagrees with infoset table")
                built[nid] = builder.decision(player, key,
                                              [built[c] for c in children])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    if len(built) != len(node_rows):
        raise ValueError(f"{path}: unreachable nodes present")
    try:
        return builder.build(built[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
