"""Counterfactual value machinery on game trees.

Behavioral strategies are sequences of simplex blocks, one per infoset
(in ``tree.infosets`` order): a list of arrays, or a ``BlockVector``, one
flat vector in the compiled layout (``CompiledTree.layout``) read as
blocks.  The passes and the regret operator hand back their per-infoset
results in the form they were given: a ``BlockVector`` for a
``BlockVector``, else a list.  The counterfactual value of (player i,
infoset j, action a) is the reach-weighted expected payoff of committing
to a at j,

    G_ja(x) = sum over leaves below (j, a) of
              [ product of all chance/opponent probabilities on the path,
                and of i's own probabilities strictly below (j, a) ] * v_i,

i.e. player i's own probabilities above j are excluded.  The per-infoset
instantaneous regret is H_j = G_j - <G_j, x_j> 1, orthogonal to x_j.

All values here are in the tree's [0, 1] payoff units; ``exploitability``
converts its output back to original units via the stored affine map.

Passes
------
The passes run on ``tree.compiled``, the tree lowered to flat arrays in
its own node numbering, which is breadth-first (``CompiledTree``), in
two steps; whatever depends on the tree alone is a table there, so a
pass only gathers and multiplies.  The sweep (``_sweep``) depends on the
profile alone.  Its *source* is the profile's flat vector followed by
the chance probabilities and a last 1.0; one gather of it fills reach
with every factor (the probability on the edge into a position in its
parent mover's column, 1.0 elsewhere and at the root), and reach is then
formed in place, top-down, one multiply per depth:
``reach[rows] = reach[parent rows] * reach[rows]``, every column at once.
The group step (``_pass``) computes G from a sweep for an update group:
every infoset (``counterfactual_values``), or one player's (an
alternating CFR round's, through ``_group_regrets``, which can take a
sweep the round already made).  Node values (every player's, or the
group player's alone) start from a copy of the leaf values and take the
edge probabilities in one gather from the source; then, bottom-up, one
scatter per depth adds each position's weighted values into its parent's
(the per-depth (parent entries, rows) pairs of ``CompiledTree``).  Then,
over the group's decision edges in pre-order (``CompiledTree.groups``),
one product excludes the mover's reach and one scatter fills the
behavioural slots.  A player's entries are bit for bit
the full pass's: its column is swept alike, and each entry adds the same
products in the same order.  Nothing recurses, so a tree's depth is not
bounded by Python's recursion limit, and the per-node cost is numpy's,
except in best response: one interpreted pass in an order of its own
(``best_response_value``).

Summation order
---------------
Each pass returns exactly the floats of the straightforward recursive
pass (kept as the reference in the tests), so that trace files stay
byte-identical.  Floating-point addition is not associative, so every
sum and product keeps the recursive order:

* reach products run root to leaf, starting from 1.0;
* the opponents-and-chance weight of a decision edge multiplies the
  parent's reach of players 0..n-1, then chance, in index order, but the
  mover's own (the recursive pass's exact 1.0);
* a node's value starts from zeros and adds ``prob * child_value`` in
  action order (``np.add.at`` applies repeated indices one after another,
  in index order);
* an infoset's accumulator receives its member nodes' contributions in
  depth-first pre-order, which is not breadth-first order, because members
  can sit at different depths.

Cross-node reductions (``np.sum``, ``np.dot``, matmul, ``reduceat``) are
not used: numpy sums with pairwise or SIMD partial sums, whose rounding
differs from a left-to-right loop in the last bits.

Per-infoset work (the regret operator's ``<G_j, x_j>``, the CFR rounds'
steps, projections and normalizations, the recorder's step norms) runs
once per *width bucket*: the infosets that share an action count,
gathered from the flat vector as a C-contiguous ``(rows, width)`` stack
(``BlockLayout``).  On such a stack ``np.add.reduce(rows, 1)``,
``np.add.accumulate(rows, 1)`` and ``np.vecdot`` equal the per-block
``np.add.reduce``, ``np.add.accumulate`` and ``np.dot`` bit for bit
(checked on numpy 2.4 with OpenBLAS for widths 1-40), but at width 1
``np.vecdot`` adds a -0.0 product to +0.0 where ``np.dot`` keeps it.
The kernels call these ufunc methods, and ``np.logical_and.reduce`` for
their checks, directly: they are the loops that ``.sum()``,
``np.cumsum`` and ``.all()`` run, without numpy's Python-level wrappers
(see ``core``).  Cheaper-looking alternatives are not exact:

* padding blocks to one width: ``np.vecdot`` on zero-padded rows departs
  from the per-block ``np.dot`` from a padded width of 16, where BLAS
  switches kernels, and a small ``np.dot`` is a fused multiply-add chain
  that no separate multiply and add reproduces;
* ``np.add.reduceat`` departs from ``.sum()`` from width 3, as it
  computes ``a0 + (a1 + ...)``; ``einsum`` departs from width 2.

Elementwise work keeps the scalar code's order (``weight * reach[j] *
block`` is ``(weight * reach[j]) * block``), and sums across infosets (a
player's regret, the squared step) add left to right in infoset order,
starting from 0.0; Python's ``sum`` is not that order, as it compensates
since Python 3.12.  Maxima need no such care: they are exact in any order.
"""

from __future__ import annotations

import numpy as np

from ..core import BlockVector, as_flat
from ..core import joint_distance as behavioral_distance
from ..stabilized import initial_lifted_point
from .tree import CompiledTree, GameTree

__all__ = [
    "uniform_behavioral",
    "check_behavioral",
    "behavioral_distance",
    "counterfactual_values",
    "counterfactual_regret_operator",
    "expected_values",
    "leaf_excl_weights",
    "own_reach_per_infoset",
    "best_response_value",
    "exploitability",
    "counterfactual_lipschitz",
    "lifted_lipschitz",
    "contraction_step_size",
]


def uniform_behavioral(tree: GameTree) -> list[np.ndarray]:
    """The profile playing every action of every infoset equally often."""
    return initial_lifted_point([j.num_actions for j in tree.infosets])


def check_behavioral(tree: GameTree, x) -> list[np.ndarray]:
    """The profile's blocks as arrays; raises ValueError unless every block
    has its infoset's width and lies on the simplex, up to 1e-9."""
    blocks = [np.asarray(b, dtype=float) for b in x]
    if len(blocks) != len(tree.infosets):
        raise ValueError("one block per infoset required")
    for block, iset in zip(blocks, tree.infosets):
        if block.shape != (iset.num_actions,):
            raise ValueError(f"infoset {iset.key!r}: block dimension mismatch")
        if (not np.isfinite(block).all() or np.any(block < -1e-9)
                or abs(block.sum() - 1.0) > 1e-9):
            raise ValueError(f"infoset {iset.key!r}: block not on the simplex")
    return blocks


def _like(x, vector: np.ndarray, flat: CompiledTree):
    """Per-infoset results in the profile's form (see the docstring)."""
    if isinstance(x, BlockVector):
        return BlockVector(vector, flat.layout)
    return [vector[lo:hi] for lo, hi in flat.layout.bounds]


def _source(flat: CompiledTree, x) -> np.ndarray:
    """The profile's flat vector followed by ``chance_probs``: every edge
    probability, and the root's 1.0 last."""
    source = np.concatenate([as_flat(x), flat.chance_probs])
    if source.size != flat.layout.size + flat.chance_probs.size:
        raise ValueError("profile does not match the tree's infosets")
    return source


def _node_values(flat: CompiledTree, source: np.ndarray, player=None) -> np.ndarray:
    """Expected payoff below every position, flat row-major (position,
    player): every player's (``player`` None), or ``player``'s alone."""
    if player is None:
        values, probs = flat.leaf_values.copy(), source[flat.value_source]
        levels = flat.value_levels
    else:
        values = flat.leaf_values[player::flat.num_players].copy()
        probs, levels = source[flat.edge_source], flat.column_levels
    for scatter, rows in levels:
        np.add.at(values, scatter, values[rows] * probs[rows])
    return values


def _sweep(flat: CompiledTree, x) -> tuple[np.ndarray, np.ndarray]:
    """A profile's top-down sweep: its source vector (``_source``) and
    reach, flat row-major (position, k): k < n is player k's own
    probability product on the path, k = n chance's."""
    source = _source(flat, x)
    reach = source[flat.reach_source]
    for parents, rows in flat.reach_levels:
        np.multiply(reach[parents], reach[rows], out=reach[rows])
    return source, reach


def _pass(flat: CompiledTree, sweep, player) -> np.ndarray:
    """G from a profile's sweep on the infosets of ``player``'s update group
    (every infoset for ``None``), flat, the other entries left at zero."""
    source, reach = sweep
    values = _node_values(flat, source, player)
    _, others, children, slots = flat.groups[player]
    factors = reach[others]
    excl = factors[0]
    for k in range(1, len(factors)):  # in column order
        excl = excl * factors[k]
    g = np.zeros(flat.layout.size)
    np.add.at(g, slots, excl * values[children])
    return g


def counterfactual_values(tree: GameTree, x, validate: bool = True) -> list[np.ndarray]:
    """All counterfactual values in one top-down and one bottom-up sweep.

    ``validate=False`` skips the per-infoset simplex check: a CFR round's
    full pass (``_group_regrets``) calls this name, which perfbench's
    tracer counts, on a profile the round made itself."""
    if validate:
        check_behavioral(tree, x)
    flat = tree.compiled
    return _like(x, _pass(flat, _sweep(flat, x), None), flat)


def _group_regrets(tree: GameTree, profile: np.ndarray, player,
                   sweep=None) -> np.ndarray:
    """H at a flat profile on the infosets of ``player``'s update group
    (every infoset for ``None``, through ``counterfactual_values``, else
    from ``sweep`` if given), the other entries left at zero."""
    flat = tree.compiled
    x = BlockVector(profile, flat.layout)
    g = (counterfactual_values(tree, x, validate=False).vector if player is None
         else _pass(flat, _sweep(flat, x) if sweep is None else sweep, player))
    for _, index in flat.groups[player][0].buckets:
        gj = g[index]
        g[index] = gj - np.vecdot(gj, profile[index])[..., None]
    return g


def counterfactual_regret_operator(tree: GameTree, x) -> list[np.ndarray]:
    """H_j(x) = G_j(x) - <G_j(x), x_j> 1 for every infoset, per width
    bucket."""
    check_behavioral(tree, x)
    return _like(x, _group_regrets(tree, as_flat(x), None), tree.compiled)


def expected_values(tree: GameTree, x) -> np.ndarray:
    """Per-player expected payoff of the joint profile, in [0, 1] units."""
    check_behavioral(tree, x)
    flat = tree.compiled
    return _node_values(flat, _source(flat, x))[:flat.num_players].copy()


def leaf_excl_weights(tree: GameTree, x, player: int) -> np.ndarray:
    """Per-node array: at each leaf, the product of chance and opponent
    probabilities on its path (player's own probabilities excluded)."""
    flat = tree.compiled
    factors = np.where(flat.parent_mover == player, 1.0,
                       _source(flat, x)[flat.edge_source])
    path = np.ones(flat.size)
    for lo, hi in flat.levels:
        np.multiply(path[flat.parent[lo:hi]], factors[lo:hi], out=path[lo:hi])
    return np.where(flat.mover == -1, path, 0.0)


def own_reach_per_infoset(tree: GameTree, x) -> np.ndarray:
    """Owner's own reach mass of every infoset (sum over member nodes of the
    product of the owner's probabilities above the node)."""
    flat = tree.compiled
    _, reach = _sweep(flat, x)
    mass = np.zeros(len(tree.infosets))
    np.add.at(mass, flat.dfs_infoset, reach[flat.dfs_own_slot])
    return mass


def best_response_value(tree: GameTree, player: int, leaf_weights) -> float:
    """Value of the best response to fixed per-leaf environment weights.

    ``leaf_weights`` aggregates everything outside the player's control
    (one round's opponents/chance reach, or a cumulative sum over rounds);
    the optimum is attained at a pure behavioral strategy.  One ordered
    pass visits the decision positions by descending count of the player's
    own decisions above them, then by descending position: every child
    comes before its parent and, by perfect recall, every member's child
    before an own infoset's first member.  A node not the player's sums its
    children; at its first member an own infoset sums each action's child
    over its members (in ``Infoset.nodes`` order) and takes the first
    strict best total (NaN never wins); an own node takes its chosen
    child's value.  Every sum adds left to right from 0.0.
    """
    flat = tree.compiled
    leaf_weights = np.asarray(leaf_weights, dtype=float)
    value = np.zeros(flat.size)
    value[flat.leaves] = leaf_weights[flat.leaves] * flat.leaf_payoffs[:, player]
    own = np.zeros(flat.size, dtype=np.intp)
    for lo, hi in flat.levels:
        own[lo:hi] = own[flat.parent[lo:hi]] + (flat.parent_mover[lo:hi] == player)
    decisions = np.flatnonzero(flat.mover >= 0)
    order = decisions[np.lexsort((-decisions, -own[decisions]))].tolist()
    value = value.tolist()
    mover, infoset = flat.mover.tolist(), flat.infoset.tolist()
    first, fan = flat.first_child.tolist(), flat.num_children.tolist()
    choice = [-1] * len(tree.infosets)
    for pos in order:
        start = first[pos]
        if mover[pos] != player:
            total = 0.0
            for child in range(start, start + fan[pos]):
                total += value[child]
            value[pos] = total
            continue
        j = infoset[pos]
        if choice[j] < 0:
            firsts = [first[m] for m in tree.infosets[j].nodes]
            best, choice[j] = -np.inf, 0
            for action in range(fan[pos]):
                total = 0.0
                for child in firsts:
                    total += value[child + action]
                if total > best:  # strict: ties and NaN keep the earlier action
                    best, choice[j] = total, action
        value[pos] = value[start + choice[j]]
    return value[0]


def exploitability(tree: GameTree, x) -> np.ndarray:
    """Per-player best-response gain over the current profile, reported in
    the game's original payoff units."""
    current = expected_values(tree, x)
    gaps = np.empty(tree.num_players)
    for i in range(tree.num_players):
        weights = leaf_excl_weights(tree, x, i)
        gaps[i] = best_response_value(tree, i, weights) - current[i]
    return tree.payoff_scale * gaps


def counterfactual_lipschitz(tree: GameTree) -> float:
    """sqrt(2 P): Lipschitz constant of H over behavioral profiles; like
    the two below, it raises ValueError on a tree without decisions."""
    if not tree.infosets:
        raise ValueError("the tree has no decision node: no decisions to solve")
    return (2.0 * tree.behavioral_dim) ** 0.5


def lifted_lipschitz(tree: GameTree) -> float:
    """Lipschitz bound of H composed with blockwise normalization on the
    chopped lifted space (every block of mass >= 1, the floor of the
    clairvoyant rounds): sqrt(2P) * max_j sqrt(n_j)."""
    bound = counterfactual_lipschitz(tree)  # first: it checks for decisions
    return bound * max(j.num_actions for j in tree.infosets) ** 0.5


def contraction_step_size(tree: GameTree) -> float:
    """The theoretically safe step size 1 / (sqrt(2) L_F) for the lifted
    counterfactual operator (usually impractically small)."""
    return 1.0 / (2.0**0.5 * lifted_lipschitz(tree))
