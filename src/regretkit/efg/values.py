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

Compiled layout
---------------
The passes run on ``tree.compiled`` (``CompiledTree``), built once per
tree on first use: nodes renumbered in breadth-first order, so every
depth is a contiguous range of positions and siblings are contiguous in
action order; per position the parent, depth, sibling rank, mover and
infoset; a leaf-payoff matrix; per-infoset offsets into one flat
behavioural vector; and the depth-first pre-order of the decision nodes.
A profile becomes one gather: the probability on the edge into every
position.  Reach is then computed top-down, one multiply per edge and one
vectorized step per depth, and node values bottom-up, one scatter-add per
depth.  Nothing recurses, so a tree's depth is not bounded by Python's
recursion limit, and the per-node cost is numpy's instead of the
interpreter's.

Summation order
---------------
Each pass returns exactly the floats of the straightforward recursive
pass (kept as the reference in the tests), so that trace files stay
byte-identical.  Floating-point addition is not associative, so every
sum and product keeps the recursive order:

* reach products run root to leaf, starting from 1.0;
* the opponents-and-chance weight of a decision node multiplies the reach
  of players 0..n-1, then chance, in index order (its own entry set to
  1.0, which multiplies exactly);
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
(``BlockLayout``).  On such a stack ``sum(axis=1)``, ``cumsum(axis=1)``
and ``np.vecdot`` equal the per-block ``.sum()``, ``np.cumsum`` and
``np.dot`` bit for bit (checked on numpy 2.4 with OpenBLAS for widths
1-40).  Cheaper-looking alternatives are not exact and are not used:

* padding blocks to one width: ``np.vecdot`` on zero-padded rows departs
  from the per-block ``np.dot`` from a padded width of 16, where BLAS
  switches kernels, and a small ``np.dot`` is a fused multiply-add chain
  that no separate multiply and add reproduces;
* ``np.add.reduceat`` departs from ``.sum()`` from width 3, as it
  computes ``a0 + (a1 + ...)``; ``einsum`` departs from width 2.

Elementwise work keeps the scalar code's order (``weight * reach[j] *
block`` is ``(weight * reach[j]) * block``), and sums across infosets
that the scalar code took with Python's ``sum`` (a player's regret, the
squared step) still use Python's ``sum``, in the same order: since
Python 3.12 it compensates, so no numpy reduction reproduces it.  Maxima
need no such care: they are exact in any order.
"""

from __future__ import annotations

import numpy as np

from ..core import BlockVector, _normalize_nonneg, as_flat
from .tree import CompiledTree, GameTree

__all__ = [
    "uniform_behavioral",
    "check_behavioral",
    "lifted_normalize",
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
    return [np.full(j.num_actions, 1.0 / j.num_actions) for j in tree.infosets]


def check_behavioral(tree: GameTree, x, tol: float = 1e-9) -> list[np.ndarray]:
    blocks = [np.asarray(b, dtype=float) for b in x]
    if len(blocks) != len(tree.infosets):
        raise ValueError("one block per infoset required")
    for block, iset in zip(blocks, tree.infosets):
        if block.shape != (iset.num_actions,):
            raise ValueError(f"infoset {iset.key!r}: block dimension mismatch")
        if np.any(block < -tol) or abs(block.sum() - 1.0) > tol:
            raise ValueError(f"infoset {iset.key!r}: block not on the simplex")
    return blocks


def lifted_normalize(z) -> list[np.ndarray]:
    """Blockwise normalization of a lifted point (per-infoset g)."""
    blocks = [np.asarray(b, dtype=float) for b in z]
    for block in blocks:
        if np.any(block < 0.0):
            raise ValueError("negative block entries")
    return [_normalize_nonneg(b) for b in blocks]


def behavioral_distance(x, y) -> float:
    """Joint Euclidean distance between two block lists."""
    return sum(float(np.sum((a - b) ** 2)) for a, b in zip(x, y)) ** 0.5


def _like(x, vector: np.ndarray, flat: CompiledTree):
    """Per-infoset results in the profile's form (see the docstring)."""
    if isinstance(x, BlockVector):
        return BlockVector(vector, flat.layout)
    return [vector[lo:hi] for lo, hi in flat.layout.bounds]


def _edge_probs(flat: CompiledTree, x) -> np.ndarray:
    """Probability on the edge into every position (1.0 at the root)."""
    probs = np.concatenate([as_flat(x), flat.chance_probs])
    if probs.size != flat.offsets[-1] + flat.chance_probs.size:
        raise ValueError("profile does not match the tree's infosets")
    return probs[flat.edge_source]


def _reach(flat: CompiledTree, probs: np.ndarray) -> np.ndarray:
    """Reach products per position, flat row-major (position, k): k < n is
    player k's own probability product on the path, k = n chance's."""
    m = flat.num_players + 1
    factors = np.ones(flat.size * m)
    factors[flat.reach_factor] = probs[1:]
    reach = np.ones(flat.size * m)
    for lo, hi in flat.levels:
        np.multiply(reach[flat.reach_gather[(lo - 1) * m:(hi - 1) * m]],
                    factors[lo * m:hi * m], out=reach[lo * m:hi * m])
    return reach


def _node_values(flat: CompiledTree, probs: np.ndarray) -> np.ndarray:
    """Per-player expected payoff below every position, (size, n)."""
    n = flat.num_players
    values = np.zeros((flat.size, n))
    values[flat.leaves] = flat.leaf_payoffs
    scattered = values.reshape(-1)
    for lo, hi in reversed(flat.levels):
        np.add.at(scattered, flat.value_scatter[(lo - 1) * n:(hi - 1) * n],
                  (values[lo:hi] * probs[lo:hi, None]).reshape(-1))
    return values


def counterfactual_values(tree: GameTree, x, validate: bool = True) -> list[np.ndarray]:
    """All counterfactual values in one top-down and one bottom-up sweep."""
    if validate:
        check_behavioral(tree, x)
    flat = tree.compiled
    m = flat.num_players + 1
    probs = _edge_probs(flat, x)
    reach = _reach(flat, probs)
    values = _node_values(flat, probs)
    reach[flat.dfs_own_slot] = 1.0  # a decision node's mover is excluded
    columns = reach.reshape(flat.size, m)
    excl = columns[:, 0].copy()
    for k in range(1, m):
        excl *= columns[:, k]
    flat_values = np.zeros(int(flat.offsets[-1]))
    np.add.at(flat_values, flat.edge_slot,
              excl[flat.edge_parent] * values.reshape(-1)[flat.edge_value])
    return _like(x, flat_values, flat)


def counterfactual_regret_operator(tree: GameTree, x,
                                   validate: bool = True) -> list[np.ndarray]:
    """H_j(x) = G_j(x) - <G_j(x), x_j> 1 for every infoset, per width
    bucket."""
    if validate:
        check_behavioral(tree, x)
    g = as_flat(counterfactual_values(tree, x, validate=False))
    profile = as_flat(x)
    h = np.empty_like(g)
    for _, index in tree.compiled.layout.buckets:
        gj = g[index]
        h[index] = gj - np.vecdot(gj, profile[index])[:, None]
    return _like(x, h, tree.compiled)


def expected_values(tree: GameTree, x, validate: bool = True) -> np.ndarray:
    """Per-player expected payoff of the joint profile, in [0, 1] units."""
    if validate:
        x = check_behavioral(tree, x)
    flat = tree.compiled
    return _node_values(flat, _edge_probs(flat, x))[0].copy()


def leaf_excl_weights(tree: GameTree, x, player: int) -> np.ndarray:
    """Per-node array: at each leaf, the product of chance and opponent
    probabilities on its path (player's own probabilities excluded)."""
    flat = tree.compiled
    factors = np.where(flat.parent_mover == player, 1.0, _edge_probs(flat, x))
    path = np.ones(flat.size)
    for lo, hi in flat.levels:
        np.multiply(path[flat.parent[lo:hi]], factors[lo:hi], out=path[lo:hi])
    weights = np.zeros(len(tree.nodes))
    weights[flat.node_id[flat.leaves]] = path[flat.leaves]
    return weights


def own_reach_per_infoset(tree: GameTree, x) -> np.ndarray:
    """Owner's own reach mass of every infoset (sum over member nodes of the
    product of the owner's probabilities above the node)."""
    flat = tree.compiled
    reach = _reach(flat, _edge_probs(flat, x))
    mass = np.zeros(len(tree.infosets))
    np.add.at(mass, flat.dfs_infoset, reach[flat.dfs_own_slot])
    return mass


def best_response_value(tree: GameTree, player: int, leaf_weights) -> float:
    """Value of the best response to fixed per-leaf environment weights.

    ``leaf_weights`` aggregates everything outside the player's control
    (one round's opponents/chance reach, or a cumulative sum over rounds);
    the optimum over the player's strategies is attained at a pure
    behavioral strategy.  Each infoset takes its first best action once
    the subtrees below all its members are valued (see
    ``CompiledTree.best_response_waves``).
    """
    flat = tree.compiled
    leaf_weights = np.asarray(leaf_weights, dtype=float)
    value = np.zeros(flat.size)
    value[flat.leaves] = (leaf_weights[flat.node_id[flat.leaves]]
                          * flat.leaf_payoffs[:, player])
    action_value = np.zeros(int(flat.offsets[-1]))
    choice = np.zeros(len(tree.infosets), dtype=np.intp)
    for wave in flat.best_response_waves[player]:
        np.add.at(value, wave.sum_parents, value[wave.sum_children])
        value[wave.own] = value[flat.first_child[wave.own]
                                + choice[flat.infoset[wave.own]]]
        if not wave.resolved.size:
            continue
        np.add.at(action_value, wave.slots, value[wave.slot_children])
        start = flat.offsets[wave.resolved]
        width = flat.offsets[wave.resolved + 1] - start
        best = np.full(wave.resolved.size, -np.inf)
        pick = np.zeros(wave.resolved.size, dtype=np.intp)
        for action in range(int(width.max())):
            candidate = np.where(action < width,
                                 action_value[start + np.minimum(action, width - 1)],
                                 -np.inf)
            better = candidate > best  # strict: ties keep the first action
            best = np.where(better, candidate, best)
            pick[better] = action
        choice[wave.resolved] = pick
    return float(value[0])


def exploitability(tree: GameTree, x) -> np.ndarray:
    """Per-player best-response gain over the current profile, reported in
    the game's original payoff units."""
    x = check_behavioral(tree, x)
    current = expected_values(tree, x, validate=False)
    gaps = np.empty(tree.num_players)
    for i in range(tree.num_players):
        weights = leaf_excl_weights(tree, x, i)
        gaps[i] = best_response_value(tree, i, weights) - current[i]
    return tree.payoff_scale * gaps


def counterfactual_lipschitz(tree: GameTree) -> float:
    """sqrt(2 P): Lipschitz constant of H over behavioral profiles."""
    return (2.0 * tree.behavioral_dim) ** 0.5


def lifted_lipschitz(tree: GameTree, floor: float = 1.0) -> float:
    """Lipschitz bound of H composed with blockwise normalization on the
    floor-respecting lifted space: sqrt(2P) * max_j sqrt(n_j) / floor."""
    widest = max(j.num_actions for j in tree.infosets)
    return counterfactual_lipschitz(tree) * widest**0.5 / floor


def contraction_step_size(tree: GameTree, floor: float = 1.0) -> float:
    """The theoretically safe step size 1 / (sqrt(2) L_F) for the lifted
    counterfactual operator (usually impractically small)."""
    return 1.0 / (2.0**0.5 * lifted_lipschitz(tree, floor))
