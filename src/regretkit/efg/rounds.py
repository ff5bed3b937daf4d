"""Regret-minimizing rounds on game trees.

Predictive CFR runs one predictive RM+ instance per infoset on the losses
-H_j (the negated counterfactual regrets; feeding -G_j would give the same
update, since the instantaneous-regret map is invariant to constant
shifts).  The clairvoyant variant lifts every infoset into its chopped
orthant block and performs one extragradient step of the counterfactual
operator per round:

    w_j      = P(z_j + eta * H_j(ghat(z)))     # play ghat(w)
    z_next_j = P(z_j + eta * H_j(ghat(w)))

with P the per-block chopped projection (floors fixed at 1), i.e. the
exact tree analogue of extragradient RM+ with the operator -H o ghat.

States, played profiles and regrets are flat vectors in the compiled
tree's behavioural layout (``CompiledTree.layout``): predictive CFR's
state is one ``core.AggregateState`` over that layout (start:
``AggregateState.initial(tree.behavioral_dim)``), the clairvoyant state
the lifted vector z itself (start: the uniform blocks of
``fixedpoint.initial_lifted_point`` over the infoset widths).  Played
profiles are handed back as ``BlockVector``s, which read as one block
per infoset.  Both rounds are pure value transformations with one loop
over update groups: every infoset at once, or, with ``alternate``, one
player's infosets at a time, each player against the freshest opponent
blocks; an alternating group takes the pass restricted to its player
(see ``efg.values``).

Every per-infoset step has the floats of the per-infoset code.  The
steps, normalizations and membership checks run once per width bucket
on a ``(rows, width)`` stack (see ``efg.values``); each chopped
projection of a group is one ``stabilized._ragged_chopped`` call.  It
sums the blocks' masses per bucket and pads the tight rows of every
width with -inf to one stack for one sort, cumsum and threshold pass;
the padding sorts last and never passes.  A zero-padded mass would not
do: from a padded width of 8 numpy's unrolled sum regroups the terms,
and a mass within rounding of 1 can change sides.
``BehavioralAverager`` maintains the reach-weighted running average of
played behavioral profiles (uniform or linearly weighted).
"""

from __future__ import annotations

import numpy as np

from ..core import (
    AggregateState,
    BlockVector,
    _normalize_nonneg,
    as_flat,
    prm_plus_step,
)
from ..stabilized import _in_chopped, _ragged_chopped
from .tree import CompiledTree, GameTree
from .values import (
    _group_regrets,
    own_reach_per_infoset,
    uniform_behavioral,
)

__all__ = [
    "predictive_cfr_round",
    "clairvoyant_cfr_round",
    "BehavioralAverager",
]


def _check_size(tree: GameTree, *vectors) -> None:
    if any(v.shape != (tree.compiled.layout.size,) for v in vectors):
        raise ValueError("state does not match the tree's infosets")


def _update_groups(flat: CompiledTree, alternate: bool):
    """Infosets that update together against one profile, as (player,
    layout): all of them at once (player ``None``), or one player's at a
    time (alternation)."""
    return enumerate(flat.player_layouts) if alternate else [(None, flat.layout)]


def _play(r: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """The blocks predictive RM+ plays from (stacks of) r and m."""
    return _normalize_nonneg(np.maximum(r + prediction, 0.0))


def predictive_cfr_round(state: AggregateState, tree: GameTree,
                         alternate: bool = False
                         ) -> tuple[AggregateState, BlockVector]:
    """Advance every infoset by one predictive RM+ step on its
    counterfactual regrets; returns the profile that was played."""
    _check_size(tree, state.r, state.prediction)
    flat = tree.compiled
    played = np.empty(state.r.size)
    for _, index in flat.layout.buckets:
        played[index] = _play(state.r[index], state.prediction[index])
    profile = played.copy() if alternate else played
    r, prediction = state.r.copy(), state.prediction.copy()
    for player, group in _update_groups(flat, alternate):
        h = _group_regrets(tree, profile, player)
        for _, index in group.buckets:
            step, _ = prm_plus_step(
                AggregateState(r[index], prediction[index]), -h[index])
            r[index], prediction[index] = step.r, step.prediction
            if alternate:
                # freshly updated blocks are visible to later players
                profile[index] = _play(step.r, step.prediction)
    return AggregateState(r, prediction), BlockVector(played, flat.layout)


def clairvoyant_cfr_round(z: np.ndarray, tree: GameTree, eta: float,
                          alternate: bool = False
                          ) -> tuple[np.ndarray, BlockVector]:
    """Single-fixed-point-iteration clairvoyant round (extragradient on the
    lifted counterfactual operator) from the lifted vector z, every block
    in its chopped orthant; returns the next z and plays ghat(w)."""
    if eta <= 0.0:
        raise ValueError("step size eta must be positive")
    _check_size(tree, z)
    flat = tree.compiled
    inside = flat.layout.per_block(
        [_in_chopped(z[index]) for _, index in flat.layout.buckets], bool)
    if not inside.all():
        key = tree.infosets[int(np.argmin(inside))].key
        raise ValueError(f"infoset {key!r}: block outside its chopped orthant")
    profile = np.empty(z.size)
    for _, index in flat.layout.buckets:
        profile[index] = _normalize_nonneg(z[index])
    z_next = z.copy()
    for player, group in _update_groups(flat, alternate):
        gather, spans, _ = group.ragged
        zg = z[gather]
        h0 = _group_regrets(tree, profile, player)[gather]
        w = _ragged_chopped(zg + eta * h0, group)
        for (_, index), (lo, hi, shape) in zip(group.buckets, spans):
            profile[index] = _normalize_nonneg(w[lo:hi].reshape(shape))
        h1 = _group_regrets(tree, profile, player)[gather]
        z_next[gather] = _ragged_chopped(zg + eta * h1, group)
    return z_next, BlockVector(profile, flat.layout)


class BehavioralAverager:
    """Reach-weighted running average of behavioral profiles.

    Each observation adds weight * own_reach(j) * x_j to infoset j's
    accumulator, all infosets in one flat vector; the average
    renormalizes per block (uniform where an infoset was never reached).
    ``linear`` weights observation t by t.
    """

    def __init__(self, tree: GameTree, scheme: str = "linear"):
        if scheme not in ("uniform", "linear"):
            raise ValueError(f"unknown averaging scheme {scheme!r}")
        self._tree = tree
        self._scheme = scheme
        layout = tree.compiled.layout
        self._sums = np.zeros(layout.size)
        self._infoset_of = np.repeat(np.arange(layout.widths.size), layout.widths)
        self._t = 0

    def observe(self, x) -> None:
        self._t += 1
        weight = float(self._t) if self._scheme == "linear" else 1.0
        reach = own_reach_per_infoset(self._tree, x)
        self._sums += (weight * reach)[self._infoset_of] * as_flat(x)

    def average(self) -> list[np.ndarray]:
        if self._t == 0:
            return uniform_behavioral(self._tree)
        layout = self._tree.compiled.layout
        average = np.empty(layout.size)
        for _, index in layout.buckets:
            average[index] = _normalize_nonneg(self._sums[index])
        return [average[lo:hi] for lo, hi in layout.bounds]
