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
tree's behavioural layout (``CompiledTree.layout``); played profiles are
handed back as ``BlockVector``s, which read as one block per infoset.
Every per-infoset step (``prm_plus_step``, ``project_chopped``, the
normalization, the chopped-membership check) runs once per width bucket
on a ``(rows, width)`` stack, with the floats of the per-infoset code
(see ``efg.values``).  Both rounds are pure value transformations with
one loop over update groups: every infoset at once, or, with
``alternate``, one player's infosets at a time, each player against the
freshest opponent blocks.  ``BehavioralAverager`` maintains the
reach-weighted running average of played behavioral profiles (uniform or
linearly weighted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    AggregateState,
    BlockVector,
    _normalize_nonneg,
    as_flat,
    prm_plus_step,
)
from ..stabilized import _in_chopped, project_chopped
from .tree import CompiledTree, GameTree
from .values import (
    counterfactual_regret_operator,
    own_reach_per_infoset,
    uniform_behavioral,
)

__all__ = [
    "PredictiveCfrState",
    "LiftedCfrState",
    "predictive_cfr_state",
    "predictive_cfr_round",
    "clairvoyant_cfr_state",
    "clairvoyant_cfr_round",
    "BehavioralAverager",
]


@dataclass(frozen=True)
class PredictiveCfrState:
    """Every infoset's predictive RM+ aggregates ``r`` and predictions,
    one flat vector each."""

    r: np.ndarray
    prediction: np.ndarray
    t: int = 0


def predictive_cfr_state(tree: GameTree) -> PredictiveCfrState:
    return PredictiveCfrState(np.zeros(tree.behavioral_dim),
                              np.zeros(tree.behavioral_dim), 0)


def _check_size(tree: GameTree, *vectors) -> None:
    if any(v.shape != (tree.compiled.layout.size,) for v in vectors):
        raise ValueError("state does not match the tree's infosets")


def _update_groups(flat: CompiledTree, alternate: bool):
    """Infosets that update together against one profile: all of them at
    once, or one player's at a time (alternation)."""
    return flat.player_layouts if alternate else (flat.layout,)


def _play(r: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """The blocks predictive RM+ plays from (stacks of) r and m."""
    return _normalize_nonneg(np.maximum(r + prediction, 0.0))


def predictive_cfr_round(state: PredictiveCfrState, tree: GameTree,
                         alternate: bool = False
                         ) -> tuple[PredictiveCfrState, BlockVector]:
    """Advance every infoset by one predictive RM+ step on its
    counterfactual regrets; returns the profile that was played."""
    _check_size(tree, state.r, state.prediction)
    flat = tree.compiled
    played = np.empty(state.r.size)
    for _, index in flat.layout.buckets:
        played[index] = _play(state.r[index], state.prediction[index])
    profile = played.copy() if alternate else played
    r, prediction = state.r.copy(), state.prediction.copy()
    for group in _update_groups(flat, alternate):
        h = counterfactual_regret_operator(
            tree, BlockVector(profile, flat.layout), validate=False).vector
        for _, index in group.buckets:
            step, _ = prm_plus_step(
                AggregateState(r[index], prediction[index]), -h[index])
            r[index], prediction[index] = step.r, step.prediction
            if alternate:
                # freshly updated blocks are visible to later players
                profile[index] = _play(step.r, step.prediction)
    return (PredictiveCfrState(r, prediction, state.t + 1),
            BlockVector(played, flat.layout))


@dataclass(frozen=True)
class LiftedCfrState:
    """Every infoset's chopped-orthant block (floors fixed at 1), as one
    flat vector."""

    z: np.ndarray
    t: int = 0


def clairvoyant_cfr_state(tree: GameTree) -> LiftedCfrState:
    widths = tree.compiled.layout.widths
    return LiftedCfrState(np.repeat(1.0 / widths, widths), 0)


def clairvoyant_cfr_round(state: LiftedCfrState, tree: GameTree, eta: float,
                          alternate: bool = False
                          ) -> tuple[LiftedCfrState, BlockVector]:
    """Single-fixed-point-iteration clairvoyant round (extragradient on the
    lifted counterfactual operator); plays ghat(w)."""
    if eta <= 0.0:
        raise ValueError("step size eta must be positive")
    _check_size(tree, state.z)
    flat = tree.compiled
    z = state.z
    inside = flat.layout.per_block(
        [_in_chopped(z[index]) for _, index in flat.layout.buckets], bool)
    if not inside.all():
        key = tree.infosets[int(np.argmin(inside))].key
        raise ValueError(f"infoset {key!r}: block outside its chopped orthant")
    profile = np.empty(z.size)
    for _, index in flat.layout.buckets:
        profile[index] = _normalize_nonneg(z[index])
    z_next = z.copy()
    for group in _update_groups(flat, alternate):
        h0 = counterfactual_regret_operator(
            tree, BlockVector(profile, flat.layout), validate=False).vector
        for _, index in group.buckets:
            profile[index] = _normalize_nonneg(
                project_chopped(z[index] + eta * h0[index]))
        h1 = counterfactual_regret_operator(
            tree, BlockVector(profile, flat.layout), validate=False).vector
        for _, index in group.buckets:
            z_next[index] = project_chopped(z[index] + eta * h1[index])
    return LiftedCfrState(z_next, state.t + 1), BlockVector(profile, flat.layout)


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
