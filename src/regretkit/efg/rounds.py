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

Both rounds are pure value transformations with one loop over update
groups: every infoset at once, or, with ``alternate``, one player's
infosets at a time, each player against the freshest opponent blocks.
``BehavioralAverager`` maintains the reach-weighted running average of
played behavioral profiles (uniform or linearly weighted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AggregateState, _normalize_nonneg, prm_plus_step
from ..stabilized import _in_chopped, project_chopped
from .tree import GameTree
from .values import (
    counterfactual_regret_operator,
    lifted_normalize,
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
    """One predictive RM+ state per infoset."""

    infoset_states: tuple[AggregateState, ...]
    t: int = 0

    def play(self, infoset: int) -> np.ndarray:
        state = self.infoset_states[infoset]
        return _normalize_nonneg(np.maximum(state.r + state.prediction, 0.0))


def predictive_cfr_state(tree: GameTree) -> PredictiveCfrState:
    return PredictiveCfrState(
        tuple(AggregateState.initial(j.num_actions) for j in tree.infosets), 0
    )


def _check_cfr_state(state, tree) -> None:
    if len(state.infoset_states) != len(tree.infosets):
        raise ValueError("state does not match the tree's infosets")
    for st, iset in zip(state.infoset_states, tree.infosets):
        if st.r.shape != (iset.num_actions,):
            raise ValueError(f"infoset {iset.key!r}: state dimension mismatch")


def _update_groups(tree: GameTree, alternate: bool):
    """Infosets that update together against one profile: all of them at
    once, or one player's at a time (alternation)."""
    if alternate:
        return [tree.infosets_of(player) for player in range(tree.num_players)]
    return [range(len(tree.infosets))]


def predictive_cfr_round(state: PredictiveCfrState, tree: GameTree,
                         alternate: bool = False
                         ) -> tuple[PredictiveCfrState, list[np.ndarray]]:
    """Advance every infoset by one predictive RM+ step on its
    counterfactual regrets; returns the profile that was played."""
    _check_cfr_state(state, tree)
    states = list(state.infoset_states)
    played: list[np.ndarray] = [state.play(j) for j in range(len(tree.infosets))]
    profile = list(played)
    for group in _update_groups(tree, alternate):
        h = counterfactual_regret_operator(tree, profile, validate=False)
        for j in group:
            states[j], _ = prm_plus_step(states[j], -h[j])
            if alternate:
                # freshly updated blocks are visible to later players
                profile[j] = _normalize_nonneg(
                    np.maximum(states[j].r + states[j].prediction, 0.0))
    return PredictiveCfrState(tuple(states), state.t + 1), played


@dataclass(frozen=True)
class LiftedCfrState:
    """One chopped-orthant block per infoset (floors fixed at 1)."""

    z: tuple[np.ndarray, ...]
    t: int = 0


def clairvoyant_cfr_state(tree: GameTree) -> LiftedCfrState:
    return LiftedCfrState(
        tuple(np.full(j.num_actions, 1.0 / j.num_actions) for j in tree.infosets), 0
    )


def clairvoyant_cfr_round(state: LiftedCfrState, tree: GameTree, eta: float,
                          alternate: bool = False
                          ) -> tuple[LiftedCfrState, list[np.ndarray]]:
    """Single-fixed-point-iteration clairvoyant round (extragradient on the
    lifted counterfactual operator); plays ghat(w)."""
    if eta <= 0.0:
        raise ValueError("step size eta must be positive")
    if len(state.z) != len(tree.infosets):
        raise ValueError("state does not match the tree's infosets")
    for block, iset in zip(state.z, tree.infosets):
        if not _in_chopped(block):
            raise ValueError(f"infoset {iset.key!r}: block outside its "
                             "chopped orthant")
    profile = lifted_normalize(state.z)
    z_next = list(state.z)
    for group in _update_groups(tree, alternate):
        h0 = counterfactual_regret_operator(tree, profile, validate=False)
        for j in group:
            profile[j] = _normalize_nonneg(
                project_chopped(state.z[j] + eta * h0[j]))
        h1 = counterfactual_regret_operator(tree, profile, validate=False)
        for j in group:
            z_next[j] = project_chopped(state.z[j] + eta * h1[j])
    return LiftedCfrState(tuple(z_next), state.t + 1), profile


class BehavioralAverager:
    """Reach-weighted running average of behavioral profiles.

    Each observation adds weight * own_reach(j) * x_j to infoset j's
    accumulator; the average renormalizes per block (uniform where an
    infoset was never reached).  ``linear`` weights observation t by t.
    """

    def __init__(self, tree: GameTree, scheme: str = "linear"):
        if scheme not in ("uniform", "linear"):
            raise ValueError(f"unknown averaging scheme {scheme!r}")
        self._tree = tree
        self._scheme = scheme
        self._sums = [np.zeros(j.num_actions) for j in tree.infosets]
        self._t = 0

    def observe(self, x) -> None:
        self._t += 1
        weight = float(self._t) if self._scheme == "linear" else 1.0
        reach = own_reach_per_infoset(self._tree, x)
        for j, block in enumerate(x):
            self._sums[j] += weight * reach[j] * block

    def average(self) -> list[np.ndarray]:
        if self._t == 0:
            return uniform_behavioral(self._tree)
        return [_normalize_nonneg(s) for s in self._sums]
