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
state one ``core.AggregateState`` (start: ``AggregateState.initial``),
the clairvoyant state the lifted vector z (start: the uniform blocks of
``stabilized.initial_lifted_point``).  Played profiles are handed back
as ``BlockVector``s, read as one block per infoset.  Both rounds are
pure, with one loop over update groups (``CompiledTree.groups``): every
infoset at once, or, with ``alternate``, one player's infosets at a
time, against the freshest opponent blocks.  A group's pass computes
its own regrets only, from its profile's sweep (see ``efg.values``); an
alternating clairvoyant group's first pass reads the sweep of the
previous group's second, the same profile: n + 1 sweeps for n groups.

Every per-infoset step has the floats of the per-infoset code, once per
width bucket on a ``(rows, width)`` stack (see ``efg.values``).  A
predictive step is ``core._prm_plus_update`` from the bucket's played
blocks, g([r + m]+) as the round computed them; each chopped projection
of a group is one ``stabilized._ragged_chopped`` call.  The checks sit
at entry (the state's size, eta, and the chopped membership of z, whose
block masses ghat(z) shares, by ``stabilized._plays``), and once per
group, where a predictive round tests the regrets for finiteness.
``BehavioralAverager`` keeps the reach-weighted running average of the
played profiles (uniform or linearly weighted).
"""

from __future__ import annotations

import numpy as np

from ..core import (
    AggregateState,
    BlockVector,
    NonFiniteError,
    _normalize_nonneg,
    _prm_plus_update,
    as_flat,
)
from ..stabilized import _in_chopped, _plays, _ragged_chopped
from .tree import CompiledTree, GameTree
from .values import (
    _group_regrets,
    _sweep,
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
    layout) from ``CompiledTree.groups``: all of them at once (player
    ``None``), or one player's at a time (alternation)."""
    return [(player, flat.groups[player][0])
            for player in (range(flat.num_players) if alternate else [None])]


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
        if not np.logical_and.reduce(np.isfinite(h), None):
            raise NonFiniteError("non-finite counterfactual regrets")
        for _, index in group.buckets:
            rj, mj = _prm_plus_update(r[index], played[index], -h[index])
            r[index], prediction[index] = rj, mj
            if alternate and player < flat.num_players - 1:
                # freshly updated blocks are visible to later players
                profile[index] = _play(rj, mj)
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
    try:
        profile = _plays(z, flat.layout)
    except ValueError:  # the first block outside names its infoset
        j = next(j for j, block in enumerate(BlockVector(z, flat.layout))
                 if not _in_chopped(block))
        raise ValueError(f"infoset {tree.infosets[j].key!r}: block outside "
                         "its chopped orthant") from None
    x = BlockVector(profile, flat.layout)
    z_next = z.copy()
    sweep = None  # a player's h1 profile is the next player's h0 profile
    for player, group in _update_groups(flat, alternate):
        gather, spans, _ = group.ragged
        zg = z[gather]
        h0 = _group_regrets(tree, profile, player, sweep)[gather]
        w = _ragged_chopped(zg + eta * h0, group)
        for (_, index), (lo, hi, shape) in zip(group.buckets, spans):
            profile[index] = _normalize_nonneg(w[lo:hi].reshape(shape))
        sweep = None if player is None else _sweep(flat, x)
        h1 = _group_regrets(tree, profile, player, sweep)[gather]
        z_next[gather] = _ragged_chopped(zg + eta * h1, group)
    return z_next, x


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
