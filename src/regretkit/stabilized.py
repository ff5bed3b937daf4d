"""Stabilized predictive RM+.

Unstabilized (P)RM+ can oscillate when the aggregate payoff vector comes
close to the origin, where the normalization map loses its Lipschitz
property.  Two fixes, both operating on the lifted joint state:

 * restarting: run the two-step predictive update on the nonnegative
   orthant and reset any player whose aggregate payoffs fall to or below
   its floor R0_i back to R0_i * 1 (``stable_prmp_round``);
 * chopping: project every step onto the chopped orthant
   D> = { r >= 0 : ||r||_1 >= 1 }, so iterates can never approach the
   origin at all (``smooth_prmp_round``).

One round of either algorithm, for each player i with prediction m_i:

    z_i = P(w_i - eta * m_i)          # play x_i = g(z_i)
    w_i = P(w_i - eta * f_i)          # f_i = f(x_i, l_i), l_i = G_i(profile)

where P is the orthant projection (stable) or the chopped projection
(smooth); the next round's prediction is f_i, reset to zero for a player
that restarted.  The chopped projection follows the two-case rule: the
positive part if it already has mass >= 1, otherwise the ordinary simplex
projection (both cases solve the constrained least-squares exactly).
Plain PRM+ is the same update with P the positive part, eta = 1, w^0 = 0
and no floor (it is scale-free); RM+ is PRM+ with zero predictions.

One body, ``_lifted_round``, runs all four; the algorithm picks P and
the floors.  The losses are evaluated once, at the plays x (a later
alternating player's once more, by ``gradient_for`` at the profile it
sees), and the players update in index order; alternating rounds
replace entry i of that profile, once player i has updated, by its
next-round play (the first step above, from the updated w_i and m_i):
the alternation convention of the experiment harness.  The body checks
nothing its caller built: the public rounds check their inputs (step
size, dimensions, floors, chopped membership), the harness its floors
once, at set-up.  Rounds are pure: (state, game) -> (state, played
strategies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError, _normalize_nonneg, regret_loss

__all__ = [
    "JointLiftedState",
    "project_orthant",
    "project_simplex",
    "project_chopped",
    "stable_initial_state",
    "smooth_initial_state",
    "stable_prmp_round",
    "smooth_prmp_round",
    "stable_prmp_round_alternating",
    "smooth_prmp_round_alternating",
]


def _check_finite(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise NonFiniteError("non-finite input to projection")
    return y


def project_orthant(y) -> np.ndarray:
    """Componentwise positive part: the Euclidean projection onto R+^d."""
    return np.maximum(_check_finite(y), 0.0)


def project_simplex(y) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold in O(d log d): with u the entries sorted in
    descending order, find the largest k with u_k + (1 - sum_{i<=k} u_i)/k
    > 0 and shift-clip by that amount.  Ties in the sort are harmless (the
    projection is unique).  Raises ``NonFiniteError`` if no k passes, as
    when entries near the float limit swamp the unit mass.  A ``(rows,
    d)`` stack is projected row by row, each row bit for bit as on its
    own, and raises wherever one of its rows would.
    """
    return _simplex_kernel(_check_finite(y))


_NO_THRESHOLD = "simplex projection: the unit mass is lost to rounding"


def _simplex_kernel(y: np.ndarray) -> np.ndarray:
    if y.ndim == 1:
        u = np.sort(y)[::-1]
        cumulative = np.cumsum(u)
        ks = np.arange(1, y.size + 1)
        candidates = u + (1.0 - cumulative) / ks
        support = np.nonzero(candidates > 0.0)[0]
        if not support.size:
            raise NonFiniteError(_NO_THRESHOLD)
        k = int(support[-1]) + 1
        tau = (1.0 - cumulative[k - 1]) / k
        return np.maximum(y + tau, 0.0)
    u = np.sort(y, axis=1)[:, ::-1]
    cumulative = np.cumsum(u, axis=1)
    thresholds = (1.0 - cumulative) / np.arange(1, y.shape[1] + 1)
    # u + c > 0 exactly when c > -u, for finite u; so written, the -inf
    # padding of ``_ragged_chopped`` never passes, with no invalid-value warning
    positive = thresholds > -u
    # the last passing column; a row where none passes lands on a failing one
    rows = np.arange(y.shape[0])
    k = y.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    if not positive[rows, k].all():
        raise NonFiniteError(_NO_THRESHOLD)
    out = y + thresholds[rows, k][:, None]
    return np.maximum(out, 0.0, out=out)


def project_chopped(y) -> np.ndarray:
    """Euclidean projection onto D> = { r >= 0 : ||r||_1 >= 1 }.

    KKT case split: if the positive part already has mass >= 1 the mass
    constraint is slack and [y]+ is the answer; otherwise the constraint
    is tight and the answer is the simplex projection.  A ``(rows, d)``
    stack splits row by row and projects its tight rows in one call.
    The input check, then ``_chopped_kernel``: callers whose input is
    already known to be finite call the kernel directly.
    """
    return _chopped_kernel(_check_finite(y))


def _chopped_kernel(y: np.ndarray) -> np.ndarray:
    positive = np.maximum(y, 0.0)
    if y.ndim == 1:
        if positive.sum() >= 1.0:
            return positive
        return _simplex_kernel(y)
    tight = np.flatnonzero(positive.sum(axis=1) < 1.0)
    if tight.size == 1:  # the 1-D path: the same floats, and cheaper
        positive[tight[0]] = _simplex_kernel(y[tight[0]])
    elif tight.size:
        positive[tight] = _simplex_kernel(y[tight])
    return positive


def _ragged_chopped(y: np.ndarray, layout) -> np.ndarray:
    """``project_chopped`` on every member block of ``layout``, bit for
    bit, in one call on one run in ``layout.ragged`` order.  Masses are
    summed per bucket: from a padded width of 8 numpy's unrolled sum
    regroups the terms.  The tight rows, padded with -inf, are one stack
    for one sort, cumsum and threshold pass; the padding never passes."""
    _, spans, pad = layout.ragged
    y = _check_finite(y)
    if len(spans) == 1:  # one width: the stacked kernel
        return _chopped_kernel(y.reshape(spans[0][2])).ravel()
    out = np.zeros(y.size + 1)  # the last entry takes the padding's writes
    positive = np.maximum(y, 0.0, out=out[:-1])
    mass = np.concatenate([np.empty(0)] + [
        positive[lo:hi].reshape(shape).sum(axis=1) for lo, hi, shape in spans])
    tight = pad[mass < 1.0]
    if tight.size:
        out[tight] = _simplex_kernel(np.concatenate((y, [-np.inf]))[tight])
    return positive


def _in_chopped(r):
    """Membership of one block in D> (floor 1, 1e-9 slack on the mass);
    NaN fails it, an infinite mass passes."""
    return (r >= 0.0).all() and r.sum() >= 1.0 - 1e-9


@dataclass(frozen=True)
class JointLiftedState:
    """Joint lifted state of the two-step predictive update.

    ``w`` are the per-player aggregate vectors, ``z`` the latest proximal
    midpoints (the played strategies are g(z_i)), ``prediction`` the next
    round's per-player predictions.  ``restart_events`` collects
    (round, player) pairs.
    """

    w: tuple[np.ndarray, ...]
    z: tuple[np.ndarray, ...]
    prediction: tuple[np.ndarray, ...]
    restart_events: tuple[tuple[int, int], ...]
    t: int

    @property
    def num_players(self) -> int:
        return len(self.w)


def _floors(r0, num_players: int) -> list[float]:
    """R0: one positive, finite floor per player."""
    if np.isscalar(r0) or len(r0) != num_players or not all(
            0.0 < v < np.inf for v in r0):
        raise ValueError("R0 must be one positive, finite value per player")
    return [float(v) for v in r0]


def _initial_state(w) -> JointLiftedState:
    return JointLiftedState(
        w=w,
        z=tuple(v.copy() for v in w),
        prediction=tuple(np.zeros(v.size) for v in w),
        restart_events=(),
        t=0,
    )


def stable_initial_state(dims, r0) -> JointLiftedState:
    """w^0 = R0_i * 1 for each player i, zero predictions."""
    floors = _floors(r0, len(tuple(dims)))
    return _initial_state(tuple(np.full(d, floor) for d, floor in zip(dims, floors)))


def smooth_initial_state(dims) -> JointLiftedState:
    """w^0 = (1/d_i) * 1 per player (unit mass, inside the chopped set)."""
    return _initial_state(tuple(np.full(d, 1.0 / d) for d in dims))


def _checked_round(state: JointLiftedState, game, eta: float, r0,
                   alternate: bool) -> tuple[JointLiftedState, list[np.ndarray]]:
    """A public round: every input check, then the body.  ``r0`` (one
    floor per player) selects the restarting algorithm, ``None`` the
    chopped one, whose state must lie in the chopped set."""
    floors = None if r0 is None else _floors(r0, state.num_players)
    if eta <= 0.0:
        raise ValueError("step size eta must be positive")
    dims = game.dims
    if len(dims) != state.num_players or any(
        w.shape != (d,) for w, d in zip(state.w, dims)
    ):
        raise ValueError("state dimensions do not match the game")
    if r0 is None and not all(_in_chopped(w) for w in state.w):
        raise ValueError("state outside the chopped orthant")
    algorithm = "smooth-prm+" if r0 is None else "stable-prm+"
    return _lifted_round(state, game, eta, algorithm, alternate, floors)[:2]


def _positive_part(y: np.ndarray) -> np.ndarray:
    return np.maximum(y, 0.0)


def _lifted_round(state: JointLiftedState, game, eta: float, algorithm: str,
                  alternate: bool, floors):
    """The one round body (see the module docstring), on arguments the
    caller has checked; ``floors`` is stable-prm+'s, one per player.
    Returns (state, plays, losses l at the plays, increments <x, l> - l)."""
    # resolved per call, so that a wrapper installed on this module's
    # globals sees every projection
    project = {"smooth-prm+": project_chopped,
               "stable-prm+": project_orthant}.get(algorithm, _positive_part)
    # rm+'s predictions stay zero, so its steps from w - eta * 0 are w
    predictive = algorithm != "rm+"
    t = state.t + 1
    z = (tuple(project(w - eta * m) for w, m in zip(state.w, state.prediction))
         if predictive else state.w)
    strategies = [_normalize_nonneg(zi) for zi in z]
    losses = game.gradients(strategies)
    profile = list(strategies)
    new_w = []
    new_pred = []
    increments = []
    events = list(state.restart_events)
    for i, (w, m, x) in enumerate(zip(state.w, state.prediction, strategies)):
        # player 0, and every player of a synchronous round, sees the plays
        later = alternate and i > 0
        loss = game.gradient_for(i, profile) if later else losses[i]
        f = regret_loss(x, loss)
        # the increment at the plays' losses is -f unless i saw later plays
        increments.append(np.dot(x, losses[i]) - losses[i] if later else -f)
        wi = project(w - eta * f)
        # a restart: componentwise <= the floor, ties included; sitting
        # exactly at the floor with nothing to reset is not logged
        if floors is not None and (wi <= floors[i]).all() and (
                (wi != floors[i]).any() or (f != 0.0).any()):
            wi = np.full(wi.shape, floors[i])
            f = np.zeros(wi.shape)
            events.append((t, i))
        if predictive:
            m = f
        new_w.append(wi)
        new_pred.append(m)
        if alternate:
            # the later players see i's next-round play
            profile[i] = _normalize_nonneg(
                project(wi - eta * m) if predictive else wi)
    next_state = JointLiftedState(
        w=tuple(new_w),
        z=z,
        prediction=tuple(new_pred),
        restart_events=tuple(events),
        t=t,
    )
    return next_state, strategies, losses, increments


def stable_prmp_round(state: JointLiftedState, game, eta: float,
                      r0) -> tuple[JointLiftedState, list[np.ndarray]]:
    """One synchronous round of the restarting algorithm.

    Two orthant-projected proximal steps, then the per-player restart
    check: player i, once its aggregate vector is componentwise <= R0_i
    (ties included), is reset to R0_i * 1 and its prediction cleared.
    ``r0`` holds one floor per player; the experiment protocol's
    scale-invariant form uses R0/d_i with unit-mass initialization.
    """
    return _checked_round(state, game, eta, r0, False)


def smooth_prmp_round(state: JointLiftedState, game,
                      eta: float) -> tuple[JointLiftedState, list[np.ndarray]]:
    """One synchronous round of the chopped-orthant algorithm: both
    proximal steps project onto the chopped set and nothing restarts, so
    every iterate keeps ||.||_1 >= 1 per player."""
    return _checked_round(state, game, eta, None, False)


def stable_prmp_round_alternating(state, game, eta: float, r0):
    """``stable_prmp_round`` with the players updating in index order."""
    return _checked_round(state, game, eta, r0, True)


def smooth_prmp_round_alternating(state, game, eta: float):
    """``smooth_prmp_round`` with the players updating in index order."""
    return _checked_round(state, game, eta, None, True)
