"""Lifted-space machinery shared by every solver in the package.

A regret-matching solver keeps a nonnegative *aggregate payoff* vector R and
plays its L1 normalization as a mixed strategy.  This module holds that
shared core:

 * ``normalize``     g(r) = r / ||r||_1, with g(0) = uniform,
 * ``regret_loss``   f(x, l) = l - <x, l> 1   (orthogonal to x),
 * ``rm_plus_step``  x = g(R), R' = [R - f(x, l)]+,
 * ``prm_plus_step`` the predictive variant, which plays from [R + m]+ and
   stores m' = -f(x, l) for the next round,
 * regret bookkeeping in strategy space and in the lifted orthant space,
   which agree exactly (``lifted_regret_equivalence``).

Strategies and losses are plain 1-D numpy arrays; the solver state is a
value (``AggregateState``) and each step is a pure function from
(state, loss) to (state, strategy), so independent trajectories can run
concurrently without sharing anything.

An exact-rational replay (``replay_exact``) exists solely for the
adversarial two-action loss sequences, whose iterates are all dyadic and
can therefore be checked without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "AggregateState",
    "NonFiniteError",
    "RegretLedger",
    "normalize",
    "regret_loss",
    "rm_plus_step",
    "prm_plus_step",
    "lifted_regret_equivalence",
    "replay_exact",
]


class NonFiniteError(ValueError):
    """A vector that must be finite contains NaN or infinities."""


def _normalize_nonneg(r: np.ndarray) -> np.ndarray:
    total = r.sum()
    if total > 0.0:
        return r / total
    return np.full(r.shape, 1.0 / r.size)


def normalize(r) -> np.ndarray:
    """Map a nonnegative vector to the simplex: g(r) = r / ||r||_1.

    The all-zero vector maps to the uniform distribution (the 0/0
    convention), implemented as an explicit branch rather than a limit.
    Raises ValueError on negative or non-finite entries.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("normalize expects a nonempty 1-D vector")
    if not np.all(np.isfinite(r)):
        raise NonFiniteError("normalize: non-finite entries")
    if np.any(r < 0.0):
        raise ValueError("normalize: negative entries")
    return _normalize_nonneg(r)


def regret_loss(x, loss) -> np.ndarray:
    """Instantaneous regret vector f(x, l) = l - <x, l> 1.

    Satisfies <x, f(x, l)> = 0 up to rounding; adding any multiple of the
    all-ones vector to ``l`` leaves the result unchanged.
    """
    x = np.asarray(x, dtype=float)
    loss = np.asarray(loss, dtype=float)
    if x.shape != loss.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {loss.shape}")
    if not np.all(np.isfinite(loss)):
        raise NonFiniteError("regret_loss: non-finite loss")
    return loss - np.dot(x, loss)


@dataclass(frozen=True)
class AggregateState:
    """Lifted solver state: aggregate payoffs, prediction memory, floor.

    ``r`` is the nonnegative aggregate payoff vector, ``prediction`` the
    stored prediction m (zero when there is none), ``r0`` the
    initialization level the restart mechanism resets to.
    """

    r: np.ndarray
    prediction: np.ndarray
    r0: float = 0.0

    @staticmethod
    def initial(dim: int, r0: float = 0.0) -> "AggregateState":
        return AggregateState(np.full(dim, float(r0)), np.zeros(dim), float(r0))

    @property
    def dim(self) -> int:
        return self.r.size


def _check_loss(state: AggregateState, loss: np.ndarray) -> np.ndarray:
    loss = np.asarray(loss, dtype=float)
    if loss.shape != state.r.shape:
        raise ValueError(f"dimension mismatch: {loss.shape} vs {state.r.shape}")
    if not np.all(np.isfinite(loss)):
        raise NonFiniteError("non-finite loss")
    return loss


def rm_plus_step(state: AggregateState, loss) -> tuple[AggregateState, np.ndarray]:
    """One RM+ round: play x = g(R), then R' = [R + <x,l>1 - l]+.

    The returned strategy is the one played *before* the loss is seen.
    The prediction memory is carried through untouched (RM+ ignores it).
    """
    loss = _check_loss(state, loss)
    x = _normalize_nonneg(state.r)
    r_next = np.maximum(state.r - regret_loss(x, loss), 0.0)
    return AggregateState(r_next, state.prediction, state.r0), x


def prm_plus_step(state: AggregateState, loss) -> tuple[AggregateState, np.ndarray]:
    """One predictive RM+ round.

    Plays x = g([R + m]+), updates R' = [R - f(x, l)]+ and stores the
    next-round prediction m' = -f(x, l).  With m = 0 throughout this is
    exactly ``rm_plus_step`` (R stays nonnegative, so [R + 0]+ = R).
    """
    loss = _check_loss(state, loss)
    r_hat = np.maximum(state.r + state.prediction, 0.0)
    x = _normalize_nonneg(r_hat)
    f = regret_loss(x, loss)
    r_next = np.maximum(state.r - f, 0.0)
    return AggregateState(r_next, -f, state.r0), x


@dataclass
class RegretLedger:
    """Cumulative per-action regret: after T rounds, entry a holds
    sum_t <x^t, l^t> - sum_t l^t[a]."""

    cum: np.ndarray
    t: int = 0

    @staticmethod
    def empty(dim: int) -> "RegretLedger":
        return RegretLedger(np.zeros(dim), 0)

    def observe(self, x: np.ndarray, loss: np.ndarray) -> None:
        self.cum += np.dot(x, loss) - loss
        self.t += 1

    def max_action_regret(self) -> float:
        return float(self.cum.max())


def lifted_regret_equivalence(strategies, losses, lifted, comparator) -> tuple[float, float]:
    """Evaluate the same regret in strategy space and in the lifted space.

    Given per-round arrays x^t (rows of ``strategies``), l^t (rows of
    ``losses``) and the lifted points R^t (rows of ``lifted``) with
    x^t = g(R^t), returns

        ( sum_t <l^t, x^t - xhat>,  sum_t <f(x^t, l^t), R^t - xhat> )

    which agree exactly in exact arithmetic because <R^t, f(x^t, l^t)> = 0.
    """
    strategies = np.asarray(strategies, dtype=float)
    losses = np.asarray(losses, dtype=float)
    lifted = np.asarray(lifted, dtype=float)
    comparator = np.asarray(comparator, dtype=float)
    if not (strategies.shape == losses.shape == lifted.shape):
        raise ValueError("incomplete trace: strategies, losses and lifted "
                         "points must have identical shapes")
    if strategies.ndim != 2 or strategies.shape[1] != comparator.size:
        raise ValueError("incomplete trace: comparator dimension mismatch")
    plain = float(np.sum(losses * (strategies - comparator)))
    f = losses - np.sum(strategies * losses, axis=1, keepdims=True)
    lifted_reg = float(np.sum(f * (lifted - comparator)))
    return plain, lifted_reg


# --- exact-rational replay of the two-action adversarial sequences ---------

_ZERO = Fraction(0)


def _g_exact(r: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    total = sum(r, _ZERO)
    if total > 0:
        return tuple(v / total for v in r)
    return tuple(Fraction(1, len(r)) for _ in r)


def _f_exact(x, loss):
    inner = sum(a * b for a, b in zip(x, loss))
    return tuple(l - inner for l in loss)


def replay_exact(losses, variant: str) -> list[tuple[Fraction, ...]]:
    """Replay a loss sequence through RM+ or PRM+ in exact rational
    arithmetic, starting from R = 0.  Returns the played strategies.

    ``losses`` is a sequence of per-round loss tuples (any Fraction-
    convertible entries); ``variant`` is ``"rm+"`` or ``"prm+"``.
    """
    if variant not in ("rm+", "prm+"):
        raise ValueError(f"unknown variant: {variant!r}")
    if not losses:
        return []
    dim = len(losses[0])
    r = tuple(_ZERO for _ in range(dim))
    m = tuple(_ZERO for _ in range(dim))
    played: list[tuple[Fraction, ...]] = []
    for loss in losses:
        loss = tuple(Fraction(v) for v in loss)
        if variant == "prm+":
            r_hat = tuple(max(a + b, _ZERO) for a, b in zip(r, m))
        else:
            r_hat = r
        x = _g_exact(r_hat)
        played.append(x)
        f = _f_exact(x, loss)
        r = tuple(max(a - b, _ZERO) for a, b in zip(r, f))
        if variant == "prm+":
            m = tuple(-v for v in f)
    return played
