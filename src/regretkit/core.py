"""Lifted-space machinery shared by every solver in the package.

A regret-matching solver keeps a nonnegative *aggregate payoff* vector R and
plays its L1 normalization as a mixed strategy.  This module holds that
shared core:

 * ``normalize``     g(r) = r / ||r||_1, with g(0) = uniform,
 * ``regret_loss``   f(x, l) = l - <x, l> 1   (orthogonal to x),
 * ``rm_plus_step``  x = g(R), R' = [R - f(x, l)]+,
 * ``prm_plus_step`` the predictive variant, which plays from [R + m]+ and
   stores m' = -f(x, l) for the next round,
 * ``joint_distance`` the Euclidean distance between two block sequences,
 * regret measured in strategy space and in the lifted orthant space,
   which agree exactly (``lifted_regret_equivalence``).

Cumulative regret is kept in one place, the experiment harness's
recorder, from the per-round increments <x, l> - l that the rounds hand it.

Strategies and losses are plain 1-D numpy arrays; the solver state is a
value (``AggregateState``) and each step is a pure function from
(state, loss) to (state, strategy), so independent trajectories can run
concurrently without sharing anything.  The steps, ``regret_loss`` and
the normalization also take ``(rows, d)`` stacks of independent
vectors and treat each row exactly as they treat a 1-D vector, bit for
bit: row sums are ``sum(axis=1)`` and row inner products ``np.vecdot``,
which on C-contiguous stacks reduce each row in the 1-D order.

Block layouts
-------------
Block-structured strategies (one block per player, or one per
information set of a game tree) are held as one flat vector, cut by a
``BlockLayout``.  A per-block operation then runs once per *width
bucket*: the blocks that share a width, gathered as a dense
``(rows, width)`` stack (a 1-D view for a bucket of one block), so its
cost scales with the number of distinct widths rather than of blocks.
``BlockVector`` reads such a vector as a sequence of blocks, for callers
that index or iterate blocks.

An exact-rational replay (``replay_exact``) exists solely for the
adversarial two-action loss sequences, whose iterates are all dyadic and
can therefore be checked without rounding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "AggregateState",
    "BlockLayout",
    "BlockVector",
    "NonFiniteError",
    "as_flat",
    "joint_distance",
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
    if r.ndim == 1:
        total = r.sum()
        if total > 0.0:
            return r / total
        return np.full(r.shape, 1.0 / r.size)
    total = r.sum(axis=1, keepdims=True)
    return np.divide(r, total, out=np.full(r.shape, 1.0 / r.shape[1]),
                     where=total > 0.0)


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
    return _regret_loss(*_checked(x, loss))


def _checked(x, loss) -> tuple[np.ndarray, np.ndarray]:
    x, loss = np.asarray(x, dtype=float), np.asarray(loss, dtype=float)
    if x.shape != loss.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {loss.shape}")
    if not np.isfinite(loss).all():
        raise NonFiniteError("regret_loss: non-finite loss")
    return x, loss


def _regret_loss(x: np.ndarray, loss: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return loss - np.dot(x, loss)
    # a one-term np.dot is the product, -0.0 kept; np.vecdot adds it to +0.0
    return loss - (x * loss if x.shape[1] == 1 else np.vecdot(x, loss)[:, None])


@dataclass(frozen=True)
class AggregateState:
    """Lifted solver state: aggregate payoffs and prediction memory.

    ``r`` is the nonnegative aggregate payoff vector, ``prediction`` the
    stored prediction m (zero when there is none); both may also be
    ``(rows, d)`` stacks of independent states, which the steps advance
    row by row.
    """

    r: np.ndarray
    prediction: np.ndarray

    @staticmethod
    def initial(dim: int) -> "AggregateState":
        """R = 0 and no prediction: the first play is uniform."""
        return AggregateState(np.zeros(dim), np.zeros(dim))


def rm_plus_step(state: AggregateState, loss) -> tuple[AggregateState, np.ndarray]:
    """One RM+ round: play x = g(R), then R' = [R + <x,l>1 - l]+.

    The returned strategy is the one played *before* the loss is seen.
    The prediction memory is carried through untouched (RM+ ignores it).
    ``regret_loss`` checks the loss's shape and finiteness.
    """
    x = _normalize_nonneg(state.r)
    r_next = np.maximum(state.r - regret_loss(x, loss), 0.0)
    return AggregateState(r_next, state.prediction), x


def prm_plus_step(state: AggregateState, loss) -> tuple[AggregateState, np.ndarray]:
    """One predictive RM+ round.

    Plays x = g([R + m]+), updates R' = [R - f(x, l)]+ and stores the
    next-round prediction m' = -f(x, l).  With m = 0 throughout this is
    exactly ``rm_plus_step`` (R stays nonnegative, so [R + 0]+ = R).
    """
    x = _normalize_nonneg(np.maximum(state.r + state.prediction, 0.0))
    return AggregateState(*_prm_plus_update(state.r, *_checked(x, loss))), x


def _prm_plus_update(r: np.ndarray, x: np.ndarray, loss: np.ndarray):
    """``prm_plus_step``'s update at its play x, unchecked: ([R - f]+, -f)."""
    f = _regret_loss(x, loss)
    return np.maximum(r - f, 0.0), -f


class BlockLayout:
    """Consecutive blocks of one flat vector, grouped by width.

    Block b is entries ``offsets[b]:offsets[b+1]`` (``bounds[b]``) of a
    vector of length ``size``.  ``buckets`` holds, for every width among
    ``members`` (all blocks by default), the pair (block numbers
    ``(rows,)``, positions): ``v[positions]`` gathers those blocks,
    ``v[positions] = m`` scatters them back.  Positions are an index
    array ``(rows, width)``, gathering a C-contiguous stack, or for a
    single block the slice ``lo:hi``, gathering a 1-D view.
    """

    def __init__(self, widths, members=None):
        self.widths = np.asarray(widths, dtype=np.intp)
        self.offsets = np.zeros(self.widths.size + 1, dtype=np.intp)
        np.cumsum(self.widths, out=self.offsets[1:])
        self.size = int(self.offsets[-1])
        self.bounds = tuple(zip(self.offsets[:-1].tolist(),
                                self.offsets[1:].tolist()))
        members = (np.arange(self.widths.size) if members is None
                   else np.asarray(members, dtype=np.intp))
        self.buckets = tuple(
            (ids, slice(*self.bounds[ids[0]]) if ids.size == 1
             else self.offsets[ids, None] + np.arange(width))
            for width in np.unique(self.widths[members]).tolist()
            for ids in [members[self.widths[members] == width]])

    @cached_property
    def _views(self) -> tuple:
        """Per bucket, in ``buckets`` order, (positions, shape) to read it
        as ``v[positions].reshape(shape)``: a view of a slice for one
        block or a contiguous run of them, else a gather."""
        return tuple(
            (index, (index.stop - index.start,)) if isinstance(index, slice)
            else (slice(*self.offsets[[ids[0], ids[-1] + 1]].tolist()),
                  index.shape) if (np.diff(ids) == 1).all()
            else (index.ravel(), index.shape)
            for ids, index in self.buckets)

    @cached_property
    def _row_order(self) -> list[int]:
        """For each member block, its place among the buckets' rows."""
        rows = np.concatenate([ids for ids, _ in self.buckets])
        return np.argsort(rows).tolist()

    @cached_property
    def ragged(self) -> tuple:
        """The member blocks as one run, in ``buckets`` order: their
        positions in the vector, each bucket's (lo, hi, (rows, width)) in
        the run, and a (blocks, widest) index of each block's entries in
        the run, padded with the run's length."""
        runs = [np.arange(self.size)[index].reshape(ids.size, -1)
                for ids, index in self.buckets]
        ends = np.cumsum([0] + [run.size for run in runs]).tolist()
        widths = np.array([run.shape[1] for run in runs for _ in run], np.intp)
        ks = np.arange(widths.max(initial=0))
        return (np.concatenate([np.empty(0, np.intp)] + [r.ravel() for r in runs]),
                tuple(zip(ends, ends[1:], [run.shape for run in runs])),
                np.where(ks < widths[:, None],
                         (np.cumsum(widths) - widths)[:, None] + ks, ends[-1]))

    def restricted(self, members) -> "BlockLayout":
        """The same blocks, with buckets over ``members`` only."""
        return BlockLayout(self.widths, members)


class BlockVector(Sequence):
    """A flat vector read as the blocks of a ``BlockLayout``: item b is a
    view of block b, and ``vector`` is the flat vector itself."""

    __slots__ = ("vector", "layout")

    def __init__(self, vector: np.ndarray, layout: BlockLayout):
        self.vector = vector
        self.layout = layout

    def __len__(self) -> int:
        return len(self.layout.bounds)

    def __getitem__(self, b: int) -> np.ndarray:
        lo, hi = self.layout.bounds[b]
        return self.vector[lo:hi]


def as_flat(blocks) -> np.ndarray:
    """A ``BlockVector``'s own flat vector, or the blocks concatenated."""
    if isinstance(blocks, BlockVector):
        return blocks.vector
    return np.concatenate([*blocks, ()], dtype=float)


def joint_distance(a, b) -> float:
    """Euclidean distance between two equally cut sequences of blocks,
    taken over all blocks jointly."""
    total = 0.0  # left to right: Python's sum compensates from 3.12
    for u, v in zip(a, b):
        total += float(np.sum((u - v) ** 2))
    return total ** 0.5


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

    ``losses`` holds per-round loss rows, a sequence or a ``(T, d)`` array
    of Fraction-convertible entries; ``variant`` is ``"rm+"`` or ``"prm+"``.
    """
    if variant not in ("rm+", "prm+"):
        raise ValueError(f"unknown variant: {variant!r}")
    if not len(losses):
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
