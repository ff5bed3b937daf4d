"""Game specifications and oracles.

Matrix games, multiplayer normal-form tensors, their gradient operators and
smoothness constants, the 3x3 hard instance, the adversarial loss
generators, seeded random-game generation, and the duality gap (the
coarse-correlated-equilibrium gap of the other games is the experiment
harness's, computed from its cumulative regrets).

Sign convention (fixed once, used everywhere): solvers consume *losses*.
For a matrix game the row player maximizes <x, A y>, so their loss is
-A y; the column player minimizes, so their loss is A^T x.  Equivalently,
``gradients`` returns G(x) = (-grad u_1, ..., -grad u_n) for the players'
utility functions.

A normal-form gradient contracts player i's payoff tensor with the other
players' strategies, last player first, through a plan built once per
player: per step the permutation and 2-D shape that ``np.tensordot(grad,
x_j, axes=([j], [0]))`` builds, and the first step's matrix (a view, or
one C-order copy).  Each step is one ``np.dot`` on exactly the operands
``tensordot`` hands it, so the floats are ``tensordot``'s.

Game file grammar (``save_game`` / ``load_game``)
-------------------------------------------------
Plain text; blank lines and ``#`` comments are ignored, and the first
token names the kind: ``matrix``, ``nfg``, or ``efg`` for a tree file,
read and written by ``efg`` in its grammar.  Matrix and normal-form
tokens are whitespace-separated and may wrap lines freely.

Matrix game (two-line header, then the d1 x d2 payoff grid in row-major
order; entries are the row player's payoffs)::

    matrix
    <d1> <d2>
    <d1 * d2 floats>

Normal-form game (header with player count, then the action counts, then
one payoff block per player; each block lists the player's payoff for
every pure profile in row-major order, last player's action fastest)::

    nfg <n>
    <d1> <d2> ... <dn>
    <prod(d) floats>     # player 1
    ...
    <prod(d) floats>     # player n
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import efg
from . import _rng
from .core import BlockLayout

__all__ = [
    "MatrixGame",
    "NormalFormGame",
    "hard_instance",
    "instability_losses",
    "random_matrix_game",
    "random_nfg",
    "duality_gap",
    "save_game",
    "load_game",
]


@dataclass(frozen=True)
class MatrixGame:
    """Two-player zero-sum game: row player maximizes <x, A y>."""

    payoff: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.payoff, dtype=float)
        if a.ndim != 2:
            raise ValueError("payoff matrix must be 2-D")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff matrix has non-finite entries")
        object.__setattr__(self, "payoff", a)

    @property
    def num_players(self) -> int:
        return 2

    @property
    def dims(self) -> tuple[int, int]:
        return self.payoff.shape

    @functools.cached_property
    def layout(self) -> BlockLayout:
        """The players' strategies as the blocks of one flat vector."""
        return BlockLayout(self.dims)

    @functools.cached_property
    def _negated_payoff(self) -> np.ndarray:
        return -self.payoff  # the row player's losses, negated once

    def gradients(self, strategies) -> list[np.ndarray]:
        x, y = strategies
        return [self._negated_payoff @ y, self.payoff.T @ x]

    def gradient_for(self, player: int, strategies) -> np.ndarray:
        if player == 0:
            return self._negated_payoff @ strategies[1]
        return self.payoff.T @ strategies[0]

    @functools.cached_property
    def constants(self) -> tuple[float, float]:
        """(B_u, L_u): gradient bound and smoothness constant.

        ||A y||_2 is convex in y, hence maximized at a vertex, so
        B_u = max over columns/rows of the column/row 2-norms; the gradient
        is linear in the opponent, so L_u is the spectral norm of A.
        """
        a = self.payoff
        b_u = max(
            float(np.linalg.norm(a, axis=0).max()),  # ||A e_j||
            float(np.linalg.norm(a, axis=1).max()),  # ||A^T e_i||
        )
        return b_u, spectral_norm(a)


@dataclass(frozen=True)
class NormalFormGame:
    """n-player normal-form game stored as full payoff tensors.

    ``payoffs[i]`` has shape ``dims`` and holds player i's payoff at every
    pure profile.  Utilities are the multilinear extensions.  Gradients
    run through contraction plans (see above), built on first use.
    """

    payoffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        tensors = tuple(np.asarray(u, dtype=float) for u in self.payoffs)
        if not tensors:
            raise ValueError("need at least one player")
        shape = tensors[0].shape
        if len(shape) != len(tensors):
            raise ValueError("need one tensor axis per player")
        for u in tensors:
            if u.shape != shape:
                raise ValueError("payoff tensors must share one shape")
            if not np.all(np.isfinite(u)):
                raise ValueError("payoff tensor has non-finite entries")
        object.__setattr__(self, "payoffs", tensors)

    @property
    def num_players(self) -> int:
        return len(self.payoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.payoffs[0].shape

    @functools.cached_property
    def layout(self) -> BlockLayout:
        """The players' strategies as the blocks of one flat vector."""
        return BlockLayout(self.dims)

    def utility(self, player: int, strategies) -> float:
        value = self.payoffs[player]
        for x in strategies:
            value = np.tensordot(value, np.asarray(x, dtype=float), axes=([0], [0]))
        return float(value)

    def gradients(self, strategies) -> list[np.ndarray]:
        """Per-player losses -grad_{x_i} u_i(x).

        Entry a of player i's payoff gradient is the expected payoff of
        pure action a against the opponents' mixed profile.
        """
        xs = [np.asarray(x, dtype=float) for x in strategies]
        if len(xs) != self.num_players:
            raise ValueError("one strategy per player required")
        for i, x in enumerate(xs):
            if x.shape != (self.dims[i],):
                raise ValueError(f"dimension mismatch for player {i}")
        return [self._loss_gradient(i, xs) for i in range(self.num_players)]

    def gradient_for(self, player: int, strategies) -> np.ndarray:
        xs = [np.asarray(x, dtype=float) for x in strategies]
        return self._loss_gradient(player, xs)

    @functools.cached_property
    def _plans(self) -> tuple:
        """Per player, (first matrix, steps): per contracted axis j, the
        (j, permutation, 2-D shape, result shape) of ``tensordot``."""
        plans = []
        for i, u in enumerate(self.payoffs):
            shape, steps = list(u.shape), []
            for j in reversed(range(len(shape))):
                if j != i:
                    rest = shape[:j] + shape[j + 1:]
                    perm = [*range(j), *range(j + 1, len(shape)), j]
                    steps.append((j, perm, (math.prod(rest), shape[j]), rest))
                    shape = rest
            first = u.transpose(steps[0][1]).reshape(steps[0][2]) if steps else u
            plans.append((first, steps))
        return tuple(plans)

    def _loss_gradient(self, i: int, xs) -> np.ndarray:
        grad, steps = self._plans[i]
        for k, (j, perm, matrix, rest) in enumerate(steps):
            if k:
                grad = grad.transpose(perm).reshape(matrix)
            grad = np.dot(grad, xs[j].reshape(matrix[1], 1)).reshape(rest)
        return -grad

    @functools.cached_property
    def constants(self) -> tuple[float, float]:
        """(B_u, L_u) upper bounds from pure-profile enumeration.

        B_u: the gradient's norm is convex in the opponents' profile, so
        its maximum is attained at a pure profile.  L_u: changing one
        opponent k at a time, the gradient moves by at most
        L_ik ||x_k - x_k'|| where L_ik is the largest operator norm of the
        (i, k) matrix unfolding over pure choices of the remaining
        players; Cauchy-Schwarz over k gives max_i sqrt(sum_k L_ik^2).
        """
        n = self.num_players
        b_u = l_u = 0.0
        for i, u in enumerate(self.payoffs):
            # per pure profile of the others: player i's payoff vector, and
            # for each opponent k the (i, k) slab; the same strided views as
            # indexing ``u`` with the profile, enumerated in the same order
            fibers = np.moveaxis(u, i, -1)
            for index in np.ndindex(fibers.shape[:-1]):
                fiber = fibers[index].ravel(order="K")
                b_u = max(b_u, math.sqrt(fiber @ fiber))
            lik_sq = 0.0
            for k in range(n):
                if k == i:
                    continue
                slabs = np.moveaxis(u, (i, k), (-2, -1))
                lik = 0.0
                for index in np.ndindex(slabs.shape[:-2]):
                    lik = max(lik, spectral_norm(slabs[index]))
                lik_sq += lik * lik
            l_u = max(l_u, lik_sq**0.5)
        return b_u, l_u


def spectral_norm(a: np.ndarray) -> float:
    """||A||_op by power iteration on A^T A, deterministic start 1/sqrt(d):
    at most 200 iterations, stopping once the estimate moves by no more
    than 1e-10 of itself.  ||w|| is ``math.sqrt(w @ w)``: the BLAS ddot and
    sqrt that ``np.linalg.norm`` runs on a 1-D vector, here a fresh product
    (``NormalFormGame.constants`` copies each strided fiber first, as
    ``norm`` does: a ddot on strided or offset data rounds differently).
    The result is ``inf`` once A^T A overflows."""
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not a.any():
        return 0.0
    v = np.full(a.shape[1], 1.0 / a.shape[1] ** 0.5)
    sigma = 0.0
    for _ in range(200):
        w = a.T @ (a @ v)
        norm = math.sqrt(w @ w)
        if not norm < math.inf:  # A^T A overflowed (inf, or nan from inf - inf)
            return math.inf
        if norm == 0.0:
            # start vector in the kernel: fall back to the largest column
            v = np.eye(a.shape[1])[np.argmax(np.linalg.norm(a, axis=0))]
            continue
        v = w / norm
        new_sigma = norm**0.5
        if sigma > 0.0 and abs(new_sigma - sigma) <= 1e-10 * sigma:
            return new_sigma
        sigma = new_sigma
    return sigma


def hard_instance() -> MatrixGame:
    """The 3x3 game on which unstabilized (P)RM+ slows to ~T^-0.5."""
    return MatrixGame(np.array([
        [3.0, 0.0, -3.0],
        [0.0, 3.0, -4.0],
        [0.0, 0.0, 1.0],
    ]))


def _instability_scalar(t: int, variant: str) -> float:
    # first component of the round-t loss; the second component is 0
    if variant == "rm+":
        if t == 1:
            return 2.0
        if t % 2 == 0:
            return -(2.0 ** ((t - 2) // 2))
        return 2.0 ** ((t - 1) // 2)
    if variant == "prm+":
        if t == 1:
            return 4.0
        if t == 2:
            return -1.0
        if t % 2 == 1:
            return 2.0 ** ((t + 1) // 2)
        return -(2.0 ** ((t - 2) // 2))
    raise ValueError(f"unknown variant: {variant!r}")


def instability_losses(T: int, variant: str, scaled: bool = False) -> np.ndarray:
    """The ``(T, 2)`` losses driving (P)RM+ into perpetual oscillation.

    Replayed from R = 0, the strategy alternates between (1/2, 1/2) at odd
    rounds and (0, 1) at even rounds.  With ``scaled`` the sequence is
    divided by L_T = max_t |l^t| so all entries lie in [-1, 1]; both
    algorithms are scale-invariant, so the iterates are unchanged (and all
    values stay dyadic, hence exact in binary floating point for moderate
    T).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    # the largest T whose entries fit in a float (the next is 2**1024)
    largest = {"rm+": 2048, "prm+": 2046}.get(variant, T)
    if T > largest:
        raise ValueError(f"T={T} overflows the float range: the {variant} "
                         f"sequence allows at most T={largest}")
    first = np.array([_instability_scalar(t, variant) for t in range(1, T + 1)])
    if scaled:
        first = first / np.abs(first).max()
    out = np.zeros((T, 2))
    out[:, 0] = first
    return out


def random_matrix_game(d1: int, d2: int, seed: int) -> MatrixGame:
    """Seeded i.i.d. standard-normal payoff matrix (``_rng`` stream)."""
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be positive")
    return MatrixGame(_rng.normals(seed, d1 * d2).reshape(d1, d2))


def random_nfg(dims, seed: int) -> NormalFormGame:
    """Seeded random normal-form game with payoffs uniform in [-1, 1]."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("need >= 2 players with positive action counts")
    draws = _rng.uniforms(seed, math.prod(dims) * len(dims))
    return NormalFormGame(tuple((2.0 * block - 1.0).reshape(dims)
                                for block in np.split(draws, len(dims))))


def duality_gap(game: MatrixGame, x, y) -> float | np.ndarray:
    """max_i (A y)_i - min_j (x^T A)_j; zero exactly at a Nash equilibrium.
    On ``(n, d_i)`` stacks of profiles, one gap per row, bit for bit as row
    by row: numpy runs one matrix-vector product per stacked row."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        return float((game.payoff @ y).max() - (x @ game.payoff).min())
    return ((game.payoff @ y[:, :, None])[:, :, 0].max(axis=-1)
            - (x[:, None, :] @ game.payoff)[:, 0].min(axis=-1))


# --- plain-text game files ---------------------------------------------------


def save_game(game, path) -> None:
    """Write a matrix game, normal-form game or game tree in its grammar."""
    if isinstance(game, efg.GameTree):
        efg.save_tree(game, path)
        return
    # checked first: opening the path truncates a file already there
    if not isinstance(game, (MatrixGame, NormalFormGame)):
        raise ValueError(f"cannot serialize {type(game).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(game, MatrixGame):
            fh.write("matrix\n{} {}\n".format(*game.dims))
            for row in game.payoff:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        else:
            fh.write(f"nfg {game.num_players}\n")
            fh.write(" ".join(str(d) for d in game.dims) + "\n")
            for u in game.payoffs:
                fh.write(" ".join(f"{v:.17g}" for v in u.ravel()) + "\n")


def _tokens(path):
    """Iterator over (token, line number); ``#`` starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    return ((token, lineno) for lineno, line in enumerate(lines, start=1)
            for token in line.split("#", 1)[0].split())


def load_game(path):
    """Parse a game file of any kind (see the module docstring for the
    grammar); an ``efg`` file is read by ``efg.load_tree``.

    Every malformed input raises ValueError naming the file and the line
    of the offending token."""
    tokens = _tokens(path)
    kind, line = next(tokens, (None, 0))
    if kind is None:
        raise ValueError(f"{path}: empty game file")
    if kind == "efg":
        return efg.load_tree(path)

    def error(message: str) -> ValueError:
        return ValueError(f"{path}:{line}: {message}")

    def take(what: str) -> str:
        nonlocal line
        token, line = next(tokens, (None, line))
        if token is None:
            raise error(f"truncated game file: expected {what}")
        return token

    def count(what: str) -> int:
        token = take(what)
        if not token.isdecimal() or int(token) < 1:
            raise error(f"{what} must be a positive integer, got {token!r}")
        return int(token)

    def payoffs(shape) -> np.ndarray:
        size = math.prod(shape)
        values = []
        for _ in range(size):
            token = take(f"{size} payoffs")
            try:
                values.append(float(token))
            except ValueError:
                raise error(f"bad payoff {token!r}") from None
            if not math.isfinite(values[-1]):
                raise error(f"non-finite payoff {token!r}")
        return np.array(values).reshape(shape)

    if kind == "matrix":
        shape = (count("row count"), count("column count"))
        game = MatrixGame(payoffs(shape))
    elif kind == "nfg":
        n = count("player count")
        shape = tuple(count(f"action count of player {i + 1}") for i in range(n))
        game = NormalFormGame(tuple(payoffs(shape) for _ in range(n)))
    else:
        raise error(f"unknown game kind {kind!r}")
    leftover = next(tokens, None)
    if leftover is not None:
        token, line = leftover
        raise error(f"trailing token {token!r}")
    return game
