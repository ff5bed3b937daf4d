"""Conceptual and extragradient RM+ on the chopped joint space.

The joint lifted dynamics of all players are driven by the operator

    F(z) = ( f(x_1, l_1), ..., f(x_n, l_n) ),   x_i = g(z_i),
    (l_1, ..., l_n) = G(x),

evaluated on X> = prod_i D>_i (each block nonnegative with mass >= 1),
where F is Lipschitz.  The conceptual update solves the fixed-point
equation

    z_t = P_{z_{t-1}}( eta * F(z_t) ),

by iterating the contraction w <- P_{z_{t-1}}(eta * F(w)) from w = z_{t-1}
(a contraction whenever eta * L_F < 1); the extragradient update (ExRM+)
is the same scheme truncated to a single inner iteration,
``conceptual_round(z, game, eta, eps_target=-1.0, k_max=1)``.  P_z(v)
denotes the Euclidean proximal step, i.e. the blockwise chopped
projection of z - v.

The solve runs on one flat joint vector in ``game.layout`` (one block
per player), each per-block step once per width bucket, with the floats
of the per-block code.  Checks sit at the boundary: ``conceptual_round``
checks z_{t-1} on entry; each inner iteration calls the public
``operator_F`` (one membership test per width bucket) and tests the
proximal input z_{t-1} - eta F(w) once for finiteness before the
unchecked chopped kernel projects it (``project_chopped`` is that check
plus the kernel).  The solve hands back g(w) and F(w) from its last
operator call: the played increments <x, l> - l are -F(w), so a caller
needs no further gradient call.

Step-size prescriptions used by the harness: eta = 1/(2 L_F) for the
conceptual solver and eta = 1/(sqrt(2) L_F) for the extragradient one,
with L_F from ``lipschitz_bound``:

 * matrix games:       sqrt(6) * ||A||_op * max(d1, d2),
 * normal-form games:  (max_i d_i) * sqrt(2 B_u^2 + 4 L_u^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BlockVector, _normalize_nonneg, as_flat
from .games import MatrixGame, spectral_norm
from .stabilized import _check_finite, _chopped_kernel, _in_chopped

__all__ = [
    "FixedPointReport",
    "operator_F",
    "lipschitz_bound",
    "initial_lifted_point",
    "conceptual_round",
]


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of one inner fixed-point solve.

    ``iterations`` counts the proximal applications performed;
    ``residual`` is ||w - P_{z_prev}(eta F(w))||_2 for the returned point;
    ``history`` holds the residual measured at every inner iteration.
    """

    iterations: int
    residual: float
    converged: bool
    history: tuple[float, ...] = field(default=(), repr=False)


def _flat_point(z_blocks, layout) -> np.ndarray:
    """The flat vector of a joint point (one block per player, or a
    ``BlockVector`` in ``layout``), checked to lie in the chopped joint
    space: one membership test per width bucket."""
    if isinstance(z_blocks, BlockVector) and z_blocks.layout is layout:
        z = np.asarray(z_blocks.vector, dtype=float)
        if z.shape != (layout.size,):
            raise ValueError("block dimension mismatch")
    else:
        blocks = [np.asarray(b, dtype=float) for b in z_blocks]
        if len(blocks) != len(layout.bounds):
            raise ValueError("one block per player required")
        if any(b.shape != (d,) for b, d in zip(blocks, layout.widths.tolist())):
            raise ValueError("block dimension mismatch")
        z = as_flat(blocks)
    if not all(_in_chopped(z[index]).all() for _, index in layout.buckets):
        raise ValueError("point outside the chopped joint space")
    return z


def _plays(w: np.ndarray, layout) -> np.ndarray:
    """g(w): every block normalized, one call per width bucket."""
    x = np.empty(layout.size)
    for _, index in layout.buckets:
        x[index] = _normalize_nonneg(w[index])
    return x


def operator_F(z_blocks, game) -> BlockVector:
    """Evaluate F at a feasible joint lifted point (one block per player);
    the value reads as one block per player."""
    layout = game.layout
    x = _plays(_flat_point(z_blocks, layout), layout)
    losses = as_flat(game.gradients([x[lo:hi] for lo, hi in layout.bounds]))
    f = np.empty(layout.size)
    for _, index in layout.buckets:
        xs, ls = x[index], losses[index]
        f[index] = ls - np.vecdot(xs, ls)[..., None]
    return BlockVector(f, layout)


def lipschitz_bound(game) -> float:
    """Upper bound L_F on the Lipschitz constant of F over X>."""
    if isinstance(game, MatrixGame):
        d1, d2 = game.dims
        return 6.0**0.5 * spectral_norm(game.payoff) * max(d1, d2)
    b_u, l_u = game.constants
    return max(game.dims) * (2.0 * b_u**2 + 4.0 * l_u**2) ** 0.5


def initial_lifted_point(dims) -> list[np.ndarray]:
    """Per-player uniform blocks (1/d_i) * 1: unit mass, feasible in X>."""
    return [np.full(d, 1.0 / d) for d in dims]


def _solve(z_prev: np.ndarray, game, eta: float, eps_target: float,
           k_max: int):
    """``conceptual_round`` on the flat vector z_prev in ``game.layout``,
    which the caller has checked.  Returns (z_next, w, g(w), F(w),
    report), all four vectors flat."""
    layout = game.layout
    w = z_prev
    history: list[float] = []
    # with the budget of k_max iterations exhausted, the last iterate is
    # accepted; measuring its residual doubles as the state advance
    for k in range(1, k_max + 2):
        f = operator_F(BlockVector(w, layout), game).vector
        y = _check_finite(z_prev - eta * f)
        advanced = np.empty(layout.size)
        for _, index in layout.buckets:
            advanced[index] = _chopped_kernel(y[index])
        residual = sum(layout.squared_distances(w, advanced).tolist()) ** 0.5
        history.append(residual)
        if residual <= eps_target or k > k_max:
            return advanced, w, _plays(w, layout), f, FixedPointReport(
                min(k, k_max), residual, residual <= eps_target, tuple(history))
        w = advanced


def conceptual_round(z_prev, game, eta: float, eps_target: float, k_max: int
                     ) -> tuple[BlockVector, BlockVector, FixedPointReport]:
    """One conceptual round: approximately solve z = P_{z_prev}(eta F(z))
    from w^0 = z_prev, then advance the state through one more proximal
    step at F(w).

    Returns (z_next, w, report), each point read as one block per player:
    w is the first iterate whose measured residual reached
    ``eps_target`` (or the last iterate if the budget of ``k_max``
    iterations ran out) and is played as g(w); z_next =
    P_{z_prev}(eta F(w)), computed as a by-product of the residual
    measurement.  Convergence is geometric at rate eta * L_F when that
    product is below 1; with eta * L_F >= 1 the loop still runs but
    typically reports ``converged=False`` after ``k_max`` iterations.
    ``eps_target=-1.0, k_max=1`` is the extragradient (ExRM+) round.
    """
    if eta <= 0.0:
        raise ValueError("step size eta must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    layout = game.layout
    z_next, w, _, _, report = _solve(_flat_point(z_prev, layout), game, eta,
                                     eps_target, k_max)
    return BlockVector(z_next, layout), BlockVector(w, layout), report
