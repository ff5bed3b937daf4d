"""The seeded streams random games are drawn from, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretkit import _rng

from .oracles import PortableRandom

SEEDS = st.one_of(st.sampled_from([-1, 0, 2**64 - 1, 2**64, 2**64 + 1234567]),
                  st.integers(-(2**70), 2**70))


@pytest.mark.parametrize("seed,published", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [0x599ED017FB08FC85]),
], ids=["seed0", "seed1234567"])
def test_published_splitmix64_outputs(seed, published):
    expected = np.array(published, dtype=np.uint64)
    assert _rng._draws(seed, len(published)).tobytes() == expected.tobytes()
    rng = PortableRandom(seed)
    assert [rng.next_u64() for _ in published] == published


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, count=st.integers(0, 300))
@example(seed=-1, count=0)
@example(seed=0, count=1)
@example(seed=2**64 - 1, count=7)
@example(seed=2**64 + 3, count=8)
def test_streams_match_the_scalar_oracle(seed, count):
    uniforms = np.array(PortableRandom(seed).uniforms(count), dtype=float)
    normals = np.array(PortableRandom(seed).normals(count), dtype=float)
    assert _rng.uniforms(seed, count).tobytes() == uniforms.tobytes()
    assert _rng.normals(seed, count).tobytes() == normals.tobytes()

