from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretkit import efg
from regretkit.core import (
    AggregateState,
    BlockLayout,
    NonFiniteError,
    lifted_regret_equivalence,
    normalize,
    prm_plus_step,
    regret_loss,
    replay_exact,
    rm_plus_step,
)
from regretkit.games import instability_losses, random_nfg
from regretkit.harness import SolverConfig, run

from .oracles import squared_distances


class TestNormalize:
    def test_symmetric(self):
        np.testing.assert_allclose(normalize([2.0, 2.0]), [0.5, 0.5])

    def test_zero_vector_is_uniform(self):
        np.testing.assert_array_equal(normalize([0.0, 0.0, 0.0]),
                                      [1 / 3, 1 / 3, 1 / 3])

    def test_scale_invariance(self):
        np.testing.assert_allclose(normalize([0.0, 0.5, 1.5]),
                                   [0.0, 0.25, 0.75])
        np.testing.assert_allclose(normalize([0.0, 5.0, 15.0]),
                                   [0.0, 0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize([1.0, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            normalize([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            normalize([np.inf, 1.0])


class TestRegretLoss:
    def test_direct_evaluation(self):
        np.testing.assert_allclose(
            regret_loss([0.5, 0.5], [1.0, 0.0]), [0.5, -0.5])
        np.testing.assert_allclose(
            regret_loss([1.0, 0.0], [1.0, 0.0]), [0.0, -1.0])

    def test_constant_loss_maps_to_zero(self):
        x = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(regret_loss(x, [3.0, 3.0, 3.0]),
                                   np.zeros(3), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            regret_loss([0.5, 0.5], [1.0, 0.0, 0.0])

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_orthogonal_to_strategy(self, d, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 3.0, d)
        x = normalize(r)
        loss = rng.normal(size=d)
        f = regret_loss(x, loss)
        assert abs(np.dot(x, f)) < 1e-12
        # and against the lifted point itself
        assert abs(np.dot(r, f)) < 1e-12 * max(1.0, np.abs(r).sum())


    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           d=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_stack_rows_match_one_dimensional(self, seed, rows, d):
        # zeros of both signs included: a width-1 row of loss -0.0 has
        # f = +0.0 and m' = -0.0, as the 1-D call computes them
        rng = np.random.default_rng(seed)
        pick = rng.integers(0, 4, (2, rows, d))
        r = np.choose(pick[0], [0.0, -0.0, 1.0, rng.uniform(0.0, 2.0)])
        loss = np.choose(pick[1], [0.0, -0.0, 0.5, rng.normal()])
        state = AggregateState(r, -loss)
        x = np.stack([normalize(np.maximum(row, 0.0)) for row in r + 1.0])
        f = regret_loss(x, loss)
        step, played = prm_plus_step(state, loss)
        for i in range(rows):
            assert f[i].tobytes() == regret_loss(x[i], loss[i]).tobytes()
            alone, x_alone = prm_plus_step(AggregateState(r[i], -loss[i]),
                                           loss[i])
            assert played[i].tobytes() == x_alone.tobytes()
            assert step.r[i].tobytes() == alone.r.tobytes()
            assert step.prediction[i].tobytes() == alone.prediction.tobytes()


class TestRmPlusStep:
    def test_from_origin(self):
        state = AggregateState.initial(2)
        state, x = rm_plus_step(state, [1.0, 0.0])
        np.testing.assert_allclose(x, [0.5, 0.5])
        np.testing.assert_allclose(state.r, [0.0, 0.5])

    def test_pure_second_coordinate(self):
        # aggregate (0, 1) plays the second action regardless of the loss
        state = AggregateState(np.array([0.0, 1.0]), np.zeros(2))
        _, x = rm_plus_step(state, [7.0, -3.0])
        np.testing.assert_array_equal(x, [0.0, 1.0])

    def test_zero_loss_is_fixed_point(self):
        state = AggregateState(np.full(3, 2.5), np.zeros(3))
        new, x = rm_plus_step(state, np.zeros(3))
        np.testing.assert_array_equal(x, [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(new.r, state.r)

    def test_rejects_non_finite_loss(self):
        with pytest.raises(NonFiniteError):
            rm_plus_step(AggregateState.initial(2), [np.nan, 0.0])


class TestPrmPlusStep:
    def test_zero_prediction_reduces_to_rm_plus(self):
        rng = np.random.default_rng(7)
        s_rm = AggregateState.initial(3)
        s_prm = AggregateState.initial(3)
        for _ in range(50):
            loss = rng.normal(size=3)
            s_rm, x_rm = rm_plus_step(s_rm, loss)
            # zero out the stored prediction to emulate m = 0 throughout
            s_prm = AggregateState(s_prm.r, np.zeros(3))
            s_prm, x_prm = prm_plus_step(s_prm, loss)
            np.testing.assert_array_equal(x_rm, x_prm)
            np.testing.assert_array_equal(s_rm.r, s_prm.r)

    def test_adversarial_sequence_first_steps(self):
        # losses 4 then -1 land on aggregate (1,2), hat (2,2), play (1/2,1/2)
        state = AggregateState.initial(2)
        state, x1 = prm_plus_step(state, [4.0, 0.0])
        np.testing.assert_array_equal(x1, [0.5, 0.5])
        state, x2 = prm_plus_step(state, [-1.0, 0.0])
        np.testing.assert_array_equal(x2, [0.0, 1.0])
        np.testing.assert_array_equal(state.r, [1.0, 2.0])
        r_hat = np.maximum(state.r + state.prediction, 0.0)
        np.testing.assert_array_equal(r_hat, [2.0, 2.0])
        _, x3 = prm_plus_step(state, [0.0, 0.0])
        np.testing.assert_array_equal(x3, [0.5, 0.5])

    def test_zero_loss_uniform_fixed_point(self):
        state = AggregateState(np.full(4, 1.5), np.zeros(4))
        new, x = prm_plus_step(state, np.zeros(4))
        np.testing.assert_array_equal(x, np.full(4, 0.25))
        np.testing.assert_array_equal(new.r, state.r)


class TestRegretLedger:
    """A run's ``ledgers`` hold each player's cumulative per-action regret
    sum_t <x^t, l^t> - sum_t l^t."""

    def test_recompute_from_trace(self):
        trace = run(SolverConfig(algorithm="rm+", iters=200, store_full=True),
                    random_nfg((4, 3), 3))
        for ledger, xs, losses in zip(trace.ledgers, trace.strategies,
                                      trace.losses):
            recomputed = np.sum(xs * losses) - losses.sum(axis=0)
            np.testing.assert_allclose(ledger, recomputed, atol=1e-9)


class TestLiftedRegretEquivalence:
    def test_single_step_by_hand(self):
        plain, lifted = lifted_regret_equivalence(
            [[0.5, 0.5]], [[1.0, 0.0]], [[0.0, 0.0]], [0.0, 1.0])
        assert plain == pytest.approx(0.5, abs=1e-15)
        assert lifted == pytest.approx(0.5, abs=1e-15)

    def test_constant_losses_vanish(self):
        xs = np.array([[0.3, 0.7], [0.9, 0.1]])
        losses = np.full((2, 2), 5.0)
        for comparator in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
            plain, lifted = lifted_regret_equivalence(xs, losses, xs, comparator)
            assert plain == pytest.approx(0.0, abs=1e-12)
            assert lifted == pytest.approx(0.0, abs=1e-12)

    def test_random_trace_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        state = AggregateState.initial(3)
        xs, losses, lifted_pts = [], [], []
        for _ in range(5):
            loss = rng.normal(size=3)
            lifted_pts.append(state.r.copy())
            state, x = rm_plus_step(state, loss)
            xs.append(x)
            losses.append(loss)
        comparator = np.array([0.2, 0.5, 0.3])
        plain, lifted = lifted_regret_equivalence(xs, losses, lifted_pts,
                                                  comparator)
        # brute-force both sums, term by term
        expected_plain = sum(np.dot(l, x - comparator)
                             for x, l in zip(xs, losses))
        expected_lifted = sum(
            np.dot(l - np.dot(x, l), r - comparator)
            for x, l, r in zip(xs, losses, lifted_pts))
        assert plain == pytest.approx(expected_plain, abs=1e-12)
        assert lifted == pytest.approx(expected_lifted, abs=1e-12)
        assert plain == pytest.approx(lifted, abs=1e-9 * len(xs))

    def test_incomplete_trace_rejected(self):
        with pytest.raises(ValueError):
            lifted_regret_equivalence([[0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]],
                                      [[0.0, 0.0]], [1.0, 0.0])


class TestArgumentErrors:
    @pytest.mark.parametrize("call,message", [
        (lambda: normalize(np.ones((2, 2))), "nonempty 1-D vector"),
        (lambda: normalize(np.array([])), "nonempty 1-D vector"),
        (lambda: normalize(np.array([0.5, -0.5])), "negative entries"),
        (lambda: replay_exact([(1, 0)], "cfr"), "unknown variant: 'cfr'"),
        (lambda: lifted_regret_equivalence(
            [[0.5, 0.5]], [[1.0, 0.0]], [[0.5, 0.5]], [1.0, 0.0, 0.0]),
         "comparator dimension mismatch"),
        (lambda: lifted_regret_equivalence(
            [0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0]),
         "comparator dimension mismatch"),
        (lambda: lifted_regret_equivalence(
            [[0.5, 0.5]], [[1.0, 0.0]], [[0.5, 0.5, 0.0]], [1.0, 0.0]),
         "must have identical shapes"),
    ], ids=["normalize-2d", "normalize-empty", "normalize-negative",
            "replay-variant", "equivalence-comparator", "equivalence-1d",
            "equivalence-shapes"])
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestStabilityBound:
    def test_consecutive_iterates_lipschitz(self):
        # along RM+ trajectories with ||R^t||_1 >= R0 the strategies move
        # at most sqrt(d)/R0 times the aggregate movement
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            state = AggregateState(np.full(d, 2.0), np.zeros(d))
            prev_r, prev_x = state.r.copy(), np.full(d, 1.0 / d)
            for _ in range(300):
                state, _ = rm_plus_step(state, rng.normal(size=d))
                x = normalize(state.r)
                r0 = prev_r.sum()
                if r0 > 1e-9:
                    bound = np.sqrt(d) / r0 * np.linalg.norm(state.r - prev_r)
                    assert np.linalg.norm(x - prev_x) <= bound + 1e-12
                prev_r, prev_x = state.r.copy(), x


class TestExactInstability:
    @pytest.mark.parametrize("variant", ["rm+", "prm+"])
    def test_rational_replay_alternates(self, variant):
        losses = instability_losses(40, variant)
        played = replay_exact(losses, variant)
        half = Fraction(1, 2)
        for t, x in enumerate(played, start=1):
            if t % 2 == 1:
                assert x == (half, half)
            else:
                assert x == (Fraction(0), Fraction(1))

    @pytest.mark.parametrize("variant", ["rm+", "prm+"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_float_replay_alternates(self, variant, scaled):
        losses = instability_losses(40, variant, scaled=scaled)
        state = AggregateState.initial(2)
        step = rm_plus_step if variant == "rm+" else prm_plus_step
        for t in range(1, 41):
            state, x = step(state, losses[t - 1])
            target = [0.5, 0.5] if t % 2 == 1 else [0.0, 1.0]
            np.testing.assert_allclose(x, target, atol=1e-12)

    @pytest.mark.parametrize("losses", [[], np.zeros((0, 2))],
                             ids=["list", "array"])
    def test_empty_replay(self, losses):
        assert replay_exact(losses, "rm+") == []

    def test_scaled_and_unscaled_match_exactly(self):
        for variant in ("rm+", "prm+"):
            raw = replay_exact(instability_losses(40, variant), variant)
            scaled = replay_exact(
                instability_losses(40, variant, scaled=True), variant)
            assert raw == scaled


def _layouts():
    trees = {"kuhn3": efg.build_kuhn(2, 3), "liars3": efg.build_liars_dice(3, 2)}
    layouts = {"x".join(map(str, d)): BlockLayout(d) for d in
               [(3, 3), (30, 40), (3, 4, 3), (2, 3, 4)]}
    layouts["restricted"] = BlockLayout((2, 3, 2, 5, 3, 2)).restricted(
        [0, 3, 4, 5])
    for name, tree in trees.items():
        layouts[name] = tree.compiled.layout
        for i in range(tree.num_players):
            layouts[f"{name}-player{i}"] = tree.compiled.groups[i][0]
    return layouts


LAYOUTS = _layouts()


class TestBlockLayoutBuckets:
    """A one-block width bucket gathers through a slice, any other through
    an index array; both gather and scatter the blocks of ``bounds``."""

    @staticmethod
    def _members(layout):
        return sorted(b for ids, _ in layout.buckets for b in ids.tolist())

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_buckets_gather_the_blocks_of_bounds(self, name):
        layout = LAYOUTS[name]
        members = self._members(layout)
        assert len(set(members)) == len(members)
        v = np.random.default_rng(0).normal(size=layout.size)
        for ids, positions in layout.buckets:
            assert isinstance(positions, slice) == (ids.size == 1)
            blocks = [v[slice(*layout.bounds[b])] for b in ids.tolist()]
            assert np.array_equal(v[positions], np.stack(blocks).reshape(
                v[positions].shape))
            assert v[positions].shape[-1] == layout.widths[ids[0]]

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_scatter_writes_in_place(self, name):
        layout = LAYOUTS[name]
        v = np.arange(layout.size, dtype=float)
        for ids, positions in layout.buckets:
            v[positions] = -1.0 - v[positions]
        want = np.arange(layout.size, dtype=float)
        for b in self._members(layout):
            lo, hi = layout.bounds[b]
            want[lo:hi] = -1.0 - want[lo:hi]
        assert np.array_equal(v, want)

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_squared_distances_match_per_block_sums(self, name):
        layout = LAYOUTS[name]
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, layout.size)) * rng.uniform(0.0, 1e3)
        got = squared_distances(layout, a, b)
        for block in self._members(layout):
            lo, hi = layout.bounds[block]
            want = np.sum((a[lo:hi] - b[lo:hi]) ** 2)
            assert got[block].tobytes() == want.tobytes()
