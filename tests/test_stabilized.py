import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretkit.core import BlockLayout, NonFiniteError
from regretkit.games import MatrixGame, hard_instance, random_nfg
from regretkit.stabilized import (
    project_chopped,
    project_orthant,
    project_simplex,
    smooth_initial_state,
    smooth_prmp_round,
    smooth_prmp_round_alternating,
    stable_initial_state,
    stable_prmp_round,
    stable_prmp_round_alternating,
)
from regretkit.stabilized import _chopped_kernel, _ragged_chopped

from .oracles import (
    enumerate_project_chopped,
    grid_project_simplex,
    simplex_kernel_before,
    straight_line_smooth_round,
    straight_line_stable_round,
)


class TestProjectOrthant:
    def test_examples(self):
        np.testing.assert_array_equal(project_orthant([-1.0, 2.0]), [0.0, 2.0])
        np.testing.assert_array_equal(project_orthant([0.0, 0.0]), [0.0, 0.0])
        np.testing.assert_array_equal(project_orthant([-0.5, -0.5]), [0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            project_orthant([np.nan, 1.0])


class TestProjectSimplex:
    def test_equal_shift_case(self):
        # grid-search oracle at 1e-4 agrees with the frozen value
        y = np.array([0.5, 0.2])
        expected = np.array([0.65, 0.35])
        assert np.linalg.norm(grid_project_simplex(y) - expected) < 2e-4
        np.testing.assert_allclose(project_simplex(y), expected, atol=1e-12)

    def test_clipping_case(self):
        y = np.array([-1.0, 0.4])
        assert np.linalg.norm(grid_project_simplex(y) - [0.0, 1.0]) < 2e-4
        np.testing.assert_allclose(project_simplex(y), [0.0, 1.0], atol=1e-12)

    def test_feasible_point_is_fixed(self):
        y = np.array([1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(project_simplex(y), y, atol=1e-15)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_output_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(-3, 3, rng.integers(2, 9))
        x = project_simplex(y)
        assert np.all(x >= 0)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)


class TestProjectChopped:
    def test_already_feasible(self):
        np.testing.assert_array_equal(project_chopped([2.0, 3.0]), [2.0, 3.0])

    def test_falls_through_to_simplex(self):
        np.testing.assert_allclose(project_chopped([0.5, 0.2]), [0.65, 0.35],
                                   atol=1e-12)
        np.testing.assert_allclose(project_chopped([-1.0, 0.4]), [0.0, 1.0],
                                   atol=1e-12)

    def test_matches_enumeration_oracle_small_dims(self):
        rng = np.random.default_rng(42)
        for _ in range(3000):
            d = int(rng.integers(2, 7))
            y = rng.uniform(-2.0, 2.0, d)
            np.testing.assert_allclose(
                project_chopped(y), enumerate_project_chopped(y), atol=1e-9)

    def test_membership(self):
        # D> = { r >= 0 : ||r||_1 >= 1 }; projections land in it and fix
        # its points
        def contains(r):
            r = np.asarray(r, dtype=float)
            return bool(np.all(r >= 0.0) and r.sum() >= 1.0 - 1e-9)

        assert contains([0.5, 0.5, 0.0])
        assert not contains([0.2, 0.2, 0.2])
        assert not contains([-0.5, 1.0, 1.0])
        for y in ([0.2, 0.2, 0.2], [-0.5, 1.0, 1.0], [-3.0, -1.0, 0.5]):
            assert contains(project_chopped(y))
        np.testing.assert_array_equal(project_chopped([0.5, 0.5, 0.0]),
                                      [0.5, 0.5, 0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRowwiseProjections:
    """A (rows, d) stack projects each row exactly as the 1-D call does."""

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12),
           d=st.integers(1, 40), scale=st.sampled_from([1e-3, 0.3, 1.0, 1e3]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_one_dimensional(self, seed, rows, d, scale):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(rows, d)) * scale
        stack[rng.random(rows) < 0.3] = np.abs(stack[0]) / max(d, 1)  # tight
        for project in (project_simplex, project_chopped):
            projected = project(stack)
            assert projected.shape == stack.shape
            for row, y in zip(projected, stack):
                assert row.tobytes() == project(y).tobytes()

    def test_a_stack_raises_where_a_row_would(self):
        # no threshold exists once rounding swamps the unit mass (the
        # chopped projection never gets here: such a row is slack)
        bad = np.array([1e17, 1e17])
        with pytest.raises(NonFiniteError) as alone:
            project_simplex(bad)
        with pytest.raises(NonFiniteError) as stacked:
            project_simplex(np.array([[0.2, 0.3], bad, [0.0, 0.1]]))
        assert str(stacked.value) == str(alone.value)
        for project in (project_simplex, project_chopped):
            with pytest.raises(NonFiniteError):
                project(np.array([[0.2, 0.3], [np.nan, 0.0]]))


@pytest.mark.filterwarnings("ignore:overflow")
class TestSimplexWithoutAThreshold:
    """Near the float limit the threshold search can find no k; the
    projection then raises ``NonFiniteError`` where the kernel before it
    raised IndexError, and on every input that kernel projected it
    returns the same floats."""

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
           d=st.integers(1, 8), exponent=st.integers(-3, 307))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_kernel_before(self, seed, rows, d, exponent):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(-1.0, 1.0, (rows, d)) * 10.0**exponent
        stack[rng.random((rows, d)) < 0.3] *= 1e-300
        for y in (stack, *stack):
            try:
                want = simplex_kernel_before(y)
            except IndexError:
                with pytest.raises(NonFiniteError):
                    project_simplex(y)
            else:
                assert project_simplex(y).tobytes() == want.tobytes()

    def test_both_outcomes_occur(self):
        near_limit = np.array([[-1e306, -2e306], [1e-300, -1e306]])
        with pytest.raises(IndexError):
            simplex_kernel_before(near_limit[0])
        assert project_simplex(near_limit[1]).tobytes() == (
            simplex_kernel_before(near_limit[1]).tobytes())


class TestChoppedTightRows:
    """A stack with one tight row (positive mass below 1) projects that
    row through the 1-D simplex path; the floats and the error are those
    of the per-row projection."""

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8),
           d=st.integers(1, 12), tight=st.sampled_from(["none", "one", "some"]))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_per_row(self, seed, rows, d, tight):
        rng = np.random.default_rng(seed)
        stack = np.abs(rng.normal(size=(rows, d))) + 1.0  # every row slack
        count = {"none": 0, "one": 1, "some": int(rng.integers(2, rows + 2))}
        picks = rng.permutation(rows)[:count[tight]]
        stack[picks] = rng.uniform(-1.0, 1.0, (picks.size, d)) * 0.9 / d
        assert ((np.maximum(stack, 0.0).sum(axis=1) < 1.0).sum()
                == min(count[tight], rows))
        want = np.stack([project_chopped(y) for y in stack])
        assert project_chopped(stack).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_no_threshold_message(self):
        bad = np.array([-1e306, -2e306])  # tight, and no threshold exists
        with pytest.raises(NonFiniteError) as alone:
            project_simplex(bad)
        for stack in ([[5.0, 5.0], bad], [bad, [0.1, 0.2], [5.0, 5.0]],
                      [[0.1, 0.2], bad]):
            with pytest.raises(NonFiniteError) as stacked:
                project_chopped(np.array(stack))
            assert str(stacked.value) == str(alone.value)


def _ragged_rows(rng, widths, no_threshold):
    """One row per width: slack (positive mass >= 1), tight, tight with
    zeros of both signs and ties, of any scale, of mass 1 up to rounding
    (where the order of the mass's sum decides tight or slack), or, where
    ``no_threshold``, tight with entries so negative that the unit mass is
    lost to rounding."""
    rows = []
    for w in widths:
        kind = rng.integers(5) if not no_threshold else 5
        if kind == 0:
            row = np.abs(rng.normal(size=w)) + 1.0 / w
        elif kind == 1:
            row = rng.uniform(-1.0, 1.0, w) * 0.9 / w
        elif kind == 2:
            row = rng.choice([0.0, -0.0, 0.125, -0.5, 0.25], w)
        elif kind == 3:
            row = rng.normal(size=w) * 10.0 ** rng.integers(-3, 4)
        elif kind == 4:
            row = rng.random(w)
            row /= row.sum()
        else:
            row = -rng.uniform(1.0, 2.0, w) * 1e20
        rows.append(row)
    return rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRaggedChopped:
    """``_ragged_chopped`` projects each block of a group of mixed widths
    as the block's own ``project_chopped`` call does, bit for bit, and
    raises that call's ``NonFiniteError``: its tight rows share one
    ``_simplex_kernel`` call on a stack padded with -inf."""

    @given(widths=st.lists(st.integers(1, 20), min_size=1, max_size=16),
           seed=st.integers(0, 2**32 - 1),
           no_threshold=st.sampled_from([False] * 5 + [True]))
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_their_own_calls(self, widths, seed, no_threshold):
        rng = np.random.default_rng(seed)
        members = np.flatnonzero(rng.random(len(widths)) < 0.8)
        layout = BlockLayout(widths, members if members.size else [0])
        gather, _, _ = layout.ragged
        flat = np.empty(layout.size)
        bad = rng.integers(len(widths)) if no_threshold else -1
        for b, (lo, hi) in enumerate(layout.bounds):
            flat[lo:hi] = _ragged_rows(rng, [hi - lo], b == bad)[0]
        expected, raised = np.full(layout.size, np.nan), None
        for ids, _ in layout.buckets:
            for b in ids.tolist():
                lo, hi = layout.bounds[b]
                try:
                    expected[lo:hi] = _chopped_kernel(flat[lo:hi])
                except NonFiniteError as exc:
                    raised = str(exc)
        if raised is not None:
            with pytest.raises(NonFiniteError) as exc_info:
                _ragged_chopped(flat[gather], layout)
            assert str(exc_info.value) == raised
            return
        got = np.full(layout.size, np.nan)
        got[gather] = _ragged_chopped(flat[gather], layout)
        for ids, _ in layout.buckets:
            for b in ids.tolist():
                lo, hi = layout.bounds[b]
                assert got[lo:hi].tobytes() == expected[lo:hi].tobytes()

    def test_every_width_in_one_call(self):
        # widths 1..20, each tight, so the one simplex call pads to 20
        rng = np.random.default_rng(5)
        widths = np.arange(1, 21)
        layout = BlockLayout(widths)
        flat = np.concatenate([rng.uniform(-1.0, 1.0, w) * 0.9 / w
                               for w in widths])
        gather, _, pad = layout.ragged
        assert pad.shape == (20, 20)
        got = np.empty(layout.size)
        got[gather] = _ragged_chopped(flat[gather], layout)
        for lo, hi in layout.bounds:
            assert got[lo:hi].tobytes() == project_chopped(flat[lo:hi]).tobytes()

    def test_non_finite_input_message(self):
        layout = BlockLayout([2, 3])
        y = np.array([0.1, 0.2, 5.0, np.inf, 0.0])
        with pytest.raises(NonFiniteError) as alone:
            project_chopped(y[2:])
        with pytest.raises(NonFiniteError) as grouped:
            _ragged_chopped(y[layout.ragged[0]], layout)
        assert str(grouped.value) == str(alone.value)


class TestNonExpansiveness:
    @pytest.mark.parametrize("project", [project_orthant, project_simplex,
                                         project_chopped])
    def test_pairs(self, project):
        rng = np.random.default_rng(9)
        for _ in range(500):
            d = int(rng.integers(2, 8))
            a = rng.uniform(-3, 3, d)
            b = rng.uniform(-3, 3, d)
            assert (np.linalg.norm(project(a) - project(b))
                    <= np.linalg.norm(a - b) + 1e-12)


ZERO_GAME = MatrixGame(np.zeros((2, 2)))
ONES = [1.0, 1.0]  # restart floor R0 = 1 for each of two players


class TestStableRound:
    def test_zero_game_stays_at_init(self):
        state = stable_initial_state((2, 2), ONES)
        for _ in range(10):
            state, plays = stable_prmp_round(state, ZERO_GAME, 0.1, ONES)
            for x in plays:
                np.testing.assert_array_equal(x, [0.5, 0.5])
            for w in state.w:
                np.testing.assert_array_equal(w, [1.0, 1.0])
        assert state.restart_events == ()

    def test_single_round_matches_straight_line_oracle(self):
        game = MatrixGame(np.eye(2))
        state = stable_initial_state((2, 2), ONES)
        new_state, plays = stable_prmp_round(state, game, 0.1, ONES)
        ref_w, ref_m, ref_plays, _ = straight_line_stable_round(
            [np.ones(2), np.ones(2)], [np.zeros(2), np.zeros(2)], game, 0.1, 1.0)
        for x, rx in zip(plays, ref_plays):
            np.testing.assert_array_equal(x, rx)
        for w, rw in zip(new_state.w, ref_w):
            np.testing.assert_array_equal(w, rw)
            assert np.all(w >= 0.0)
        for m, rm in zip(new_state.prediction, ref_m):
            np.testing.assert_array_equal(m, rm)

    def test_restart_branch_resets_to_floor(self):
        r0 = 0.8
        game = ZERO_GAME
        state = stable_initial_state((2, 2), [r0, r0])
        # force one player's aggregate strictly inside the restart region
        forced = tuple(
            np.array([0.5 * r0, 0.9 * r0]) if i == 0 else w
            for i, w in enumerate(state.w))
        state = state.__class__(forced, state.z, state.prediction,
                                state.restart_events, state.t)
        new_state, _ = stable_prmp_round(state, game, 0.1, [r0, r0])
        np.testing.assert_array_equal(new_state.w[0], [r0, r0])
        np.testing.assert_array_equal(new_state.prediction[0], [0.0, 0.0])
        assert (1, 0) in new_state.restart_events

    def test_multi_round_matches_oracle(self):
        game = hard_instance()
        state = stable_initial_state((3, 3), ONES)
        ref_w = [np.ones(3), np.ones(3)]
        ref_m = [np.zeros(3), np.zeros(3)]
        for _ in range(25):
            state, plays = stable_prmp_round(state, game, 0.1, ONES)
            ref_w, ref_m, ref_plays, _ = straight_line_stable_round(
                ref_w, ref_m, game, 0.1, 1.0)
            for x, rx in zip(plays, ref_plays):
                np.testing.assert_allclose(x, rx, atol=1e-12)

    def test_validates_arguments(self):
        state = stable_initial_state((2, 2), ONES)
        with pytest.raises(ValueError):
            stable_prmp_round(state, ZERO_GAME, -0.1, ONES)
        with pytest.raises(ValueError):
            stable_prmp_round(state, ZERO_GAME, 0.1, [0.0, 0.0])
        with pytest.raises(ValueError):
            stable_prmp_round(state, MatrixGame(np.zeros((3, 3))), 0.1, ONES)

    @pytest.mark.parametrize("r0", [1.0, [1.0], [1.0, 1.0, 1.0],
                                    [1.0, np.nan], [np.inf, 1.0], [1.0, -1.0]],
                             ids=["scalar", "short", "long", "nan", "inf",
                                  "negative"])
    def test_floors_are_one_positive_finite_value_per_player(self, r0):
        with pytest.raises(ValueError, match="one positive, finite value"):
            stable_initial_state((2, 2), r0)
        state = stable_initial_state((2, 2), ONES)
        with pytest.raises(ValueError, match="one positive, finite value"):
            stable_prmp_round(state, ZERO_GAME, 0.1, r0)
        with pytest.raises(ValueError, match="one positive, finite value"):
            stable_prmp_round_alternating(state, ZERO_GAME, 0.1, r0)


class TestSmoothRound:
    def test_zero_game_stays_at_init(self):
        state = smooth_initial_state((2, 3))
        for _ in range(10):
            state, plays = smooth_prmp_round(state, MatrixGame(np.zeros((2, 3))),
                                             0.1)
        np.testing.assert_array_equal(state.w[0], [0.5, 0.5])
        np.testing.assert_array_equal(state.w[1], [1 / 3, 1 / 3, 1 / 3])

    def test_feasibility_every_round(self):
        game = hard_instance()
        state = smooth_initial_state((3, 3))
        for _ in range(200):
            state, _ = smooth_prmp_round(state, game, 0.25)
            for w, z in zip(state.w, state.z):
                assert np.all(w >= 0) and w.sum() >= 1.0 - 1e-9
                assert np.all(z >= 0) and z.sum() >= 1.0 - 1e-9

    def test_one_round_on_hard_game_matches_oracle(self):
        game = hard_instance()
        state = smooth_initial_state((3, 3))
        new_state, plays = smooth_prmp_round(state, game, 0.1)
        ref_w, ref_m, ref_plays = straight_line_smooth_round(
            [np.full(3, 1 / 3), np.full(3, 1 / 3)],
            [np.zeros(3), np.zeros(3)], game, 0.1)
        for x, rx in zip(plays, ref_plays):
            np.testing.assert_allclose(x, rx, atol=1e-12)
        for w, rw in zip(new_state.w, ref_w):
            np.testing.assert_allclose(w, rw, atol=1e-12)

    def test_per_step_stability_bound(self):
        # z blocks live in the chopped set, so consecutive strategies obey
        # the sqrt(d)-Lipschitz normalization bound
        game = hard_instance()
        state = smooth_initial_state((3, 3))
        prev_z = [z.copy() for z in state.z]
        prev_x = None
        for _ in range(100):
            state, plays = smooth_prmp_round(state, game, 0.3)
            if prev_x is not None:
                for x, px, z, pz in zip(plays, prev_x, state.z, prev_z):
                    bound = np.sqrt(x.size) * np.linalg.norm(z - pz)
                    assert np.linalg.norm(x - px) <= bound + 1e-12
            prev_z = [z.copy() for z in state.z]
            prev_x = [x.copy() for x in plays]

    def test_rejects_infeasible_state(self):
        state = smooth_initial_state((2, 2))
        bad = state.__class__(
            (np.array([0.2, 0.2]), state.w[1]), state.z, state.prediction,
            state.restart_events, state.t)
        with pytest.raises(ValueError):
            smooth_prmp_round(bad, ZERO_GAME, 0.1)

    def test_rejects_a_nan_block(self):
        state = smooth_initial_state((2, 2))
        bad = state.__class__(
            (np.array([np.nan, 1.0]), state.w[1]), state.z, state.prediction,
            state.restart_events, state.t)
        with pytest.raises(ValueError, match="outside the chopped orthant"):
            smooth_prmp_round(bad, ZERO_GAME, 0.1)


class TestAlternatingRounds:
    def test_zero_game_matches_synchronous(self):
        sync = stable_initial_state((2, 2), ONES)
        alt = stable_initial_state((2, 2), ONES)
        for _ in range(5):
            sync, xs = stable_prmp_round(sync, ZERO_GAME, 0.1, ONES)
            alt, xa = stable_prmp_round_alternating(alt, ZERO_GAME, 0.1, ONES)
            for a, b in zip(xs, xa):
                np.testing.assert_array_equal(a, b)

    def test_alternating_keeps_feasibility(self):
        game = random_nfg((3, 2, 4), 17)
        state = smooth_initial_state(game.dims)
        for _ in range(50):
            state, plays = smooth_prmp_round_alternating(state, game, 0.2)
            for w in state.w:
                assert np.all(w >= 0) and w.sum() >= 1.0 - 1e-9
            for x in plays:
                assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_per_player_floors(self):
        game = hard_instance()
        floors = [0.5, 0.25]
        state = stable_initial_state(game.dims, floors)
        np.testing.assert_array_equal(state.w[0], np.full(3, 0.5))
        np.testing.assert_array_equal(state.w[1], np.full(3, 0.25))
        state, _ = stable_prmp_round_alternating(state, game, 0.1, floors)
        for w in state.w:
            assert np.all(w >= 0.0)
