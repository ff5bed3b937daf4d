import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretkit.core import BlockVector, as_flat, normalize, regret_loss
from regretkit.fixedpoint import (
    FixedPointReport,
    _solve,
    conceptual_round,
    initial_lifted_point,
    lipschitz_bound,
    operator_F,
)
from regretkit.stabilized import _in_chopped, project_chopped
from regretkit.games import (
    MatrixGame,
    NormalFormGame,
    hard_instance,
    random_matrix_game,
    random_nfg,
)

from .oracles import conceptual_round_per_block, max_eigenvalue_3x3

ZERO = MatrixGame(np.zeros((3, 3)))


def _feasible_blocks(rng, dims, low=0.4):
    blocks = [np.abs(rng.normal(size=d)) + low for d in dims]
    return [b if b.sum() >= 1.0 else b / b.sum() for b in blocks]


def _joint_norm(blocks):
    return np.sqrt(sum(float(np.sum(b**2)) for b in blocks))


def _joint_diff(a, b):
    return np.sqrt(sum(float(np.sum((u - v) ** 2)) for u, v in zip(a, b)))


def _conceptual(z, game, eta, eps, k_max):
    """A conceptual round's next state and played strategies g(w)."""
    z_next, w, report = conceptual_round(z, game, eta, eps, k_max)
    return z_next, [normalize(b) for b in w], report


def _exrm(z, game, eta):
    """ExRM+: the conceptual round cut to one inner iteration."""
    z_next, plays, _ = _conceptual(z, game, eta, -1.0, 1)
    return z_next, plays


class TestOperatorF:
    def test_zero_game(self):
        z = initial_lifted_point((3, 3))
        for block in operator_F(z, ZERO):
            np.testing.assert_array_equal(block, np.zeros(3))

    def test_uniform_blocks_match_hand_composition(self):
        game = hard_instance()
        z = [np.full(3, 2.0), np.full(3, 5.0)]  # normalize to uniform
        uniform = np.full(3, 1 / 3)
        lx, ly = game.gradients([uniform, uniform])
        expected = [regret_loss(uniform, lx), regret_loss(uniform, ly)]
        result = operator_F(z, game)
        for got, want in zip(result, expected):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_scale_invariance(self):
        game = hard_instance()
        rng = np.random.default_rng(0)
        z = _feasible_blocks(rng, game.dims)
        f1 = operator_F(z, game)
        f2 = operator_F([3.7 * b for b in z], game)
        for a, b in zip(f1, f2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_points_outside(self):
        game = hard_instance()
        with pytest.raises(ValueError):
            operator_F([np.full(3, 0.1), np.full(3, 1.0)], game)
        with pytest.raises(ValueError):
            operator_F([np.array([-0.5, 1.0, 1.0]), np.full(3, 1.0)], game)

    def test_rejects_a_nan_block(self):
        z = [np.array([np.nan, 1.0, 1.0]), np.full(3, 1.0)]
        with pytest.raises(ValueError, match="outside the chopped joint space"):
            operator_F(z, hard_instance())

    def test_conceptual_round_rejects_a_nan_block(self):
        z = [np.array([np.nan, 1.0, 1.0]), np.full(3, 1.0)]
        with pytest.raises(ValueError, match="outside the chopped joint space"):
            conceptual_round(z, hard_instance(), 0.1, 1e-12, 10)


class TestArgumentErrors:
    @pytest.mark.parametrize("z,eta,k_max,message", [
        (lambda layout: BlockVector(np.ones(5), layout), 0.1, 5,
         "block dimension mismatch"),
        (lambda layout: [np.ones(3)], 0.1, 5, "one block per player required"),
        (lambda layout: [np.ones(3), np.ones(2)], 0.1, 5,
         "block dimension mismatch"),
        (lambda layout: [np.ones(3), np.ones(3)], 0.0, 5,
         "step size eta must be positive"),
        (lambda layout: [np.ones(3), np.ones(3)], 0.1, 0, "k_max must be >= 1"),
    ], ids=["flat-size", "block-count", "block-width", "eta", "k-max"])
    def test_conceptual_round_raises(self, z, eta, k_max, message):
        game = hard_instance()
        with pytest.raises(ValueError, match=message):
            conceptual_round(z(game.layout), game, eta, 1e-12, k_max)


def _membership_block(d, kind, at):
    """A width-d block of mass 1 - 2e-9 ("short", below the 1e-9 slack)
    or 1 - 5e-10 ("slack", inside it), or uniform of mass 1.5 with entry
    ``at`` replaced by the named value."""
    if kind in ("short", "slack"):
        return np.full(d, (1.0 - {"short": 2e-9, "slack": 5e-10}[kind]) / d)
    block = np.full(d, 1.5 / d)
    block[at] = {"nan": np.nan, "-inf": -np.inf, "negative": -1e-300,
                 "-0.0": -0.0, "inf": np.inf}[kind]
    return block


MEMBERSHIP_KINDS = ("nan", "-inf", "negative", "short", "slack", "-0.0",
                    "inf")


class TestFusedMembershipCheck:
    """``operator_F``'s membership test, fused with g(w), gives the
    verdict and the message of the per-block ``_in_chopped`` on each bad
    block, wherever it sits: in a (rows, width) view (hard3x3), in a
    gathered bucket or a slice (3x4x3), or in a slice bucket (30x40)."""

    GAMES = {"hard3x3": hard_instance(), "nfg3x4x3": random_nfg((3, 4, 3), 3),
             "matrix30x40": random_matrix_game(30, 40, 0)}

    def _points(self, game):
        for kind in MEMBERSHIP_KINDS:
            for b, d in enumerate(game.dims):
                for at in (0, d - 1):
                    z = [np.full(w, 1.0 / w) for w in game.dims]
                    z[b] = _membership_block(d, kind, at)
                    yield kind, z, all(bool(_in_chopped(r)) for r in z)

    def test_verdicts_cover_both_sides(self):
        verdicts = {kind: inside for kind, _, inside
                    in self._points(hard_instance())}
        assert verdicts == {"nan": False, "-inf": False, "negative": False,
                            "short": False, "slack": True, "-0.0": True,
                            "inf": True}

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_operator_F(self, name):
        game = self.GAMES[name]
        for kind, z, inside in self._points(game):
            if inside:
                assert len(operator_F(z, game)) == len(game.dims), kind
                continue
            with pytest.raises(ValueError) as info:
                operator_F(z, game)
            assert str(info.value) == "point outside the chopped joint space"

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_conceptual_round(self, name):
        game = self.GAMES[name]
        eta = 0.5 / lipschitz_bound(game)
        for kind, z, inside in self._points(game):
            if inside and kind != "inf":
                conceptual_round(z, game, eta, 1e-12, 5)
                continue
            with pytest.raises(ValueError) as info:
                conceptual_round(z, game, eta, 1e-12, 5)
            # an infinite mass passes the test; g(w) then holds a NaN
            # that the proximal input's finiteness check reports
            assert str(info.value) == (
                "non-finite input to projection" if inside
                else "point outside the chopped joint space"), kind


class TestLipschitzBound:
    def test_one_by_one(self):
        assert lipschitz_bound(MatrixGame(np.array([[1.0]]))) == pytest.approx(
            np.sqrt(6.0), rel=1e-9)

    def test_hard_instance_vs_eigen_oracle(self):
        game = hard_instance()
        gram = game.payoff.T @ game.payoff
        op_norm = np.sqrt(max_eigenvalue_3x3(gram))
        assert lipschitz_bound(game) == pytest.approx(
            3.0 * np.sqrt(6.0) * op_norm, rel=1e-7)

    def test_zero_game(self):
        assert lipschitz_bound(ZERO) == 0.0
        zero_nfg = NormalFormGame((np.zeros((2, 2)), np.zeros((2, 2))))
        assert lipschitz_bound(zero_nfg) == 0.0

    def test_measured_lipschitz_matrix(self):
        # Lemma-style certificate: 1000 feasible pairs never violate L_F
        game = random_matrix_game(4, 5, 3)
        bound = lipschitz_bound(game)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            z1 = _feasible_blocks(rng, game.dims)
            z2 = _feasible_blocks(rng, game.dims)
            lhs = _joint_diff(operator_F(z1, game), operator_F(z2, game))
            assert lhs <= bound * _joint_diff(z1, z2) + 1e-9

    def test_measured_lipschitz_nfg(self):
        game = random_nfg((2, 3, 4), 4)
        bound = lipschitz_bound(game)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            z1 = _feasible_blocks(rng, game.dims)
            z2 = _feasible_blocks(rng, game.dims)
            lhs = _joint_diff(operator_F(z1, game), operator_F(z2, game))
            assert lhs <= bound * _joint_diff(z1, z2) + 1e-9


class TestSolveFixedPoint:
    def test_zero_game_immediate(self):
        z = initial_lifted_point((3, 3))
        _, w, report = conceptual_round(z, ZERO, 0.5, 1e-12, 50)
        assert report.iterations == 1
        assert report.residual == 0.0
        assert report.converged
        for a, b in zip(w, z):
            np.testing.assert_array_equal(a, b)

    def test_report_residual_is_recomputable(self):
        game = random_matrix_game(3, 4, 7)
        eta = 1.0 / (2.0 * lipschitz_bound(game))
        z = initial_lifted_point(game.dims)
        _, w, report = conceptual_round(z, game, eta, 1e-10, 100)
        advanced = [project_chopped(zp - eta * f)
                    for zp, f in zip(z, operator_F(w, game))]
        assert _joint_diff(w, advanced) == pytest.approx(report.residual,
                                                         abs=1e-12)

    def test_contraction_ratio(self):
        for seed in range(5):
            game = random_matrix_game(4, 4, seed)
            eta = 1.0 / (2.0 * lipschitz_bound(game))
            z = initial_lifted_point(game.dims)
            _, _, report = conceptual_round(z, game, eta, 0.0, 60)
            hist = np.array(report.history)
            usable = hist[:-1] > 1e-11
            ratios = hist[1:][usable] / hist[:-1][usable]
            assert np.all(ratios <= 0.5 + 1e-9)

    def test_geometric_iteration_bound(self):
        # with eps = 1/t^2 the iteration count obeys the contraction budget
        game = random_matrix_game(3, 3, 9)
        lf = lipschitz_bound(game)
        eta = 1.0 / (2.0 * lf)
        z = initial_lifted_point(game.dims)
        for t in range(1, 60):
            eps = 1.0 / t**2
            _, w, report = conceptual_round(z, game, eta, eps, 200)
            assert report.converged
            budget = int(np.ceil(np.log(1.0 / eps)
                                 / np.log(1.0 / (eta * lf)))) + 1
            assert report.iterations <= max(budget, 1)
            z = conceptual_round(z, game, eta, eps, 200)[0]

    def test_nonconvergence_reported_not_raised(self):
        game = hard_instance()
        z = initial_lifted_point(game.dims)
        # eta far above 1/L_F: the loop must cap at k_max and report
        _, w, report = conceptual_round(z, game, 10.0, 1e-12, 7)
        assert isinstance(report, FixedPointReport)
        assert report.iterations == 7
        assert not report.converged


class TestConceptualRound:
    def test_zero_game(self):
        z = initial_lifted_point((2, 4))
        game = MatrixGame(np.zeros((2, 4)))
        z_next, plays, report = _conceptual(z, game, 0.3, 1e-12, 20)
        np.testing.assert_array_equal(plays[0], [0.5, 0.5])
        np.testing.assert_array_equal(plays[1], np.full(4, 0.25))
        for a, b in zip(z_next, z):
            np.testing.assert_array_equal(a, b)

    def test_individual_regret_certificate(self):
        # constant per-player regret bound with exact fixed points
        game = random_nfg((3, 4), 100)
        lf = lipschitz_bound(game)
        eta = 1.0 / (2.0 * lf)
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        cum = [np.zeros(d) for d in game.dims]
        for _ in range(400):
            z, plays, report = _conceptual(z, game, eta, 1e-14, 300)
            losses = game.gradients(plays)
            for i in range(2):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
        for i, d in enumerate(game.dims):
            best = int(np.argmax(cum[i]))
            comparator = np.zeros(d)
            comparator[best] = 1.0
            bound = float(np.sum((z0[i] - comparator) ** 2)) / (2.0 * eta)
            assert cum[i][best] <= bound + 1e-9

    def test_epsilon_schedule_certificate(self):
        game = random_nfg((3, 3), 101)
        lf = lipschitz_bound(game)
        eta = 1.0 / (2.0 * lf)
        b_u, _ = game.constants
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        cum = [np.zeros(d) for d in game.dims]
        eps_total = 0.0
        for t in range(1, 301):
            eps = 1.0 / t**2
            z, plays, report = _conceptual(z, game, eta, eps, 300)
            assert report.residual <= eps
            eps_total += eps
            losses = game.gradients(plays)
            for i in range(2):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
        for i, d in enumerate(game.dims):
            best = int(np.argmax(cum[i]))
            comparator = np.zeros(d)
            comparator[best] = 1.0
            bound = (float(np.sum((z0[i] - comparator) ** 2)) / (2.0 * eta)
                     + 2.0 * b_u * np.sqrt(d) * eps_total)
            assert cum[i][best] <= bound + 1e-9

    def test_cheating_omd_bound(self):
        # sum_t <F(z^t), z^t - zhat> <= ||z0 - zhat||^2 / (2 eta)
        game = random_nfg((3, 4), 31)
        eta = 1.0 / (2.0 * lipschitz_bound(game))
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        trajectory = []
        for _ in range(100):
            z, _, report = conceptual_round(z, game, eta, 1e-14, 300)
            assert report.converged
            trajectory.append([b.copy() for b in z])
        rng = np.random.default_rng(13)
        for _ in range(100):
            zhat = _feasible_blocks(rng, game.dims)
            lhs = 0.0
            for zt in trajectory:
                f = operator_F(zt, game)
                lhs += sum(np.dot(fi, a - b)
                           for fi, a, b in zip(f, zt, zhat))
            rhs = sum(np.sum((a - b) ** 2)
                      for a, b in zip(z0, zhat)) / (2.0 * eta)
            assert lhs <= rhs + 1e-9


class TestExrmRound:
    def test_zero_game(self):
        z = initial_lifted_point((3, 3))
        z_next, plays = _exrm(z, ZERO, 0.2)
        for a, b in zip(z_next, z):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(plays[0], np.full(3, 1 / 3))

    def test_equals_single_iteration_conceptual_bitwise(self):
        # the extragradient step written out: w = P_z(eta F(z)),
        # z' = P_z(eta F(w)), play g(w)
        game = hard_instance()
        z = initial_lifted_point(game.dims)
        for _ in range(30):
            w = [project_chopped(b - 0.15 * f)
                 for b, f in zip(z, operator_F(z, game))]
            z_a = [project_chopped(b - 0.15 * f)
                   for b, f in zip(z, operator_F(w, game))]
            plays_a = [normalize(b) for b in w]
            z_b, plays_b, report = _conceptual(z, game, 0.15, -1.0, 1)
            assert report.iterations == 1
            for a, b in zip(z_a, z_b):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(plays_a, plays_b):
                np.testing.assert_array_equal(a, b)
            z = z_a

    def test_social_regret_certificate(self):
        game = random_nfg((4, 3), 55)
        lf = lipschitz_bound(game)
        eta = 1.0 / (np.sqrt(2.0) * lf)
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        cum = [np.zeros(d) for d in game.dims]
        for t in range(1, 501):
            z, plays = _exrm(z, game, eta)
            losses = game.gradients(plays)
            social = 0.0
            bound = 0.0
            for i, d in enumerate(game.dims):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
                best = int(np.argmax(cum[i]))
                comparator = np.zeros(d)
                comparator[best] = 1.0
                social += cum[i][best]
                bound += float(np.sum((z0[i] - comparator) ** 2)) / (2.0 * eta)
            assert social <= bound + 1e-9

    def test_averaged_iterates_reach_o_one_over_t_gap(self):
        # duality gap of the uniform average obeys (social bound)/T by the
        # folk theorem; the linear average tracks the same O(1/T) envelope
        game = random_matrix_game(3, 4, 21)
        lf = lipschitz_bound(game)
        eta = 1.0 / (np.sqrt(2.0) * lf)
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        sums = [np.zeros(d) for d in game.dims]
        linear = [np.zeros(d) for d in game.dims]
        weight = 0.0
        d1, d2 = game.dims
        worst_bound = max(
            np.sum((z0[0] - np.eye(d1)[i]) ** 2) for i in range(d1)
        ) + max(np.sum((z0[1] - np.eye(d2)[j]) ** 2) for j in range(d2))
        from regretkit.games import duality_gap
        for t in range(1, 801):
            z, plays = _exrm(z, game, eta)
            sums[0] += plays[0]
            sums[1] += plays[1]
            linear[0] += t * plays[0]
            linear[1] += t * plays[1]
            weight += t
            envelope = worst_bound / (2.0 * eta * t) + 1e-9
            assert duality_gap(game, sums[0] / t, sums[1] / t) <= envelope
            assert duality_gap(game, linear[0] / weight,
                               linear[1] / weight) <= envelope


# one-block width buckets read as 1-D slices, runs of contiguous blocks
# as (rows, width) views, the others by a gather: hard3x3, 5x5x5 and
# 2x2x2x2 have one view from offset 0, 30x40 and 2x3x4 only slices,
# 3x3x4 a view and a slice, 4x3x3 a slice and a view from offset 4, and
# 3x4x3 and 1x3x1 (a width-1 pair) a gathered bucket and a slice
ORACLE_GAMES = {
    "hard3x3": hard_instance(),
    "matrix30x40": random_matrix_game(30, 40, 0),
    "nfg5x5x5": random_nfg((5, 5, 5), 0),
    "nfg2x3x4": random_nfg((2, 3, 4), 1),
    "nfg3x3x4": random_nfg((3, 3, 4), 2),
    "nfg3x4x3": random_nfg((3, 4, 3), 3),
    "nfg1x3x1": random_nfg((1, 3, 1), 4),
    "nfg4x3x3": random_nfg((4, 3, 3), 5),
    "nfg2x2x2x2": random_nfg((2, 2, 2, 2), 6),
}


def _chopped_block(rng, d, tight):
    """A block of D>: on the unit simplex (the mass constraint tight),
    with some exact zeros, or of mass above 1 (slack)."""
    block = np.abs(rng.normal(size=d)) * (rng.random(d) < 0.7)
    if not block.any():
        block[rng.integers(d)] = 1.0
    if tight:
        return block / block.sum()
    return block * (1.0 + 4.0 * rng.random()) / block.sum()


class TestFlatSolveMatchesPerBlockOracle:
    """The flat solve returns the floats of the per-block solve it
    replaced, bit for bit, for every round output the harness uses."""

    @given(name=st.sampled_from(sorted(ORACLE_GAMES)),
           seed=st.integers(0, 2**32 - 1),
           tight=st.lists(st.booleans(), min_size=4, max_size=4),
           # eta * L_F: below 1 the inner loop contracts, above it need not
           contraction=st.sampled_from([0.05, 0.5, 0.99, 2.0, 20.0]),
           eps=st.sampled_from([-1.0, 1e-14, 1e-6, 1e-2]),
           k_max=st.integers(1, 25),
           rounds=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, name, seed, tight, contraction, eps, k_max,
                           rounds):
        game = ORACLE_GAMES[name]
        rng = np.random.default_rng(seed)
        eta = contraction / lipschitz_bound(game)
        z = [_chopped_block(rng, d, t) for d, t in zip(game.dims, tight)]
        for _ in range(rounds):
            (z_want, w_want, iterations, residual, history, plays,
             increments) = conceptual_round_per_block(z, game, eta, eps, k_max)
            z_next, w, report = conceptual_round(z, game, eta, eps, k_max)
            assert (report.iterations, report.residual, report.history) == (
                iterations, residual, history)
            assert report.converged == (residual <= eps)
            for got, want in [*zip(z_next, z_want), *zip(w, w_want)]:
                assert np.array_equal(got, want)
            _, _, x, f, _ = _solve(as_flat(z), game, eta, eps, k_max)
            assert np.array_equal(x, as_flat(plays))
            assert np.array_equal(-f, as_flat(increments))
            z = z_want
