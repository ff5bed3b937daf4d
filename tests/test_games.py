import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretkit import efg
from regretkit.core import AggregateState, rm_plus_step
from regretkit.games import (
    MatrixGame,
    NormalFormGame,
    duality_gap,
    hard_instance,
    instability_losses,
    load_game,
    random_matrix_game,
    random_nfg,
    save_game,
    spectral_norm,
)
from regretkit.harness import SolverConfig, run

from .oracles import (
    PortableRandom,
    matrix_constants_by_linalg,
    nfg_constants_by_linalg,
    nfg_gradient_by_enumeration,
    nfg_loss_gradient_tensordot,
    spectral_norm_by_linalg,
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# 2-4 players, 1-6 actions each (at most 4 each with 4 players)
NFG_DIMS = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.integers(1, 6 if n < 4 else 4), min_size=n, max_size=n))


class TestMatrixGradients:
    def test_zero_game(self):
        game = MatrixGame(np.zeros((3, 2)))
        lx, ly = game.gradients([np.full(3, 1 / 3), np.array([0.5, 0.5])])
        np.testing.assert_array_equal(lx, np.zeros(3))
        np.testing.assert_array_equal(ly, np.zeros(2))

    def test_identity_pure_column(self):
        game = MatrixGame(np.eye(2))
        lx, _ = game.gradients([np.array([0.5, 0.5]), np.array([1.0, 0.0])])
        np.testing.assert_array_equal(lx, [-1.0, 0.0])

    def test_bilinearity(self):
        rng = np.random.default_rng(0)
        game = MatrixGame(rng.normal(size=(4, 3)))
        x = np.full(4, 0.25)
        y1, y2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        for lam in (0.0, 0.3, 0.7, 1.0):
            mix = lam * y1 + (1 - lam) * y2
            lx_mix, _ = game.gradients([x, mix])
            lx1, _ = game.gradients([x, y1])
            lx2, _ = game.gradients([x, y2])
            np.testing.assert_allclose(lx_mix, lam * lx1 + (1 - lam) * lx2,
                                       atol=1e-12)

    def test_dimension_mismatch(self):
        game = MatrixGame(np.eye(2))
        with pytest.raises(ValueError):
            game.gradients([np.full(3, 1 / 3), np.array([0.5, 0.5])])

    @pytest.mark.parametrize("make", [hard_instance,
                                      lambda: random_matrix_game(30, 40, 0)])
    def test_cached_negation_matches_a_fresh_one_bit_for_bit(self, make):
        game = make()
        a = game.payoff
        d1, d2 = game.dims
        rng = np.random.default_rng(1)
        profiles = [(rng.dirichlet(np.ones(d1)), rng.dirichlet(np.ones(d2)))
                    for _ in range(20)]
        profiles.append((np.eye(d1)[0], np.eye(d2)[-1]))  # vertices
        for x, y in profiles:
            expected = [((-a) @ y).tobytes(), (a.T @ x).tobytes()]
            assert [g.tobytes() for g in game.gradients([x, y])] == expected
            for player in (0, 1):
                got = game.gradient_for(player, [x, y])
                assert got.tobytes() == expected[player]

    def test_rm_plus_on_losses_maximizes(self):
        # the row player's aggregate grows toward the maximizing action
        game = MatrixGame(np.array([[1.0, 1.0], [0.0, 0.0]]))
        state = AggregateState.initial(2)
        y = np.array([0.5, 0.5])
        for _ in range(50):
            x = (state.r / state.r.sum() if state.r.sum() > 0
                 else np.full(2, 0.5))
            lx, _ = game.gradients([x, y])
            state, _ = rm_plus_step(state, lx)
        x_final = state.r / state.r.sum()
        assert x_final[0] > 0.95


class TestNfgGradients:
    def test_two_player_reduces_to_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        matrix = MatrixGame(a)
        nfg = NormalFormGame((a, -a))  # zero-sum: u2 = -u1
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(4))
        lx_m, ly_m = matrix.gradients([x, y])
        lx_n, ly_n = nfg.gradients([x, y])
        np.testing.assert_allclose(lx_n, lx_m, atol=1e-12)
        np.testing.assert_allclose(ly_n, ly_m, atol=1e-12)

    def test_constant_payoff_three_player(self):
        game = NormalFormGame(tuple(np.ones((2, 2, 2)) for _ in range(3)))
        grads = game.gradients([np.array([0.5, 0.5])] * 3)
        for g in grads:
            np.testing.assert_allclose(g, [-1.0, -1.0], atol=1e-15)

    def test_matches_enumeration_oracle(self):
        game = random_nfg((2, 3, 4), 23)
        rng = np.random.default_rng(2)
        for _ in range(20):
            xs = [rng.dirichlet(np.ones(d)) for d in game.dims]
            grads = game.gradients(xs)
            for i in range(3):
                expected = -nfg_gradient_by_enumeration(game.payoffs[i], i, xs)
                np.testing.assert_allclose(grads[i], expected, atol=1e-12)

    @given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_plans_match_tensordot_bit_for_bit(self, dims, seed, data):
        # tobytes, so that a signed zero counts: payoffs and vertex
        # strategies carry exact zeros.  The blocks are views of one flat
        # vector, as the solvers hand them over
        rng = np.random.default_rng(seed)
        game = NormalFormGame(tuple(
            rng.uniform(-1.0, 1.0, dims) * (rng.random(dims) < 0.7)
            for _ in dims))
        blocks = []
        for d in dims:
            if data.draw(st.booleans(), label="vertex"):
                block = np.zeros(d)
                block[rng.integers(d)] = 1.0
            else:
                block = rng.dirichlet(np.ones(d))
            blocks.append(block)
        flat = np.concatenate(blocks)
        bounds = np.cumsum([0, *dims])
        xs = [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        want = [nfg_loss_gradient_tensordot(game.payoffs, i, xs)
                for i in range(len(dims))]
        assert [g.tobytes() for g in game.gradients(xs)] == [
            w.tobytes() for w in want]
        for i, w in enumerate(want):
            assert game.gradient_for(i, xs).tobytes() == w.tobytes()

    def test_finite_difference_consistency(self):
        # central differences of the multilinear utility, interior points
        game = random_nfg((3, 3), 5)
        rng = np.random.default_rng(3)
        eps = 1e-5
        for _ in range(100):
            xs = [rng.dirichlet(np.ones(d)) * 0.8 + 0.1 / d for d in game.dims]
            grads = game.gradients(xs)
            for i in range(game.num_players):
                for a in range(game.dims[i]):
                    bumped_up = [x.copy() for x in xs]
                    bumped_dn = [x.copy() for x in xs]
                    bumped_up[i][a] += eps
                    bumped_dn[i][a] -= eps
                    fd = (game.utility(i, bumped_up)
                          - game.utility(i, bumped_dn)) / (2 * eps)
                    assert -grads[i][a] == pytest.approx(fd, rel=1e-6, abs=1e-8)


# recorded before the pure-profile enumeration of the constants was
# rewritten over ``np.moveaxis`` views
NFG_CONSTANTS_DIGESTS = {
    (1, 1): "fae1273226434e6a", (1, 4): "d1f82790dc2a3312",
    (4, 1): "a1c99c1db6c81b9c", (3, 5): "002fa516b2f3cdab",
    (1, 3, 2): "0a55b200768592ed", (3, 3, 3): "c88c54fbe68ae968",
    (2, 4, 3): "5d0fe04bcfcf5f7b", (5, 5, 5): "ee086c6f27864f5b",
    (2, 1, 2, 3): "fc7466aea4a14d28", (2, 3, 2, 3): "09fccd0510d1590b",
    (3, 2, 2, 2): "be803f71022826af",
}

class TestConstants:
    def test_matrix_constants_are_valid_bounds(self):
        rng = np.random.default_rng(4)
        game = MatrixGame(rng.normal(size=(4, 5)))
        b_u, l_u = game.constants
        for _ in range(1000):
            x1, y1 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(5))
            x2, y2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(5))
            g1 = game.gradients([x1, y1])
            g2 = game.gradients([x2, y2])
            joint = np.sqrt(np.sum((x1 - x2) ** 2) + np.sum((y1 - y2) ** 2))
            for i in range(2):
                assert np.linalg.norm(g1[i]) <= b_u + 1e-9
                assert (np.linalg.norm(g1[i] - g2[i])
                        <= l_u * joint + 1e-9)

    def test_nfg_constants_are_valid_bounds(self):
        game = random_nfg((2, 3, 3), 8)
        b_u, l_u = game.constants
        rng = np.random.default_rng(5)
        for _ in range(1000):
            xs1 = [rng.dirichlet(np.ones(d)) for d in game.dims]
            xs2 = [rng.dirichlet(np.ones(d)) for d in game.dims]
            g1 = game.gradients(xs1)
            g2 = game.gradients(xs2)
            joint = np.sqrt(sum(np.sum((a - b) ** 2)
                                for a, b in zip(xs1, xs2)))
            for i in range(game.num_players):
                assert np.linalg.norm(g1[i]) <= b_u + 1e-9
                assert np.linalg.norm(g1[i] - g2[i]) <= l_u * joint + 1e-9

    def test_spectral_norm_against_numpy(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            assert spectral_norm(a) == pytest.approx(
                np.linalg.norm(a, ord=2), rel=1e-8)
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_spectral_norm_start_in_the_kernel(self):
        # rock-paper-scissors maps the uniform start vector to zero, so the
        # power iteration restarts from the largest column
        rps = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        assert spectral_norm(rps) == pytest.approx(np.linalg.norm(rps, 2),
                                                   abs=1e-9)
        assert _bits(spectral_norm(rps)) == _bits(spectral_norm_by_linalg(rps))

    @settings(max_examples=40, deadline=None)
    @given(dims=NFG_DIMS, seed=st.integers(0, 2**32),
           scale=st.sampled_from([1.0, 1e-3, 7.5e4]))
    def test_nfg_constants_match_the_linalg_oracle(self, dims, seed, scale):
        game = NormalFormGame(tuple(
            scale * u for u in random_nfg(dims, seed).payoffs))
        assert _bits(game.constants) == _bits(nfg_constants_by_linalg(game))

    def test_nfg_constants_match_the_linalg_oracle_on_a_grid(self):
        """Every shape of a grid, three seeds each: a ddot on a row of one
        shared copy, instead of on each fiber's own copy, differs on a few
        of them."""
        shapes = [*itertools.product(range(1, 7), repeat=2),
                  *itertools.product((1, 3, 6), repeat=3),
                  *itertools.product((2, 4), repeat=4)]
        for dims in shapes:
            for seed in range(3):
                game = random_nfg(dims, seed)
                assert (_bits(game.constants)
                        == _bits(nfg_constants_by_linalg(game))), (dims, seed)

    @settings(max_examples=40, deadline=None)
    @given(d1=st.integers(1, 12), d2=st.integers(1, 12),
           seed=st.integers(0, 2**32))
    def test_matrix_constants_match_the_linalg_oracle(self, d1, d2, seed):
        payoff = random_matrix_game(d1, d2, seed).payoff
        for a in (payoff, payoff[::2, ::-1], payoff.T):
            game = MatrixGame(a)
            assert (_bits(game.constants)
                    == _bits(matrix_constants_by_linalg(game)))

    @pytest.mark.parametrize("dims", list(NFG_CONSTANTS_DIGESTS))
    def test_nfg_constants_digest(self, dims):
        """(B_u, L_u) of six seeded games, to the last bit."""
        text = ";".join(f"{b.hex()},{l.hex()}" for b, l in (
            random_nfg(dims, seed).constants for seed in range(6)))
        assert (hashlib.sha256(text.encode()).hexdigest()[:16]
                == NFG_CONSTANTS_DIGESTS[dims])


class TestArgumentErrors:
    @pytest.mark.parametrize("call,message", [
        (lambda: MatrixGame(np.ones(3)), "payoff matrix must be 2-D"),
        (lambda: MatrixGame([[0.0, np.nan]]), "payoff matrix has non-finite"),
        (lambda: NormalFormGame(()), "need at least one player"),
        (lambda: NormalFormGame((np.ones((2, 2)),)),
         "need one tensor axis per player"),
        (lambda: NormalFormGame((np.ones((2, 2)), np.ones((2, 3)))),
         "payoff tensors must share one shape"),
        (lambda: NormalFormGame((np.ones((2, 2)), np.full((2, 2), np.inf))),
         "payoff tensor has non-finite entries"),
        (lambda: random_nfg((2, 3), 0).gradients([np.full(2, 0.5)]),
         "one strategy per player required"),
        (lambda: random_nfg((2, 3), 0).gradients([np.full(2, 0.5),
                                                  np.full(2, 0.5)]),
         "dimension mismatch for player 1"),
        (lambda: random_matrix_game(0, 3, 0), "dimensions must be positive"),
        (lambda: random_matrix_game(2, -1, 0), "dimensions must be positive"),
        (lambda: random_nfg((3,), 0),
         "need >= 2 players with positive action counts"),
        (lambda: random_nfg((2, 0), 0),
         "need >= 2 players with positive action counts"),
    ], ids=["matrix-1d", "matrix-nan", "nfg-empty", "nfg-axes", "nfg-shapes",
            "nfg-inf", "gradient-count", "gradient-dim", "random-matrix-rows",
            "random-matrix-columns", "random-nfg-one-player",
            "random-nfg-no-actions"])
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestHardInstance:
    def test_matrix_literal(self):
        a = hard_instance().payoff
        assert a[0, 2] == -3.0
        assert a[1, 2] == -4.0
        assert a[2, 2] == 1.0
        np.testing.assert_array_equal(
            a, [[3.0, 0.0, -3.0], [0.0, 3.0, -4.0], [0.0, 0.0, 1.0]])


class TestInstabilityLosses:
    def test_rm_plus_sequence(self):
        losses = instability_losses(6, "rm+")
        np.testing.assert_array_equal(losses[:, 0],
                                      [2.0, -1.0, 2.0, -2.0, 4.0, -4.0])
        np.testing.assert_array_equal(losses[:, 1], np.zeros(6))

    def test_prm_plus_sequence(self):
        losses = instability_losses(4, "prm+")
        np.testing.assert_array_equal(losses[:, 0], [4.0, -1.0, 4.0, -2.0])

    def test_scaled_bounds(self):
        for variant in ("rm+", "prm+"):
            losses = instability_losses(17, variant, scaled=True)
            assert np.abs(losses).max() == 1.0
            assert np.all(np.abs(losses) <= 1.0)

    def test_replay_alternates(self):
        losses = instability_losses(12, "rm+")
        state = AggregateState.initial(2)
        for t in range(1, 13):
            state, x = rm_plus_step(state, losses[t - 1])
            expected = [0.5, 0.5] if t % 2 == 1 else [0.0, 1.0]
            np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            instability_losses(0, "rm+")
        with pytest.raises(ValueError):
            instability_losses(5, "nope")

    @pytest.mark.parametrize("variant,largest", [("rm+", 2048), ("prm+", 2046)])
    def test_largest_horizon_in_float_range(self, variant, largest):
        losses = instability_losses(largest, variant)
        assert np.all(np.isfinite(losses))
        assert np.abs(losses).max() == 2.0**1023
        assert np.abs(instability_losses(largest, variant,
                                         scaled=True)).max() == 1.0
        with pytest.raises(ValueError, match=f"at most T={largest}"):
            instability_losses(largest + 1, variant)
        with pytest.raises(ValueError, match=f"at most T={largest}"):
            instability_losses(largest + 1, variant, scaled=True)


class TestRandomGames:
    def test_same_seed_identical(self):
        a = random_matrix_game(30, 40, 123).payoff
        b = random_matrix_game(30, 40, 123).payoff
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_matrix_game(30, 40, 1).payoff
        b = random_matrix_game(30, 40, 2).payoff
        assert np.any(a != b)

    def test_mean_within_three_sigma(self):
        a = random_matrix_game(30, 40, 77).payoff
        assert abs(a.mean()) <= 3.0 / np.sqrt(30 * 40)

    @pytest.mark.parametrize("seed", [-1, 0, 7, 2**64 - 1, 2**64 + 7])
    def test_payoffs_are_the_scalar_stream(self, seed):
        """Matrix payoffs are the stream's normals row by row, and each
        player's normal-form payoffs the next block of 2u - 1."""
        rng = PortableRandom(seed)
        assert (_bits(random_matrix_game(3, 5, seed).payoff.ravel())
                == _bits(rng.normals(15)))
        rng = PortableRandom(seed)
        for u in random_nfg((2, 3, 2), seed).payoffs:
            assert _bits(u.ravel()) == _bits(
                [2.0 * x - 1.0 for x in rng.uniforms(12)])

    @pytest.mark.parametrize("seed", [np.int64(-1), np.uint64(2**64 - 1),
                                      np.int32(7)], ids=repr)
    def test_a_numpy_integer_seed_is_its_value(self, seed):
        assert (_bits(random_matrix_game(3, 4, seed).payoff)
                == _bits(random_matrix_game(3, 4, int(seed)).payoff))
        for u, v in zip(random_nfg((2, 3), seed).payoffs,
                        random_nfg((2, 3), int(seed)).payoffs):
            assert _bits(u) == _bits(v)

    def test_random_nfg_range_and_determinism(self):
        g1 = random_nfg((2, 3), 9)
        g2 = random_nfg((2, 3), 9)
        for u1, u2 in zip(g1.payoffs, g2.payoffs):
            np.testing.assert_array_equal(u1, u2)
            assert np.all(np.abs(u1) <= 1.0)


class TestDualityGap:
    def test_zero_game(self):
        game = MatrixGame(np.zeros((3, 3)))
        assert duality_gap(game, np.full(3, 1 / 3), np.full(3, 1 / 3)) == 0.0

    def test_hard_instance_uniform(self):
        game = hard_instance()
        uniform = np.full(3, 1 / 3)
        # cross-check the frozen value against pure-strategy enumeration
        best_row = max((game.payoff @ uniform)[i] for i in range(3))
        worst_col = min((uniform @ game.payoff)[j] for j in range(3))
        assert best_row - worst_col == pytest.approx(7 / 3, abs=1e-12)
        assert duality_gap(game, uniform, uniform) == pytest.approx(
            7 / 3, abs=1e-12)

    def test_identity_equilibrium(self):
        game = MatrixGame(np.eye(2))
        x = y = np.array([0.5, 0.5])
        # (1/2, 1/2) is the equilibrium: every pure deviation scores 1/2
        for i in range(2):
            assert (game.payoff @ y)[i] == pytest.approx(0.5)
            assert (x @ game.payoff)[i] == pytest.approx(0.5)
        assert duality_gap(game, x, y) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dims", [(3, 3), (30, 40), (7, 3), (64, 90)])
    def test_stacked_profiles_match_row_by_row(self, dims):
        game = random_matrix_game(*dims, 2)
        rng = np.random.default_rng(3)
        profiles = rng.dirichlet(np.ones(sum(dims)), size=50)
        profiles[0] = 0.0
        profiles[0, [0, -1]] = 1.0  # pure strategies
        x, y = profiles[:, :dims[0]], profiles[:, dims[0]:]
        expected = np.array([duality_gap(game, a, b) for a, b in zip(x, y)])
        assert duality_gap(game, x, y).tobytes() == expected.tobytes()

    def test_folk_bound_on_trajectory(self):
        # every round t: gap of the uniform averages <= sum_i [regret_i]+ / t
        trace = run(SolverConfig(algorithm="rm+", iters=500,
                                 averaging="uniform"), hard_instance())
        bound = np.maximum(trace.regret_max, 0.0).sum(axis=1) / trace.t
        assert np.all(trace.gap <= bound + 1e-9)


class TestCceGap:
    """Normal-form runs report the CCE gap max_i [max-action regret_i]+ / t
    of the empirical play."""

    def test_zero_regrets(self):
        zeros = np.zeros((3, 2))
        trace = run(SolverConfig(algorithm="rm+", iters=10),
                    NormalFormGame((zeros, zeros)))
        assert np.all(trace.gap == 0.0)

    def test_definition(self):
        trace = run(SolverConfig(algorithm="prm+", iters=50, store_full=True),
                    random_nfg((3, 2, 2), 5))
        regrets = [float(np.max(np.sum(xs * losses) - losses.sum(axis=0)))
                   for xs, losses in zip(trace.strategies, trace.losses)]
        assert trace.gap[-1] == pytest.approx(max(0.0, *regrets) / 50,
                                              abs=1e-12)
        np.testing.assert_array_equal(
            trace.gap, np.maximum(trace.regret_max.max(axis=1), 0.0) / trace.t)

    def test_accepts_ledgers(self):
        # the reported gap is the one the run's final ledgers give
        trace = run(SolverConfig(algorithm="rm+", iters=40),
                    random_nfg((2, 3, 2), 6))
        worst = max(float(ledger.max()) for ledger in trace.ledgers)
        assert trace.gap[-1] == max(worst, 0.0) / 40


class TestGameFiles:
    def test_matrix_round_trip(self, tmp_path):
        game = random_matrix_game(3, 4, 5)
        path = tmp_path / "m.game"
        save_game(game, path)
        loaded = load_game(path)
        np.testing.assert_array_equal(loaded.payoff, game.payoff)

    def test_nfg_round_trip(self, tmp_path):
        game = random_nfg((2, 3, 2), 6)
        path = tmp_path / "g.game"
        save_game(game, path)
        loaded = load_game(path)
        for a, b in zip(loaded.payoffs, game.payoffs):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("opening", ["", "# Kuhn poker\n", "\n \n"],
                             ids=["plain", "comment", "blank-lines"])
    def test_tree_round_trip(self, tmp_path, opening):
        """``save_game`` writes a tree as ``save_tree`` does, and
        ``load_game`` reads it back under the comment and blank-line rule."""
        tree = efg.build_kuhn(2, 3)
        path, expected = tmp_path / "k.efg", tmp_path / "expected.efg"
        save_game(tree, path)
        efg.save_tree(tree, expected)
        assert path.read_bytes() == expected.read_bytes()
        path.write_text(opening + path.read_text())
        efg.save_tree(load_game(path), path)
        assert path.read_bytes() == expected.read_bytes()

    def test_save_rejects_a_non_game(self, tmp_path):
        """It raises before opening: a file already at the path keeps its
        bytes."""
        path = tmp_path / "g.game"
        path.write_text("matrix\n1 1\n5\n")
        with pytest.raises(ValueError, match="cannot serialize dict"):
            save_game({}, path)
        assert path.read_text() == "matrix\n1 1\n5\n"

    def test_grammar_golden(self, tmp_path):
        path = tmp_path / "tiny.game"
        path.write_text("# comment line\nmatrix\n2 2\n1 0\n0 1\n")
        loaded = load_game(path)
        np.testing.assert_array_equal(loaded.payoff, np.eye(2))

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("matrix\n2 2\n1 0 0\n")
        with pytest.raises(ValueError):
            load_game(path)
        path.write_text("wat\n")
        with pytest.raises(ValueError):
            load_game(path)

    @given(st.lists(st.sampled_from(
        ["matrix", "nfg", "efg", "0", "1", "2", "3", "-1", "0.5", "x", "inf",
         "nan", "#", "\n"]), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_any_token_stream_parses_or_names_its_line(self, tmp_path_factory,
                                                       tokens):
        path = tmp_path_factory.mktemp("fuzz") / "f.game"
        path.write_text(" ".join(tokens))
        try:
            game = load_game(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        save_game(game, path)
        again = load_game(path)
        # (a getattr default would read ``payoff`` of a normal-form game)
        assert type(again) is type(game)
        if isinstance(game, NormalFormGame):
            pairs = zip(again.payoffs, game.payoffs)
        else:
            pairs = [(again.payoff, game.payoff)]
        for a, b in pairs:
            np.testing.assert_array_equal(a, b)
