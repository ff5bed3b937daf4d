import hashlib
import io

import numpy as np
import pytest

from regretkit import efg
from regretkit.core import lifted_regret_equivalence
from regretkit.fixedpoint import lipschitz_bound
from regretkit.games import MatrixGame, hard_instance, random_nfg
from regretkit.harness import (
    NumericalDivergence,
    SolverConfig,
    linear_average,
    rate_estimate,
    read_trace_csv,
    run,
    slope_loglog,
    stored_rounds,
)


class TestLinearAverage:
    def test_single_iterate(self):
        np.testing.assert_array_equal(
            linear_average([np.array([0.3, 0.7])], 1), [0.3, 0.7])

    def test_two_iterates(self):
        avg = linear_average([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2)
        np.testing.assert_allclose(avg, [1 / 3, 2 / 3], atol=1e-15)

    def test_constant_iterates(self):
        x = np.array([0.2, 0.8])
        np.testing.assert_allclose(linear_average([x] * 7, 7), x, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linear_average([], 1)


class TestRateEstimate:
    def test_exact_power_laws(self):
        ts = np.arange(1, 5001)
        assert slope_loglog(ts, 3.0 / ts, 10, 5000) == pytest.approx(
            -1.0, abs=1e-6)
        assert slope_loglog(ts, 0.7 / ts**2, 10, 5000) == pytest.approx(
            -2.0, abs=1e-6)
        assert slope_loglog(ts, np.full(ts.size, 4.2), 10, 5000) == (
            pytest.approx(0.0, abs=1e-9))

    def test_rejects_nonpositive(self):
        ts = np.arange(1, 100)
        values = 1.0 / ts
        values[50] = 0.0
        with pytest.raises(ValueError):
            slope_loglog(ts, values, 1, 99)

    def test_subsampling_keeps_slope(self):
        ts = np.arange(1, 200001)
        slope = slope_loglog(ts, 5.0 / ts**1.5, 100, 200000, max_points=300)
        assert slope == pytest.approx(-1.5, abs=1e-6)


class TestStoredRounds:
    def test_small_runs_store_everything(self):
        np.testing.assert_array_equal(stored_rounds(10), np.arange(1, 11))
        assert stored_rounds(10**6).size == 10**6

    def test_report_skip(self):
        np.testing.assert_array_equal(stored_rounds(10, 4), np.arange(5, 11))

    def test_long_runs_subsample_geometrically(self):
        kept = stored_rounds(2 * 10**6)
        assert kept.size < 2 * 10**6
        # everything up to 1000 is dense, then divisibility by ceil(t/1000)
        assert np.array_equal(kept[:1000], np.arange(1, 1001))
        tail = kept[kept > 1000]
        assert np.all(tail % np.ceil(tail / 1000).astype(np.int64) == 0)
        assert kept[-1] <= 2 * 10**6


class TestRunBasics:
    def test_rm_plus_matches_hand_reference(self):
        # 20-line straight-line reference loop, no alternation
        game = hard_instance()
        config = SolverConfig(algorithm="rm+", iters=10, averaging="uniform",
                              store_full=True)
        trace = run(config, game)
        a = game.payoff
        r1, r2 = np.zeros(3), np.zeros(3)
        cum1, cum2 = np.zeros(3), np.zeros(3)
        for _ in range(10):
            x = r1 / r1.sum() if r1.sum() > 0 else np.full(3, 1 / 3)
            y = r2 / r2.sum() if r2.sum() > 0 else np.full(3, 1 / 3)
            l1, l2 = -a @ y, a.T @ x
            cum1 += np.dot(x, l1) - l1
            cum2 += np.dot(y, l2) - l2
            r1 = np.maximum(r1 - (l1 - np.dot(x, l1)), 0.0)
            r2 = np.maximum(r2 - (l2 - np.dot(y, l2)), 0.0)
        np.testing.assert_allclose(trace.ledgers[0], cum1, atol=1e-12)
        np.testing.assert_allclose(trace.ledgers[1], cum2, atol=1e-12)
        assert trace.regret_max[-1, 0] == pytest.approx(cum1.max(), abs=1e-12)

    def test_zero_game_gaps_are_zero(self):
        game = MatrixGame(np.zeros((2, 3)))
        for algo in ("rm+", "prm+", "stable-prm+", "smooth-prm+",
                     "conceptual-rm+", "exrm+"):
            trace = run(SolverConfig(algorithm=algo, eta=0.1, iters=5), game)
            np.testing.assert_array_equal(trace.gap, np.zeros(5))

    def test_deterministic_csv(self):
        game = hard_instance()
        config = SolverConfig(algorithm="smooth-prm+", eta=0.1, iters=50,
                              alternation=True)
        buffers = []
        for _ in range(2):
            buf = io.StringIO()
            run(config, game).write_csv(buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]

    def test_trace_row_count(self):
        game = hard_instance()
        trace = run(SolverConfig(algorithm="rm+", iters=40, report_skip=10),
                    game)
        assert trace.t.size == 30
        assert trace.t[0] == 11

    def test_regrets_recomputable_from_full_storage(self):
        game = hard_instance()
        for algo in ("rm+", "prm+", "exrm+", "smooth-prm+"):
            config = SolverConfig(algorithm=algo, eta=0.1, iters=60,
                                  store_full=True)
            trace = run(config, game)
            for i in range(2):
                xs = trace.strategies[i]
                losses = trace.losses[i]
                recomputed = (np.sum(xs * losses)
                              - losses.sum(axis=0))
                np.testing.assert_allclose(trace.ledgers[i], recomputed,
                                           atol=1e-9 * config.iters)

    def test_lifted_regret_equivalence_on_traces(self):
        game = hard_instance()
        for algo in ("rm+", "prm+", "smooth-prm+", "exrm+", "conceptual-rm+"):
            config = SolverConfig(algorithm=algo, eta=0.1, iters=50,
                                  store_full=True)
            trace = run(config, game)
            for i in range(2):
                comparator = np.zeros(3)
                comparator[int(np.argmax(trace.ledgers[i]))] = 1.0
                plain, lifted = lifted_regret_equivalence(
                    trace.strategies[i], trace.losses[i], trace.lifted[i],
                    comparator)
                assert plain == pytest.approx(lifted,
                                              abs=1e-9 * config.iters)

    def test_incompatible_game_rejected(self):
        tree = efg.build_kuhn(2, 3)
        with pytest.raises(ValueError):
            run(SolverConfig(algorithm="conceptual-rm+", iters=5), tree)
        with pytest.raises(ValueError):
            run(SolverConfig(algorithm="predictive-cfr", iters=5),
                hard_instance())

    def test_alternation_rejected_for_fixed_point_family(self):
        for algo in ("exrm+", "conceptual-rm+"):
            with pytest.raises(ValueError):
                run(SolverConfig(algorithm=algo, iters=5, alternation=True),
                    hard_instance())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected_with_round_number(self):
        game = hard_instance()
        config = SolverConfig(algorithm="exrm+", eta=1e308, iters=10)
        with pytest.raises(NumericalDivergence) as exc_info:
            run(config, game)
        assert exc_info.value.iteration >= 1


class TestAutoEta:
    def test_theorem_prescriptions(self):
        game = hard_instance()
        lf = lipschitz_bound(game)
        cases = {
            "exrm+": 1.0 / (np.sqrt(2.0) * lf),
            "conceptual-rm+": 1.0 / (2.0 * lf),
            "stable-prm+": (6.0**2 * 100) ** -0.25,
            "smooth-prm+": 1.0 / (2.0 * np.sqrt(2.0) * 1 * 3.0**1.5),
            "rm+": 0.1,
        }
        for algo, expected in cases.items():
            trace = run(SolverConfig(algorithm=algo, eta="auto", iters=100),
                        game)
            assert float(trace.header["eta"]) == pytest.approx(expected,
                                                               rel=1e-12)
            assert trace.header["eta_mode"] == "auto"

    def test_constants_recorded(self):
        trace = run(SolverConfig(algorithm="exrm+", eta="auto", iters=10),
                    hard_instance())
        for key in ("B_u", "L_u", "L_F", "game"):
            assert key in trace.header


class TestHeaderAndCsv:
    def test_csv_schema(self):
        trace = run(SolverConfig(algorithm="conceptual-rm+", eta="auto",
                                 iters=8), hard_instance())
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().splitlines()
        header_lines = [l for l in lines if l.startswith("#")]
        assert all("=" in l for l in header_lines)
        row_header = next(l for l in lines if not l.startswith("#"))
        assert row_header == "t,player,regret_max,gap,iter_var,restart,fp_k,fp_residual"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 8 * 2  # one row per (round, player)
        first = data[0].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert first[6] != ""  # conceptual fills fp_k

    def test_read_back(self, tmp_path):
        trace = run(SolverConfig(algorithm="rm+", iters=25,
                                 alternation=True), hard_instance())
        path = tmp_path / "trace.csv"
        with open(path, "w", encoding="utf-8") as fh:
            trace.write_csv(fh)
        header, ts, gaps = read_trace_csv(path)
        assert header["algorithm"] == "rm+"
        np.testing.assert_array_equal(ts, trace.t)
        np.testing.assert_allclose(gaps, trace.gap, rtol=1e-15)

    def test_rate_estimate_on_trace(self):
        trace = run(SolverConfig(algorithm="exrm+", eta=0.1, iters=3000),
                    hard_instance())
        slope = rate_estimate(trace, (300, 3000))
        assert slope < -1.0  # fast regime on the hard instance


class TestAlternationSweep:
    def test_no_nans_on_protocol_grid(self):
        game = random_nfg((3, 3), 2)
        for algo in ("rm+", "prm+", "stable-prm+", "smooth-prm+"):
            for eta in (0.1, 1.0, 10.0):
                trace = run(SolverConfig(algorithm=algo, eta=eta, iters=200,
                                         alternation=True), game)
                assert np.all(np.isfinite(trace.gap))
                assert np.all(np.isfinite(trace.regret_max))
                for avg in trace.averages:
                    assert avg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_average_folk_bound(self):
        game = hard_instance()
        config = SolverConfig(algorithm="rm+", iters=400, averaging="uniform",
                              alternation=True, store_full=True)
        trace = run(config, game)
        from regretkit.games import duality_gap
        gap = duality_gap(game, trace.averages[0], trace.averages[1])
        regret_sum = sum(max(trace.ledgers[i].max(), 0.0) for i in range(2))
        assert gap <= regret_sum / config.iters + 1e-9


class TestTreeRuns:
    def test_predictive_cfr_trace(self):
        tree = efg.build_kuhn(2, 3)
        config = SolverConfig(algorithm="predictive-cfr", iters=200,
                              alternation=True)
        trace = run(config, tree)
        assert trace.behavioral_average is not None
        assert trace.gap[-1] < trace.gap[0]
        assert np.all(np.isfinite(trace.gap))
        expl = efg.exploitability(tree, trace.behavioral_average)
        assert float(expl.sum()) < 0.05

    def test_clairvoyant_trace_and_header(self):
        tree = efg.build_liars_dice(2, 2)
        config = SolverConfig(algorithm="clairvoyant-cfr", eta=10.0, iters=100)
        trace = run(config, tree)
        assert "eta_contraction" in trace.header
        assert "P" in trace.header
        assert np.all(np.isfinite(trace.gap))


# SHA-256 of whole trace CSVs (eta auto, linear averaging), recorded from
# the recursive tree passes; the array passes must reproduce them byte for
# byte.
TREE_TRACE_DIGESTS = {
    ("kuhn3", "predictive-cfr", False):
        "d9a90d90725f2faa98ea9bb50f129414c833032e18a998f683fa5d1063c2c981",
    ("kuhn3", "predictive-cfr", True):
        "34bbc9ab06784f4311cf26c0f9987b97ec5a58b85f8df638a267a5b626456678",
    ("kuhn3", "clairvoyant-cfr", False):
        "7da9a618f51b2c4aeb2a62cf2644137bd99c7fa9935e0edc66b3ad39e34c7422",
    ("kuhn3", "clairvoyant-cfr", True):
        "8f53cbcf0eee923ed6a171b158f7a4bb6c316a7d3908e3d8e3e89e187a15c215",
    ("liars3", "predictive-cfr", False):
        "f3523ec1a3a71b399f16162722efb46ad5c22fb81e6db49f686ede0f99b5bd2d",
    ("liars3", "predictive-cfr", True):
        "18a089f4eea80b982e9a45995752296b41523fdef2691c6ac8503b75d0871475",
    ("liars3", "clairvoyant-cfr", False):
        "c8f01934eec3629106b3cd2904a68a09d747f783320603614c48d54627ce3a85",
    ("liars3", "clairvoyant-cfr", True):
        "c06d282fab455a06e2fb65d445795012e8f93c19bad3b4a3b5169f155afb8b39",
}


class TestTreeTraceDigests:
    TREES = {"kuhn3": (lambda: efg.build_kuhn(2, 3), 50),
             "liars3": (lambda: efg.build_liars_dice(3, 2), 5)}

    @pytest.mark.parametrize("key", sorted(TREE_TRACE_DIGESTS))
    def test_trace_csv_is_byte_identical(self, key):
        name, algo, alternate = key
        build, iters = self.TREES[name]
        config = SolverConfig(algorithm=algo, eta="auto", iters=iters,
                              alternation=alternate)
        buf = io.StringIO()
        run(config, build()).write_csv(buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == TREE_TRACE_DIGESTS[key]
