import dataclasses
import hashlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretkit import efg, harness
from regretkit.core import NonFiniteError, lifted_regret_equivalence
from regretkit.fixedpoint import lipschitz_bound
from regretkit.games import (MatrixGame, NormalFormGame, hard_instance,
                             random_matrix_game, random_nfg)
from regretkit.harness import (
    NumericalDivergence,
    SolverConfig,
    read_trace_csv,
    run,
    slope_loglog,
    stored_rounds,
)


class TestLinearAverage:
    """A run's ``averages`` is 2/(T(T+1)) sum_t t x^t of its plays."""

    def test_single_iterate(self):
        trace = run(SolverConfig(algorithm="rm+", iters=1, store_full=True),
                    hard_instance())
        for avg, xs in zip(trace.averages, trace.strategies):
            np.testing.assert_array_equal(avg, xs[0])

    def test_two_iterates(self):
        trace = run(SolverConfig(algorithm="prm+", iters=2, store_full=True),
                    hard_instance())
        for avg, xs in zip(trace.averages, trace.strategies):
            np.testing.assert_allclose(avg, (xs[0] + 2.0 * xs[1]) / 3.0,
                                       atol=1e-15)

    def test_constant_iterates(self):
        # nothing moves on the zero game: every round plays uniform
        trace = run(SolverConfig(algorithm="prm+", iters=7),
                    MatrixGame(np.zeros((2, 5))))
        np.testing.assert_allclose(trace.averages[0], np.full(2, 0.5),
                                   atol=1e-12)
        np.testing.assert_allclose(trace.averages[1], np.full(5, 0.2),
                                   atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run(SolverConfig(algorithm="rm+", iters=0), hard_instance())

    def test_weighted_sum_of_stored_plays(self):
        T = 60
        weights = np.arange(1, T + 1, dtype=float)
        games = (hard_instance(), random_nfg((3, 2, 4), 3))
        for game in games:
            for algo, alt in (("rm+", True), ("prm+", False),
                              ("stable-prm+", False), ("smooth-prm+", True),
                              ("exrm+", False), ("conceptual-rm+", False)):
                config = SolverConfig(algorithm=algo, eta=0.1, iters=T,
                                      alternation=alt, store_full=True)
                trace = run(config, game)
                for avg, xs in zip(trace.averages, trace.strategies):
                    np.testing.assert_allclose(
                        avg, 2.0 / (T * (T + 1)) * (weights @ xs),
                        atol=1e-12)


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
        slope = slope_loglog(ts, 5.0 / ts**1.5, 100, 200000)
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


# The round at which each huge step size diverges, 20 rounds at most
# (None: the run finishes), recorded before the fixed-point solve moved
# onto one flat joint vector.
DIVERGENCE_ROUNDS = {
    ("hard3x3", 1e308): {"exrm+": 1, "conceptual-rm+": 1, "smooth-prm+": 1,
                         "rm+": None, "prm+": None, "stable-prm+": 1},
    ("matrix30x40", 1e308): {"exrm+": 4, "conceptual-rm+": 4,
                             "smooth-prm+": 7, "rm+": None, "prm+": None,
                             "stable-prm+": 7},
    ("nfg3x3x3", 1e308): {"exrm+": 5, "conceptual-rm+": 1, "smooth-prm+": 4,
                          "rm+": None, "prm+": None, "stable-prm+": 4},
    **{(name, 1e300): {"exrm+": None, "conceptual-rm+": None,
                       "smooth-prm+": None, "rm+": None, "prm+": None,
                       "stable-prm+": None}
       for name in ("hard3x3", "matrix30x40", "nfg3x3x3")},
    # the game's payoff sums overflow; RM+ and PRM+ ignore eta
    **{("overflow3x3", eta): {"exrm+": 1, "conceptual-rm+": 1,
                             "smooth-prm+": 2, "rm+": None, "prm+": 3,
                             "stable-prm+": 2}
       for eta in (0.1, 1.0)},
}

# the same cases with the players alternating (lifted-orthant algorithms)
ALTERNATING_DIVERGENCE_ROUNDS = {
    **{(name, 1e300): dict.fromkeys(("rm+", "prm+", "stable-prm+",
                                     "smooth-prm+"))
       for name in ("hard3x3", "matrix30x40", "nfg3x3x3")},
    ("hard3x3", 1e308): {"rm+": None, "prm+": None, "stable-prm+": 2,
                         "smooth-prm+": 2},
    ("matrix30x40", 1e308): {"rm+": None, "prm+": None, "stable-prm+": 8,
                             "smooth-prm+": 8},
    ("nfg3x3x3", 1e308): {"rm+": None, "prm+": None, "stable-prm+": 3,
                          "smooth-prm+": 3},
    # the stabilized ledgers overflow at round 8 while the plays stay finite
    ("overflow3x3", 0.1): {"rm+": None, "prm+": 4, "stable-prm+": 8,
                           "smooth-prm+": 8},
    ("overflow3x3", 1.0): {"rm+": None, "prm+": 4, "stable-prm+": 4,
                           "smooth-prm+": 4},
}


RPS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


class TestDivergenceRounds:
    GAMES = {"hard3x3": hard_instance,
             "matrix30x40": lambda: random_matrix_game(30, 40, 0),
             "nfg3x3x3": lambda: random_nfg((3, 3, 3), 0),
             "overflow3x3": lambda: MatrixGame(np.array(
                 [[1e308, 0.0, -1e308], [0.0, 1e308, -1e308],
                  [0.0, 0.0, 1e308]])),
             "rps1e308": lambda: MatrixGame(1e308 * RPS)}

    def _check(self, config, name, expected):
        if expected is None:
            trace = run(config, self.GAMES[name]())
            for column in (trace.regret_max, trace.gap, trace.iter_var):
                assert np.isfinite(column).all()
            return
        with pytest.raises(NumericalDivergence) as exc_info:
            run(config, self.GAMES[name]())
        assert exc_info.value.iteration == expected
        assert str(exc_info.value) == f"non-finite iterate at round {expected}"

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("algo", ["exrm+", "conceptual-rm+",
                                      "smooth-prm+", "rm+", "prm+",
                                      "stable-prm+"])
    @pytest.mark.parametrize("name,eta", sorted(DIVERGENCE_ROUNDS))
    def test_round_and_message(self, name, eta, algo):
        config = SolverConfig(algorithm=algo, eta=eta, iters=20)
        self._check(config, name, DIVERGENCE_ROUNDS[name, eta][algo])

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("algo", ["rm+", "prm+", "stable-prm+",
                                      "smooth-prm+"])
    @pytest.mark.parametrize("name,eta", sorted(ALTERNATING_DIVERGENCE_ROUNDS))
    def test_alternating_round_and_message(self, name, eta, algo):
        config = SolverConfig(algorithm=algo, eta=eta, iters=20,
                              alternation=True)
        self._check(config, name,
                    ALTERNATING_DIVERGENCE_ROUNDS[name, eta][algo])

    # rm+ on rock-paper-scissors scaled toward overflow diverges after the
    # recorder's first chunk of rounds (recorded before the recorder kept
    # its books per chunk).  At 8e306 the aggregate overflows, so round
    # 490's play is non-finite; at 2e307, alternating, round 372's play is
    # finite, its loss overflows, and the round raises mid-chunk.
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("scale,alternate,expected", [
        (8e306, False, 490), (2e307, True, 372)])
    def test_after_a_chunk_flush(self, scale, alternate, expected):
        game = MatrixGame(scale * np.array(
            [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]))
        config = SolverConfig(algorithm="rm+", iters=1000,
                              alternation=alternate)
        with pytest.raises(NumericalDivergence) as exc_info:
            run(config, game)
        assert exc_info.value.iteration == expected
        assert str(exc_info.value) == f"non-finite iterate at round {expected}"

    # conceptual RM+ on rock-paper-scissors at the float limit: the solve's
    # plays stay finite, but round 1's duality gap overflows
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("eta", [0.1, 1e-10, 1e-100])
    def test_gap_overflow_at_round_one(self, eta):
        config = SolverConfig(algorithm="conceptual-rm+", eta=eta, iters=5)
        self._check(config, "rps1e308", 1)

    # conceptual RM+ on the hard instance scaled toward the float limit:
    # round 1's proximal input is so large that the simplex threshold
    # search finds no k, which is a divergence, not a crash
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("scale", [1e305, 1e306, 3e307])
    def test_simplex_without_a_threshold(self, scale):
        game = MatrixGame(scale * hard_instance().payoff / 4)
        config = SolverConfig(algorithm="conceptual-rm+", eta=0.1, iters=5)
        with pytest.raises(NumericalDivergence) as exc_info:
            run(config, game)
        assert exc_info.value.iteration == 1
        assert str(exc_info.value) == "non-finite iterate at round 1"

    @pytest.mark.parametrize("bad_round", [300, 513])
    def test_recorder_check_after_a_chunk_flush(self, bad_round):
        """The recorder's own check of a play handed to it, past the
        first chunk and at the first round of a chunk.  The check runs
        when the chunk is flushed, and names the play's round."""
        game = hard_instance()
        config = SolverConfig(algorithm="rm+", iters=1000)
        recorder = harness._Recorder(config, game)
        uniform = [np.full(3, 1 / 3), np.full(3, 1 / 3)]
        for t in range(1, bad_round):
            recorder.observe(t, uniform, [np.zeros(3), np.zeros(3)])
        with pytest.raises(NumericalDivergence) as exc_info:
            recorder.observe(bad_round, [np.full(3, 1 / 3),
                                         np.array([0.5, np.nan, 0.5])],
                             [np.zeros(3), np.zeros(3)])
            for t in range(bad_round + 1, config.iters + 1):
                recorder.observe(t, uniform, [np.zeros(3), np.zeros(3)])
            recorder.finish({})
        assert exc_info.value.iteration == bad_round
        assert str(exc_info.value) == f"non-finite iterate at round {bad_round}"

    @pytest.mark.parametrize("raise_round", [None, 6, 9])
    def test_first_non_finite_play_names_the_round(self, raise_round,
                                                    monkeypatch):
        """A non-finite play at round 5 names round 5, whether the run ends
        at the last flush or a later round raises ``NonFiniteError``
        before the chunk is flushed."""
        def fake_round(state, game, eta, algorithm, alternate, floors):
            t = state.t + 1
            if t == raise_round:
                raise NonFiniteError("non-finite loss")
            plays = [np.full(3, 1 / 3), np.full(3, np.nan if t == 5 else 1 / 3)]
            zeros = [np.zeros(3), np.zeros(3)]
            return dataclasses.replace(state, t=t), plays, zeros, zeros

        monkeypatch.setattr(harness, "_lifted_round", fake_round)
        with pytest.raises(NumericalDivergence) as exc_info:
            run(SolverConfig(algorithm="rm+", iters=10), hard_instance())
        assert exc_info.value.iteration == 5
        assert str(exc_info.value) == "non-finite iterate at round 5"


FUZZ_GAMES = {
    "hard3x3": lambda s: MatrixGame(10.0**s * hard_instance().payoff),
    "rps": lambda s: MatrixGame(10.0**s * RPS),
    "matrix3x4": lambda s: MatrixGame(
        10.0**s * random_matrix_game(3, 4, 1).payoff),
    "nfg233": lambda s: NormalFormGame(tuple(
        10.0**s * u for u in random_nfg((2, 3, 3), 2).payoffs)),
    "nfg343": lambda s: NormalFormGame(tuple(
        10.0**s * u for u in random_nfg((3, 4, 3), 3).payoffs)),
    "kuhn3": lambda s: efg.build_kuhn(2, 3),
}


class TestRunFuzz:
    """Any scale of payoffs and step size, on every algorithm: a run ends
    in a trace whose rows are all finite, in ``NumericalDivergence`` or in
    a set-up ``ValueError`` (game, configuration or auto step size)."""

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value",
                                "ignore:divide by zero", "ignore:underflow")
    @given(algo=st.sampled_from(harness.ALGORITHMS),
           name=st.sampled_from(sorted(set(FUZZ_GAMES) - {"kuhn3"})),
           scale=st.integers(-300, 308),
           eta=st.one_of(st.just("auto"),
                         st.integers(-300, 308).map(lambda e: 10.0**e)),
           alternate=st.booleans(), iters=st.integers(1, 30),
           k_max=st.integers(1, 5))
    @example(algo="conceptual-rm+", name="rps", scale=308, eta=0.1,
             alternate=False, iters=5, k_max=5)
    @settings(max_examples=1000, deadline=None)
    def test_outcome(self, algo, name, scale, eta, alternate, iters, k_max):
        if algo.endswith("cfr"):
            name = "kuhn3"
        config = SolverConfig(
            algorithm=algo, eta=eta, iters=iters, k_max=k_max,
            alternation=alternate and algo not in ("exrm+", "conceptual-rm+"))
        try:
            game = FUZZ_GAMES[name](scale)
            harness.resolve_eta(config, game)
        except ValueError:
            return
        try:
            trace = run(config, game)
        except NumericalDivergence as exc:
            assert 1 <= exc.iteration <= iters
            return
        for column in (trace.regret_max, trace.gap, trace.iter_var):
            assert np.isfinite(column).all()


class TestArgumentErrors:
    @pytest.mark.parametrize("call,message", [
        (lambda: SolverConfig(algorithm="rm++").validate(),
         "unknown algorithm 'rm\\+\\+'"),
        (lambda: SolverConfig(algorithm="rm+", averaging="median").validate(),
         "unknown averaging scheme 'median'"),
        (lambda: SolverConfig(algorithm="rm+", iters=5,
                              report_skip=5).validate(),
         "report_skip must lie in"),
        (lambda: SolverConfig(algorithm="rm+", eta=-1.0).validate(),
         "eta must be 'auto' or a positive real"),
        (lambda: SolverConfig(algorithm="rm+", eta=float("nan")).validate(),
         "eta must be 'auto' or a positive real"),
        (lambda: SolverConfig(algorithm="rm+", eta="fast").validate(),
         "eta must be 'auto' or a positive real"),
        (lambda: SolverConfig(algorithm="rm+", k_max=0).validate(),
         "k_max must be >= 1"),
        (lambda: slope_loglog([1.0, 10.0], [1.0, 0.1], 5.0, 20.0),
         "fewer than 2 rows"),
    ], ids=["algorithm", "averaging", "report-skip", "eta-negative",
            "eta-nan", "eta-word", "k-max", "one-row-window"])
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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
        slope = slope_loglog(trace.t, trace.gap, 300, 3000)
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
        assert trace.averages is not None
        assert trace.gap[-1] < trace.gap[0]
        assert np.all(np.isfinite(trace.gap))
        expl = efg.exploitability(tree, trace.averages)
        assert float(expl.sum()) < 0.05

    def test_clairvoyant_trace_and_header(self):
        tree = efg.build_liars_dice(2, 2)
        config = SolverConfig(algorithm="clairvoyant-cfr", eta=10.0, iters=100)
        trace = run(config, tree)
        assert "eta_contraction" in trace.header
        assert "P" in trace.header
        assert np.all(np.isfinite(trace.gap))

    @staticmethod
    def _leaf_root():
        b = efg.TreeBuilder(2)
        return b.build(b.leaf([1.0, 0.0]))

    @staticmethod
    def _chance_over_leaves():
        b = efg.TreeBuilder(2)
        return b.build(b.chance([0.5, 0.5], [b.leaf([1.0, 0.0]),
                                             b.leaf([0.0, 1.0])]))

    @pytest.mark.parametrize("make", ["_leaf_root", "_chance_over_leaves"])
    @pytest.mark.parametrize("algo", ["predictive-cfr", "clairvoyant-cfr"])
    @pytest.mark.parametrize("alternate", [False, True], ids=["sim", "alt"])
    def test_a_tree_without_decisions_is_rejected(self, make, algo, alternate):
        tree = getattr(self, make)()
        config = SolverConfig(algorithm=algo, iters=3, alternation=alternate)
        with pytest.raises(ValueError, match="has no decision node: no "
                                             "decisions to solve"):
            run(config, tree)


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


# SHA-256 of whole trace CSVs of the normal-form families (T=150, eta
# auto, linear averaging), recorded before the four lifted round bodies
# became one; every refactor must reproduce them byte for byte.
NORMAL_FORM_TRACE_DIGESTS = {
    ("hard3x3", "rm+", False):
        "d1e633924d9dbb69bcd4f4c87b3fa07df3a939047b32813b4a8923e4aa7591d0",
    ("hard3x3", "rm+", True):
        "e36697f7119b6c67dce8c7525f9430cef1346bdbabb9c6b20bbb615d93938ace",
    ("hard3x3", "prm+", False):
        "d2300669cd37b4699685402b3cf0fbcdfa311c9c6358facb11d2ab9767c1b304",
    ("hard3x3", "prm+", True):
        "012439249236d3681672d70e7e9cf484af64ec5dc8ade5fe0be12b4241daa307",
    ("hard3x3", "stable-prm+", False):
        "026576c65f80009b205fd2b7482d593c11e07537ef8826a75c7909c8411320f4",
    ("hard3x3", "stable-prm+", True):
        "bea24b138e3e54ac5b222e1afa3c26d7cbec03a503399a75edfa912ed90fb61a",
    ("hard3x3", "smooth-prm+", False):
        "871ed7e98095087b718a4415936b93f851f0b4a90afee29f81cab590c460a7da",
    ("hard3x3", "smooth-prm+", True):
        "49e460401b84edd886983d7c8e13563890cffdb215881d9ed69b167a0a4453f2",
    ("hard3x3", "exrm+", False):
        "99e9e9e1918a6a8eeb1fe2c21947cf2129e3eefadc4452cba20414eaf333ba3e",
    ("hard3x3", "conceptual-rm+", False):
        "44607becddabd91aeafe61ef2a05d85673a6d5f610b153ad644865d7bc9c74c8",
    ("matrix30x40", "rm+", False):
        "cffff6ec0477f83be9009af36248da6184195ca95de7b941167f279bed587026",
    ("matrix30x40", "rm+", True):
        "f5ab0b7e92a542d6492e749308541bf039286d160125c205b44200dbf9120640",
    ("matrix30x40", "prm+", False):
        "68393eff746a294da5ee6d8ec7b88bde05b200616c3ac26c1ed877e609c46df2",
    ("matrix30x40", "prm+", True):
        "22af0767d890d706a3a30e3e2748dec06673013e1dc917edc4b616105bba053d",
    ("matrix30x40", "stable-prm+", False):
        "33738dc753c02751903919d3ccb271071e9b3b2c97790fe88870795d2ebb6d32",
    ("matrix30x40", "stable-prm+", True):
        "527e65e50bcbeb528c415e77e9d09d8271dadbcdbbd652513f1addbadeec1a1e",
    ("matrix30x40", "smooth-prm+", False):
        "6ec0fd925b3f7fd54a60dababe1f3a2063eb7091843fdec90848a771cee44ab1",
    ("matrix30x40", "smooth-prm+", True):
        "362a6571ae98129f521035e77b434462145b0e1a9d8c9bd076d18d5d2d612ae2",
    ("matrix30x40", "exrm+", False):
        "a0af56b9a2b73b4c0aa7ee27ad285749875d0aefd0468d21761a5c9ec9647989",
    ("matrix30x40", "conceptual-rm+", False):
        "86a569730f8655f4c954bc9eb7e4c74f0bff87b501c02a833b34cbea27b36cf1",
    ("nfg3x3x3", "rm+", False):
        "9872a250ed79759b3e8bf448dc9151abccc7229c4ce1f1ae57565e5dee4f8322",
    ("nfg3x3x3", "rm+", True):
        "25ac6e1b4d7bd55aaab30c72b18022059b0384212e185ed2ca793461515b0a06",
    ("nfg3x3x3", "prm+", False):
        "14ee017c9af3cf9b38676f1aaa3fceace14c925f60f8b5ba36fcb07d9a84d57b",
    ("nfg3x3x3", "prm+", True):
        "96184ffa4882c050c55b3c209a5c7f297ad5e021bf5fd89afec4e6e5a690da49",
    ("nfg3x3x3", "stable-prm+", False):
        "c62d84c4067a77d99915780665aeb5d6854390d2009b2302a37d0836bfc7de1a",
    ("nfg3x3x3", "stable-prm+", True):
        "e04d75cfa15a8877952ec05bb1ef6b826d896457eabb3b757e0c5732b6acd9b0",
    ("nfg3x3x3", "smooth-prm+", False):
        "fb9cfa0643ad0efb1358b3bc528042ebdb5365f65ae00691f214435571ed6a57",
    ("nfg3x3x3", "smooth-prm+", True):
        "293fcd563661ab4bad66be017e0bbd82adc14ee15f91c787adca049788c73cc8",
    ("nfg3x3x3", "exrm+", False):
        "6d2b24a57fd6dcb3d928b6f978ec49446c994a95069570d48624b066f56e9175",
    ("nfg3x3x3", "conceptual-rm+", False):
        "71e8a01f7284e35d6f548e4d3a498af8557aa53e00e5bcb00d600ddb72c937e9",
}


class TestNormalFormTraceDigests:
    GAMES = {"hard3x3": hard_instance,
             "matrix30x40": lambda: random_matrix_game(30, 40, 0),
             "nfg3x3x3": lambda: random_nfg((3, 3, 3), 0)}

    @pytest.mark.parametrize("key", sorted(NORMAL_FORM_TRACE_DIGESTS))
    def test_trace_csv_is_byte_identical(self, key):
        name, algo, alternate = key
        config = SolverConfig(algorithm=algo, eta="auto", iters=150,
                              alternation=alternate)
        buf = io.StringIO()
        run(config, self.GAMES[name]()).write_csv(buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == NORMAL_FORM_TRACE_DIGESTS[key]


# The same for normal-form games of mixed widths, recorded on the
# ``np.tensordot`` gradients and index-array buckets that the contraction
# plans and slice buckets replaced: (2,3,4) has one block per width
# bucket, (3,4,3) a two-block bucket and a one-block one, and (2,2,2,2)
# four players.
MIXED_WIDTH_NFG_TRACE_DIGESTS = {
    ("nfg2x3x4", "rm+", False):
        "38a11cf4bdb676fe76b90e0edd6d4d6297e67f8b95686c9fddbe770e7df29896",
    ("nfg2x3x4", "rm+", True):
        "bf1c8c4c1ff2b9c1719bf58081df9b9a15980719e4e3bc90c9b3cefd714c9f36",
    ("nfg2x3x4", "prm+", False):
        "0fa9384714ce3b1f3d0dbda128933c1a6a6bc1a904b325e8e928e7beac2066d2",
    ("nfg2x3x4", "prm+", True):
        "7c75805db8e3e97669ba04bd9330c34861d94d259656b71c41bff74018bbfba1",
    ("nfg2x3x4", "stable-prm+", False):
        "f8da08c60fa0cef7491e209ef5ea326794e709fa082e72064648265fe3984ad6",
    ("nfg2x3x4", "stable-prm+", True):
        "8d3ad66b9809ac703079ecabf94fb58597838201e9e45c284fd97543f98fc554",
    ("nfg2x3x4", "smooth-prm+", False):
        "7cb11feb513383c5aa9da2a3177745063135cace2be6be1039225852ceb34400",
    ("nfg2x3x4", "smooth-prm+", True):
        "a03f19b22d872bcf7126303258b6af5a02e38633819bfcb222c15738797fea67",
    ("nfg2x3x4", "exrm+", False):
        "49267eefffb009a8c5a6e48fe4aee73d941b694278a4e6e5a87724eb77837c22",
    ("nfg2x3x4", "conceptual-rm+", False):
        "c242e9e07ccfed9ca802a65d9dae269bbe2a3a011802f80fe412baaf4ddd00e5",
    ("nfg3x4x3", "rm+", False):
        "c997e39e6e7c02aa82bc77ce92486743f5d989921c18fd90b0c33c7b69893720",
    ("nfg3x4x3", "rm+", True):
        "8c42be8968b4b59b595636becbfc788319bdd67b97a2a724f0c2746d851b1542",
    ("nfg3x4x3", "prm+", False):
        "345aa65ad0b447d1ef8ce4accf34f2e82f3cbb768429dd913c6aa7332842f2db",
    ("nfg3x4x3", "prm+", True):
        "6d28085cda89b9d3398f8cef4556424e2c378c544152c54ac2513fae14479382",
    ("nfg3x4x3", "stable-prm+", False):
        "c506d9ca9e104f4bc2969bf7a39c2392cfe4c3c034d96d82cf84ac087a483e7a",
    ("nfg3x4x3", "stable-prm+", True):
        "c0e54f6eb489577634688c01b6b04cb1c10185a4cccf678fb489e6ff20afd140",
    ("nfg3x4x3", "smooth-prm+", False):
        "64757ac73c92346c5b2e1872486a92b76cd109acc7f52f4addeaeb8fa21cf90a",
    ("nfg3x4x3", "smooth-prm+", True):
        "a9a0cf077570092645a836d789c1152981b0a271dac6228e927f2d6c2612b881",
    ("nfg3x4x3", "exrm+", False):
        "886d66ff6a6c5b32ed9ba87c9a5bc4df32a374e7d28ab75681ad77f81eeaee1c",
    ("nfg3x4x3", "conceptual-rm+", False):
        "43c5eb3878c8dca3069aace869ab2fe289ebad8893d821049b88654bfe9fcadd",
    ("nfg2x2x2x2", "rm+", False):
        "91990ca9269a6e73cdceb1cdd208e0244bc0831aabb53470a99e2bf2c4a24f71",
    ("nfg2x2x2x2", "rm+", True):
        "412de4e070b77ff94bf6c2a1c16be052e5ba430a4bb5464a983f422d7cb525d5",
    ("nfg2x2x2x2", "prm+", False):
        "686290138d0c0b874d8048df93a4ddafe4e6e60fba64db213fb08ca47cea69f7",
    ("nfg2x2x2x2", "prm+", True):
        "05ed37e1ea0377748db9ee2c30e8175543b4b7d908ecee94cd9798d5ef342eff",
    ("nfg2x2x2x2", "stable-prm+", False):
        "575c7221f470e70e5e8e2dc1370515e7012abf4a461ea9b58b38ba239c3f1fdb",
    ("nfg2x2x2x2", "stable-prm+", True):
        "7f60af0d6d686875b8e32bd4bb78f7ec3713d0db9027d15cb4f9d4949e20d0a8",
    ("nfg2x2x2x2", "smooth-prm+", False):
        "20d8eb7d5095ebbcd587844a4d7ffd06fa34b91a257b432dc1da5bebcfcd6753",
    ("nfg2x2x2x2", "smooth-prm+", True):
        "8e2e9bb16a5dddf64c1e1f6a108a2c7bae0544c5e7619f4392b45a0eeb66ccd8",
    ("nfg2x2x2x2", "exrm+", False):
        "2bfce5fd611c72d5235e3ccc3460531e07ebb7be243db4800352101557e53f6f",
    ("nfg2x2x2x2", "conceptual-rm+", False):
        "825f8d6cb5ee3c5fbbd4366d4806f32b74580a7d52f77fbd55af8e82c353355f",
}


class TestMixedWidthNfgTraceDigests:
    GAMES = {"nfg2x3x4": (2, 3, 4), "nfg3x4x3": (3, 4, 3),
             "nfg2x2x2x2": (2, 2, 2, 2)}

    @pytest.mark.parametrize("key", sorted(MIXED_WIDTH_NFG_TRACE_DIGESTS))
    def test_trace_csv_is_byte_identical(self, key):
        name, algo, alternate = key
        config = SolverConfig(algorithm=algo, eta="auto", iters=150,
                              alternation=alternate)
        buf = io.StringIO()
        run(config, random_nfg(self.GAMES[name], 0)).write_csv(buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == MIXED_WIDTH_NFG_TRACE_DIGESTS[key]
