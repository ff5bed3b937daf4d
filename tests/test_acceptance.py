"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The slow-rate reproduction (criterion 2) runs two
million-round trajectories and takes a few minutes; everything else is
seconds.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from regretkit import efg
from regretkit.core import (
    AggregateState,
    lifted_regret_equivalence,
    normalize,
    prm_plus_step,
    replay_exact,
    rm_plus_step,
)
from regretkit.fixedpoint import (
    conceptual_round,
    initial_lifted_point,
    lipschitz_bound,
    operator_F,
)
from regretkit.games import (
    hard_instance,
    instability_losses,
    random_matrix_game,
    random_nfg,
)
from regretkit.harness import SolverConfig, run, slope_loglog
from regretkit.stabilized import (
    project_chopped,
    smooth_initial_state,
    smooth_prmp_round,
    stable_initial_state,
    stable_prmp_round,
)

from .oracles import enumerate_project_chopped

# 2-3 player certificate games, action counts <= 4, chosen with
# sum(d_i) <= (max_i d_i)^2 so the normal-form Lipschitz formula applies
CERTIFICATE_DIMS = [(3, 4), (4, 4), (2, 4), (3, 3), (4, 2),
                    (3, 3, 3), (2, 3, 4), (4, 4, 4), (3, 4, 4), (2, 3, 3)]


def _certificate_games():
    for k in range(20):
        dims = CERTIFICATE_DIMS[k % len(CERTIFICATE_DIMS)]
        yield dims, random_nfg(dims, 100 + k)


def _passed(label: str) -> None:
    print(f"[PASS] {label}")


def test_criterion_1_exact_instability():
    """Replaying the adversarial sequences oscillates exactly (T = 40)."""
    start = time.perf_counter()
    half = Fraction(1, 2)
    for variant in ("rm+", "prm+"):
        for scaled in (False, True):
            seq = instability_losses(40, variant, scaled=scaled)
            played = replay_exact(seq.fractions(), variant)
            for t, x in enumerate(played, start=1):
                expected = ((half, half) if t % 2 == 1
                            else (Fraction(0), Fraction(1)))
                assert x == expected, f"{variant} rational replay at t={t}"
            state = AggregateState.initial(2)
            step = rm_plus_step if variant == "rm+" else prm_plus_step
            for t in range(1, 41):
                state, x = step(state, seq.losses[t - 1])
                target = ([0.5, 0.5] if t % 2 == 1 else [0.0, 1.0])
                assert np.max(np.abs(x - np.array(target))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"instability replay took {elapsed:.2f}s"
    _passed(f"criterion 1: exact instability, both variants, T=40 "
            f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_slow_rate_reproduction():
    """(P)RM+ on the hard 3x3 slows to ~T^-0.5 (slope in [-0.60, -0.40])."""
    game = hard_instance()
    slopes = {}
    for algo, alternation in (("rm+", True), ("prm+", False)):
        config = SolverConfig(algorithm=algo, eta="auto", averaging="linear",
                              alternation=alternation, iters=10**6)
        trace = run(config, game)
        slopes[algo] = slope_loglog(trace.t, trace.gap, 10**5, 10**6)
    for algo, slope in slopes.items():
        assert -0.60 <= slope <= -0.40, f"{algo} slope {slope:.4f}"
    _passed("criterion 2: slow-rate reproduction, slopes "
            f"rm+={slopes['rm+']:.3f}, prm+={slopes['prm+']:.3f} "
            "within [-0.60, -0.40]")


def test_criterion_3_stabilized_fast_rate():
    """ExRM+/Stable/Smooth reach gap <= 1e-6 by T=1e5 with slope <= -1.5."""
    game = hard_instance()
    results = {}
    for algo, alternation in (("exrm+", False), ("stable-prm+", True),
                              ("smooth-prm+", True)):
        config = SolverConfig(algorithm=algo, eta=0.1, averaging="linear",
                              alternation=alternation, iters=10**5)
        trace = run(config, game)
        slope = slope_loglog(trace.t, trace.gap, 10**4, 10**5)
        results[algo] = (trace.gap[-1], slope)
        assert trace.gap[-1] <= 1e-6, f"{algo} final gap {trace.gap[-1]:.2e}"
        assert slope <= -1.5, f"{algo} slope {slope:.3f}"
    summary = ", ".join(f"{a}: gap={g:.1e}, slope={s:.2f}"
                        for a, (g, s) in results.items())
    _passed(f"criterion 3: stabilized fast rate ({summary})")


def test_criterion_4_random_game_ordering():
    """Median final gaps of the stabilized family beat RM+ on 30x40 games."""
    algorithms = ("rm+", "exrm+", "stable-prm+", "smooth-prm+")
    finals = {algo: [] for algo in algorithms}
    for seed in range(10):
        game = random_matrix_game(30, 40, seed)
        for algo in algorithms:
            config = SolverConfig(algorithm=algo, eta=0.1, averaging="linear",
                                  alternation=(algo != "exrm+"), iters=10**4)
            finals[algo].append(run(config, game).gap[-1])
    medians = {algo: float(np.median(vals)) for algo, vals in finals.items()}
    for algo in ("exrm+", "stable-prm+", "smooth-prm+"):
        assert medians[algo] < medians["rm+"], (
            f"{algo} median {medians[algo]:.2e} not below "
            f"rm+ {medians['rm+']:.2e}")
    _passed("criterion 4: random-game ordering, medians "
            + ", ".join(f"{a}={m:.1e}" for a, m in medians.items()))


def test_criterion_5_conceptual_regret_certificate():
    """Conceptual RM+ with (near-)exact fixed points meets the constant
    per-player regret bound on 20 random 2-3 player games."""
    worst = -np.inf
    for dims, game in _certificate_games():
        eta = 1.0 / (2.0 * lipschitz_bound(game))
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        cum = [np.zeros(d) for d in game.dims]
        for _ in range(1000):
            z, w, report = conceptual_round(z, game, eta, 1e-14, 300)
            plays = [normalize(b) for b in w]
            losses = game.gradients(plays)
            for i in range(len(dims)):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
        for i, d in enumerate(game.dims):
            best = int(np.argmax(cum[i]))
            comparator = np.zeros(d)
            comparator[best] = 1.0
            bound = float(np.sum((z0[i] - comparator) ** 2)) / (2.0 * eta)
            worst = max(worst, cum[i][best] - bound)
            assert cum[i][best] <= bound + 1e-9
    _passed(f"criterion 5: conceptual regret certificate, worst slack "
            f"{worst:.2e} <= 1e-9")


def test_criterion_6_exrm_social_regret_certificate():
    """ExRM+ social regret stays below its constant bound at every round."""
    worst = -np.inf
    for dims, game in _certificate_games():
        eta = 1.0 / (np.sqrt(2.0) * lipschitz_bound(game))
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        cum = [np.zeros(d) for d in game.dims]
        for _ in range(1000):
            # ExRM+: the conceptual round cut to one inner iteration
            z, w, _ = conceptual_round(z, game, eta, -1.0, 1)
            plays = [normalize(b) for b in w]
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
            worst = max(worst, social - bound)
            assert social <= bound + 1e-9
    _passed(f"criterion 6: extragradient social regret certificate, worst "
            f"slack {worst:.2e} <= 1e-9")


def test_criterion_7_epsilon_schedule():
    """With eps = 1/t^2 the inner loop stays within its logarithmic budget
    and the epsilon-augmented regret bound holds."""
    slope_budget = None
    for dims, seed in (((3, 4), 7), ((2, 3, 3), 8)):
        game = random_nfg(dims, seed)
        lf = lipschitz_bound(game)
        eta = 1.0 / (2.0 * lf)
        contraction = eta * lf  # 1/2
        b_u, _ = game.constants
        z0 = initial_lifted_point(game.dims)
        z = [b.copy() for b in z0]
        cum = [np.zeros(d) for d in game.dims]
        eps_total = 0.0
        counts, first_residuals = [], []
        for t in range(1, 1001):
            eps = 1.0 / t**2
            z, w, report = conceptual_round(z, game, eta, eps, 300)
            plays = [normalize(b) for b in w]
            assert report.converged and report.residual <= eps
            counts.append(report.iterations)
            first_residuals.append(report.history[0])
            eps_total += eps
            losses = game.gradients(plays)
            for i in range(len(dims)):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
        counts = np.array(counts)
        ts = np.arange(1, 1001)
        # geometric envelope: k never exceeds the contraction budget from
        # the measured starting residual down to 1/t^2
        c0 = max(max(first_residuals), 1e-300)
        budget = np.ceil((np.log(c0) + 2.0 * np.log(ts))
                         / np.log(1.0 / contraction)) + 1.0
        assert np.all(counts <= np.maximum(budget, 1.0))
        # fitted slope of k against log t stays within the contraction rate
        design = np.vstack([np.ones(ts.size), np.log(ts)]).T
        coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
        slope_budget = 2.0 / np.log(1.0 / contraction)
        assert coef[1] <= slope_budget + 1e-9
        # epsilon-augmented regret bound
        for i, d in enumerate(game.dims):
            best = int(np.argmax(cum[i]))
            comparator = np.zeros(d)
            comparator[best] = 1.0
            bound = (float(np.sum((z0[i] - comparator) ** 2)) / (2.0 * eta)
                     + 2.0 * b_u * np.sqrt(d) * eps_total)
            assert cum[i][best] <= bound + 1e-9
    _passed("criterion 7: 1/t^2 schedule, k within the log budget "
            f"(fitted slope cap {slope_budget:.2f}) and augmented bound")


def test_criterion_8_lipschitz_suites():
    """Normalization, operator and counterfactual Lipschitz certificates:
    zero violations beyond 1e-9 slack."""
    rng = np.random.default_rng(2024)
    # normalization: 1e4 pairs per dimension, x with unit-or-more mass
    for d in range(2, 11):
        x = rng.uniform(0.0, 2.0, size=(10**4, d))
        mass = x.sum(axis=1, keepdims=True)
        x = np.where(mass >= 1.0, x, x / mass)
        y = rng.uniform(0.0, 2.0, size=(10**4, d))
        gx = x / x.sum(axis=1, keepdims=True)
        ysum = y.sum(axis=1, keepdims=True)
        gy = np.where(ysum > 0, y / np.where(ysum > 0, ysum, 1.0), 1.0 / d)
        lhs = np.linalg.norm(gy - gx, axis=1)
        rhs = np.sqrt(d) * np.linalg.norm(y - x, axis=1)
        assert np.all(lhs <= rhs + 1e-12)

    def joint_diff(a, b):
        return np.sqrt(sum(float(np.sum((u - v) ** 2))
                           for u, v in zip(a, b)))

    def feasible(dims):
        blocks = [np.abs(rng.normal(size=d)) + 0.3 for d in dims]
        return [b if b.sum() >= 1.0 else b / b.sum() for b in blocks]

    # matrix-game operator (spectral-norm formula)
    for seed in (0, 1):
        game = random_matrix_game(4, 5, seed)
        bound = lipschitz_bound(game)
        for _ in range(500):
            z1, z2 = feasible(game.dims), feasible(game.dims)
            lhs = joint_diff(operator_F(z1, game), operator_F(z2, game))
            assert lhs <= bound * joint_diff(z1, z2) + 1e-9

    # normal-form operator (B_u/L_u formula)
    for dims, seed in (((3, 4), 2), ((2, 3, 4), 3)):
        game = random_nfg(dims, seed)
        bound = lipschitz_bound(game)
        for _ in range(500):
            z1, z2 = feasible(game.dims), feasible(game.dims)
            lhs = joint_diff(operator_F(z1, game), operator_F(z2, game))
            assert lhs <= bound * joint_diff(z1, z2) + 1e-9

    # counterfactual operator in behavioral and lifted space
    for tree in (efg.build_kuhn(2, 3), efg.build_liars_dice(2, 2)):
        h_bound = efg.counterfactual_lipschitz(tree)
        g_bound = max(np.sqrt(j.num_actions) for j in tree.infosets)
        lifted_bound = efg.lifted_lipschitz(tree)
        for _ in range(1000):
            x1 = [rng.dirichlet(np.ones(j.num_actions))
                  for j in tree.infosets]
            x2 = [rng.dirichlet(np.ones(j.num_actions))
                  for j in tree.infosets]
            lhs = efg.behavioral_distance(
                efg.counterfactual_regret_operator(tree, x1),
                efg.counterfactual_regret_operator(tree, x2))
            assert lhs <= h_bound * efg.behavioral_distance(x1, x2) + 1e-9
            z1 = [np.abs(rng.normal(size=j.num_actions)) + 1.0
                  for j in tree.infosets]
            z2 = [np.abs(rng.normal(size=j.num_actions)) + 1.0
                  for j in tree.infosets]
            n1 = [normalize(block) for block in z1]
            n2 = [normalize(block) for block in z2]
            lhs = efg.behavioral_distance(n1, n2)
            assert lhs <= g_bound * efg.behavioral_distance(z1, z2) + 1e-9
            lhs = efg.behavioral_distance(
                efg.counterfactual_regret_operator(tree, n1),
                efg.counterfactual_regret_operator(tree, n2))
            assert lhs <= lifted_bound * efg.behavioral_distance(z1, z2) + 1e-9
    _passed("criterion 8: all Lipschitz suites clean at 1e-9 slack")


def test_criterion_9_projection_oracle_equivalence():
    """Chopped projection matches active-set enumeration for d <= 6."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(10**4):
        d = 2 + trial % 5
        y = rng.uniform(-2.5, 2.5, d)
        fast = project_chopped(y)
        slow = enumerate_project_chopped(y)
        worst = max(worst, float(np.linalg.norm(fast - slow)))
        assert worst <= 1e-9
    _passed(f"criterion 9: projection oracle equivalence, worst distance "
            f"{worst:.2e} over 1e4 inputs")


def test_criterion_10_lifted_regret_equality():
    """Strategy-space and lifted regrets agree on every stored trace."""
    games = {"hard3x3": hard_instance(), "nfg(3,3)": random_nfg((3, 3), 40)}
    checked = 0
    for name, game in games.items():
        for algo in ("rm+", "prm+", "stable-prm+", "smooth-prm+",
                     "conceptual-rm+", "exrm+"):
            config = SolverConfig(algorithm=algo, eta=0.1, iters=100,
                                  store_full=True)
            trace = run(config, game)
            for i in range(len(game.dims)):
                comparators = [np.full(game.dims[i], 1.0 / game.dims[i])]
                best = np.zeros(game.dims[i])
                best[int(np.argmax(trace.ledgers[i]))] = 1.0
                comparators.append(best)
                for comparator in comparators:
                    plain, lifted = lifted_regret_equivalence(
                        trace.strategies[i], trace.losses[i],
                        trace.lifted[i], comparator)
                    assert plain == pytest.approx(
                        lifted, abs=1e-9 * config.iters), (name, algo)
                    checked += 1
    _passed(f"criterion 10: lifted regret equality on {checked} "
            "(trace, comparator) pairs")


def test_criterion_11_efg_sanity():
    """Kuhn: predictive CFR converges, the CFR decomposition bound holds,
    clairvoyant CFR yields valid shrinking CCE-gap series."""
    tree = efg.build_kuhn(2, 3)
    state = AggregateState.initial(tree.behavioral_dim)
    averager = efg.BehavioralAverager(tree, "linear")
    cum_h = [np.zeros(j.num_actions) for j in tree.infosets]
    cum_weights = [np.zeros(len(tree.nodes)) for _ in range(2)]
    cum_value = np.zeros(2)
    exploitability_final = None
    for t in range(1, 10**4 + 1):
        state, played = efg.predictive_cfr_round(state, tree, alternate=True)
        averager.observe(played)
        h = efg.counterfactual_regret_operator(tree, played, validate=False)
        for j, hj in enumerate(h):
            cum_h[j] += hj
        for i in range(2):
            cum_weights[i] += efg.leaf_excl_weights(tree, played, i)
        cum_value += efg.expected_values(tree, played, validate=False)
        if t % 500 == 0:
            for i in range(2):
                seq_regret = (efg.best_response_value(tree, i, cum_weights[i])
                              - cum_value[i])
                bound = sum(max(float(cum_h[j].max()), 0.0)
                            for j in tree.infosets_of(i))
                assert seq_regret <= bound + 1e-9, f"decomposition at t={t}"
    exploitability_final = efg.exploitability(tree, averager.average())
    assert float(exploitability_final.sum()) <= 1e-3

    gaps_at = {}
    for eta in (1.0, 10.0, 20.0):
        st = np.concatenate(initial_lifted_point(tree.compiled.layout.widths))
        cum = [np.zeros(j.num_actions) for j in tree.infosets]
        series = []
        for t in range(1, 2001):
            st, played = efg.clairvoyant_cfr_round(st, tree, eta)
            h = efg.counterfactual_regret_operator(tree, played,
                                                   validate=False)
            for j, hj in enumerate(h):
                cum[j] += hj
            per_player = [sum(max(float(cum[j].max()), 0.0)
                              for j in tree.infosets_of(i)) for i in range(2)]
            series.append(max(per_player) / t)
        series = np.array(series)
        assert np.all(np.isfinite(series)) and np.all(series >= 0.0)
        running_min = np.minimum.accumulate(series)
        assert np.all(np.diff(running_min) <= 0.0)
        assert running_min[-1] < running_min[99]  # makes real progress
        gaps_at[eta] = running_min[-1]
    _passed("criterion 11: EFG sanity, exploitability "
            f"{float(exploitability_final.sum()):.1e} <= 1e-3; clairvoyant "
            "CCE gaps " + ", ".join(f"eta={e:g}: {g:.1e}"
                                    for e, g in gaps_at.items()))


def test_criterion_12_finite_horizon_stabilized_certificates():
    """The asymptotic theorems, checked as finite-horizon inequalities."""
    # restarting algorithm: individual regret <= 200 d^{3/2} T^{1/4}
    # at eta = (d^2 T)^{-1/4}, R0 = 1
    for dims, seed in (((3, 4), 11), ((2, 3, 3), 12)):
        game = random_nfg(dims, seed)
        d_total = sum(dims)
        horizon = 10**4
        eta = (d_total**2 * horizon) ** -0.25
        floors = [1.0] * len(dims)
        state = stable_initial_state(game.dims, floors)
        cum = [np.zeros(d) for d in game.dims]
        for _ in range(horizon):
            state, plays = stable_prmp_round(state, game, eta, floors)
            losses = game.gradients(plays)
            for i in range(len(dims)):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
        bound = 200.0 * d_total**1.5 * horizon**0.25
        for i in range(len(dims)):
            assert max(cum[i].max(), 0.0) <= bound

    # chopped algorithm: social regret bounded and non-trending over 1e5
    summaries = []
    for dims, seed in (((3, 4), 21), ((2, 2, 3), 22)):
        game = random_nfg(dims, seed)
        n = len(dims)
        d_max = max(dims)
        eta = 1.0 / (2.0 * np.sqrt(2.0) * (n - 1) * d_max**1.5)
        state = smooth_initial_state(game.dims)
        w0 = [w.copy() for w in state.w]
        cum = [np.zeros(d) for d in game.dims]
        series = []
        horizon = 10**5
        for t in range(1, horizon + 1):
            state, plays = smooth_prmp_round(state, game, eta)
            losses = game.gradients(plays)
            for i in range(n):
                cum[i] += np.dot(plays[i], losses[i]) - losses[i]
            if t % 1000 == 0:
                series.append(sum(max(c.max(), 0.0) for c in cum))
        series = np.array(series)
        comparators = [np.eye(d)[int(np.argmax(c))]
                       for d, c in zip(game.dims, cum)]
        w_dist = max(float(np.sum((w0[i] - comparators[i]) ** 2))
                     for i in range(n))
        bound = 200.0 * n**2 * d_max**1.5 * w_dist
        assert series.max() <= bound
        # no growth trend: the late half never exceeds the early peak
        assert series[50:].max() <= series[:50].max() + 1e-9
        summaries.append(f"{dims}: social max {series.max():.1f} "
                         f"<= {bound:.0f}")
    _passed("criterion 12: finite-horizon stabilized certificates ("
            + "; ".join(summaries) + ")")
