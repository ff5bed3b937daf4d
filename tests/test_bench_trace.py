"""Guard for the benchmark's traced mode (``perfbench/run.py --trace 1``).

The benchmark's tracer wraps library functions by name and checks fixed
per-round counts.  Running it here makes a refactor that drops or
rebinds a wrapped name fail the test suite, not only a traced benchmark
run.  The tracer file is loaded read-only, by path.
"""

import importlib.util
from pathlib import Path

from regretkit import efg, fixedpoint, games, harness
from regretkit.efg import rounds as efg_rounds
from regretkit.efg import values as efg_values
from regretkit.core import as_flat

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_counts_per_round():
    tracer_mod = _load_tracer()
    # (config, game, count name, expected count per round)
    cells = (
        (harness.SolverConfig(algorithm="smooth-prm+", eta=0.1,
                              alternation=True, iters=7),
         games.hard_instance(), "outer projections", 6),
        (harness.SolverConfig(algorithm="predictive-cfr", iters=4),
         efg.build_kuhn(2, 3), "tree passes", 3),
        (harness.SolverConfig(algorithm="exrm+", eta=0.1, iters=5),
         games.hard_instance(), "operator evaluations", 2),
    )
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    try:
        for index, (config, game, _, _) in enumerate(cells):
            with tracer.span("bench.cell", index):
                harness.run(config, game)
    finally:
        tracer_mod.uninstall(undo)
    counts = tracer_mod.PassSpans(tracer, tracer.arrays()).per_cell_counts(
        len(cells))
    got = [int(counts[what][index])
           for index, (_, _, what, _) in enumerate(cells)]
    assert got == [per_round * config.iters
                   for config, _, _, per_round in cells] == [42, 12, 10]


def test_fixed_point_gradient_calls_and_solves_per_round():
    # the solve hands back F(w) with its plays, so a round evaluates the
    # gradients once per operator call and nowhere else: 2 per exrm+ round
    tracer_mod = _load_tracer()
    cells = (harness.SolverConfig(algorithm="exrm+", eta=0.1, iters=5),
             harness.SolverConfig(algorithm="conceptual-rm+", iters=5))
    metrics = []
    for config in cells:
        tracer = tracer_mod.Tracer()
        undo = tracer_mod.install(tracer)
        try:
            harness.run(config, games.hard_instance())
        finally:
            tracer_mod.uninstall(undo)
        metrics.append(
            tracer_mod.PassSpans(tracer, tracer.arrays()).metrics({}))
    exrm, conceptual = metrics
    assert exrm["games.gradient_calls"] == 2 * 5
    assert exrm["fixedpoint.solves"] == 5
    assert conceptual["fixedpoint.solves"] == 5
    assert (conceptual["games.gradient_calls"]
            == conceptual["fixedpoint.operator_calls"] > 2 * 5)


def test_conceptual_operator_calls_per_inner_iteration():
    # one operator evaluation, and one gradient call, per inner iteration:
    # k for a solve that converged at its k-th iteration, k_max + 1 for
    # one that ran its budget out.  fp_k alone cannot tell a solve that
    # converged at iteration k_max from one that converged at the extra
    # measurement, so the run's solves are replayed for their counts.
    tracer_mod = _load_tracer()
    game = games.hard_instance()
    config = harness.SolverConfig(algorithm="conceptual-rm+", iters=200,
                                  eps_schedule="1e-14", k_max=10)
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    try:
        trace = harness.run(config, game)
    finally:
        tracer_mod.uninstall(undo)
    metrics = tracer_mod.PassSpans(tracer, tracer.arrays()).metrics({})
    eta, _ = harness.resolve_eta(config, game)
    z = as_flat(fixedpoint.initial_lifted_point(game.dims))
    evaluations = []
    for k in trace.fp_k.tolist():
        z, _, _, _, report = fixedpoint._solve(z, game, eta, 1e-14,
                                               config.k_max)
        assert report.iterations == k
        evaluations.append(len(report.history))
    assert min(evaluations) < config.k_max + 1 == max(evaluations)
    assert (metrics["fixedpoint.operator_calls"]
            == metrics["games.gradient_calls"] == sum(evaluations))


# games.gradient_calls per round on the 3x3 game: the lifted round
# evaluates the losses once at the played profile and calls
# gradient_for only for alternating players after the first
LIFTED_GRADIENT_CALLS = (
    ("stable-prm+", False, 1),
    ("smooth-prm+", False, 1),
    ("prm+", False, 1),
    ("stable-prm+", True, 2),
    ("smooth-prm+", True, 2),
    ("rm+", True, 2),
)


def test_lifted_gradient_calls_per_round():
    tracer_mod = _load_tracer()
    iters = 5
    got = []
    for algo, alternate, _ in LIFTED_GRADIENT_CALLS:
        tracer = tracer_mod.Tracer()
        undo = tracer_mod.install(tracer)
        try:
            harness.run(harness.SolverConfig(
                algorithm=algo, eta=0.1, alternation=alternate, iters=iters),
                games.hard_instance())
        finally:
            tracer_mod.uninstall(undo)
        got.append(tracer_mod.PassSpans(tracer, tracer.arrays()).metrics({})[
            "games.gradient_calls"])
    assert got == [per_round * iters
                   for *_, per_round in LIFTED_GRADIENT_CALLS]


# tree passes per round: groups + 2 for predictive CFR and 2 * groups + 2
# for clairvoyant CFR, with one update group (sim) or one per player (alt).
# The tracer sees the full passes (the group pass of a simultaneous round,
# the harness's regret operator and the averager's own reach); an
# alternating group's pass is restricted to its player, outside the
# tracer's names, and is counted here on its own.
PASSES_PER_ROUND = (  # (tree, algorithm, alternate, traced, restricted)
    ("kuhn3", "predictive-cfr", False, 3, 0),
    ("kuhn3", "predictive-cfr", True, 2, 2),
    ("kuhn3", "clairvoyant-cfr", False, 4, 0),
    ("kuhn3", "clairvoyant-cfr", True, 2, 4),
    ("liars3", "predictive-cfr", False, 3, 0),
    ("liars3", "predictive-cfr", True, 2, 3),
    ("liars3", "clairvoyant-cfr", False, 4, 0),
    ("liars3", "clairvoyant-cfr", True, 2, 6),
)


# Profile sweeps (edge probabilities and reach) per round inside the
# rounds, in PASSES_PER_ROUND order: one per group pass, n for predictive
# CFR, but an alternating clairvoyant group's first pass reads the
# previous group's second sweep, n + 1 for clairvoyant CFR.
SWEEPS_PER_ROUND = (1, 2, 2, 3, 1, 3, 2, 4)


def test_tree_passes_per_round_for_every_cfr_variant(monkeypatch):
    tracer_mod = _load_tracer()
    trees = {"kuhn3": efg.build_kuhn(2, 3), "liars3": efg.build_liars_dice(3, 2)}
    iters = 3
    restricted = [0] * len(PASSES_PER_ROUND)
    sweeps = [0] * len(PASSES_PER_ROUND)
    group_regrets, sweep_of = efg_rounds._group_regrets, efg_values._sweep
    in_group = []

    def counted(tree, profile, player, sweep=None):
        restricted[index] += player is not None
        in_group.append(player)
        try:
            return group_regrets(tree, profile, player, sweep)
        finally:
            in_group.pop()

    def counted_sweep(flat, x, in_round=False):
        # the rounds' own sweeps, and those of their group passes
        sweeps[index] += in_round or bool(in_group)
        return sweep_of(flat, x)

    monkeypatch.setattr(efg_rounds, "_group_regrets", counted)
    monkeypatch.setattr(efg_values, "_sweep", counted_sweep)
    monkeypatch.setattr(efg_rounds, "_sweep",
                        lambda flat, x: counted_sweep(flat, x, True))
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    try:
        for index, (tree, algo, alternate, *_) in enumerate(PASSES_PER_ROUND):
            with tracer.span("bench.cell", index):
                harness.run(harness.SolverConfig(
                    algorithm=algo, alternation=alternate, iters=iters),
                    trees[tree])
    finally:
        tracer_mod.uninstall(undo)
    counts = tracer_mod.PassSpans(tracer, tracer.arrays()).per_cell_counts(
        len(PASSES_PER_ROUND))["tree passes"]
    assert counts.tolist() == [traced * iters
                               for *_, traced, _ in PASSES_PER_ROUND]
    assert restricted == [per_round * iters
                          for *_, per_round in PASSES_PER_ROUND]
    assert sweeps == [per_round * iters for per_round in SWEEPS_PER_ROUND]
    groups = {"kuhn3": 2, "liars3": 3}
    for (tree, algo, alternate, traced, player_passes), swept in zip(
            PASSES_PER_ROUND, SWEEPS_PER_ROUND):
        n = groups[tree] if alternate else 1
        assert traced + player_passes == (
            n + 2 if algo == "predictive-cfr" else 2 * n + 2)
        assert swept == (n if algo == "predictive-cfr" else n + 1)


def test_uninstall_restores_the_library():
    tracer_mod = _load_tracer()
    before = harness.run
    undo = tracer_mod.install(tracer_mod.Tracer())
    assert harness.run is not before
    tracer_mod.uninstall(undo)
    assert harness.run is before
