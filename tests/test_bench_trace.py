"""Guard for the benchmark's traced mode (``perfbench/run.py --trace 1``).

The benchmark's tracer wraps library functions by name and checks fixed
per-round counts.  Running it here makes a refactor that drops or
rebinds a wrapped name fail the test suite, not only a traced benchmark
run.  The tracer file is loaded read-only, by path.
"""

import importlib.util
from pathlib import Path

from regretkit import efg, games, harness

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


def test_uninstall_restores_the_library():
    tracer_mod = _load_tracer()
    before = harness.run
    undo = tracer_mod.install(tracer_mod.Tracer())
    assert harness.run is not before
    tracer_mod.uninstall(undo)
    assert harness.run is before
