"""The benchmark's workloads and the pass that runs one of them.

A *pass* is one closed-loop execution of a workload: build its games and
resolve their cached constants (set-up), then solve its cells one at a
time through ``regretkit.harness.run``, writing each trace with
``RunTrace.write_csv`` before the next cell starts.  Horizons are fixed
here and must stay identical on every commit, so that numbers from two
commits compare.

Why these workloads:

* ``hard3x3-paper``: the paper's six matrix algorithms on the 3x3 hard
  instance.  At d = 3 a round is almost all interpreter overhead in
  ``stabilized``, ``fixedpoint``, ``core`` and the harness recorder;
  ``games`` does one tiny matmul and ``efg`` nothing.
* ``sweep-random``: a sweep-shaped grid of short runs on seeded random
  30x40 matrix games and 5x5x5 normal-form games.  It loads ``games``
  (generation, NFG constants, tensordot gradients) and ``write_csv`` on
  many files.  The benchmark seed selects the instance seeds.
* ``efg-cfr``: predictive and clairvoyant CFR on Kuhn poker and
  three-player Liar's dice, where the recursive tree pass dominates and
  ``fixedpoint`` and the matrix-game solvers are idle.

A shared host runs the same code up to 1.6x slower for tens of seconds
at a time, longer than a run.  So a pass also times a fixed probe of the
benchmark's own (``probe``) before set-up and after every cell.  The mean
of the probes on either side of a timed step, over ``PROBE_REF_S``, is
that step's *slowdown*: how much slower than the reference the host ran
while the step ran.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from regretkit import efg, fixedpoint, games, harness

HARD_T = 3000
SWEEP_SEEDS = 8
SWEEP_T = 400
KUHN_T = 200
LIARS_T = 40

# the probe's median time on the host the benchmark was defined on, a
# 2-vCPU x86-64 virtual machine at 2.1 GHz (Python 3.11, numpy 2.4)
PROBE_REF_S = 0.013
PROBE_CHUNKS = 5
PROBE_ROUNDS = 600  # per chunk


def probe() -> float:
    """Time a fixed piece of work made of what a round of the library is
    made of (interpreter steps, dict updates and numpy calls on tiny
    arrays); it calls nothing of the library.  Returns the median chunk's
    seconds times the number of chunks: a burst of noise shorter than a
    chunk moves one chunk, not the result."""
    x = np.arange(3.0)
    seen: dict[int, int] = {}
    total = 0.0
    chunks = []
    for _ in range(PROBE_CHUNKS):
        t0 = time.perf_counter()
        for i in range(PROBE_ROUNDS):
            seen[i & 63] = i
            y = np.maximum(x - 1.0, 0.0)
            total += float(y.sum()) + len(seen)
        chunks.append(time.perf_counter() - t0)
    return PROBE_CHUNKS * sorted(chunks)[PROBE_CHUNKS // 2]


def slowdown(before: float, after: float) -> float:
    """The host's slowdown over a step, from the probes either side of it."""
    return (before + after) / (2.0 * PROBE_REF_S)


@dataclass(frozen=True)
class Cell:
    name: str  # CSV file stem and digest key
    game: str  # key into the games built by set-up
    config: dict  # keyword arguments of harness.SolverConfig

    @property
    def iters(self) -> int:
        return self.config["iters"]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]  # seed -> freshly built games
    cells: Callable[[int], list[Cell]]
    seed_dependent: bool  # whether the seed changes the generated games


def _resolve_constants(game) -> None:
    # module attributes, so that the tracer's wrappers are the ones called
    game.constants
    fixedpoint.lipschitz_bound(game)


def _hard_setup(seed: int) -> dict:
    game = games.hard_instance()
    _resolve_constants(game)
    return {"hard3x3": game}


def _hard_cells(seed: int) -> list[Cell]:
    # the acceptance suite's settings for these six algorithms
    settings = (
        ("rm+", True, "auto"),
        ("prm+", False, "auto"),
        ("stable-prm+", True, 0.1),
        ("smooth-prm+", True, 0.1),
        ("exrm+", False, 0.1),
        ("conceptual-rm+", False, "auto"),
    )
    return [
        Cell(f"hard3x3_{algo.replace('+', 'p')}", "hard3x3",
             dict(algorithm=algo, eta=eta, alternation=alt, iters=HARD_T))
        for algo, alt, eta in settings
    ]


def _sweep_seeds(seed: int) -> list[int]:
    return [seed * SWEEP_SEEDS + k for k in range(SWEEP_SEEDS)]


def _sweep_setup(seed: int) -> dict:
    built = {}
    for s in _sweep_seeds(seed):
        matrix = games.random_matrix_game(30, 40, s)
        nfg = games.random_nfg((5, 5, 5), s)
        _resolve_constants(matrix)
        _resolve_constants(nfg)
        built[f"matrix{s}"] = matrix
        built[f"nfg{s}"] = nfg
    return built


def _sweep_cells(seed: int) -> list[Cell]:
    cells = []
    for s in _sweep_seeds(seed):
        for kind, algos in (("matrix", ("smooth-prm+", "exrm+")),
                            ("nfg", ("smooth-prm+", "exrm+", "stable-prm+"))):
            for algo in algos:
                cells.append(Cell(
                    f"{kind}_{algo.replace('+', 'p')}_eta0.1_seed{s}", f"{kind}{s}",
                    dict(algorithm=algo, eta=0.1, alternation=algo != "exrm+",
                         iters=SWEEP_T, seed=s)))
    return cells


def _efg_setup(seed: int) -> dict:
    return {"kuhn3": efg.build_kuhn(2, 3), "liars3": efg.build_liars_dice(3, 2)}


def _efg_cells(seed: int) -> list[Cell]:
    cells = []
    for tree, iters in (("kuhn3", KUHN_T), ("liars3", LIARS_T)):
        for algo in ("predictive-cfr", "clairvoyant-cfr"):
            for alt in (False, True):
                mode = "alt" if alt else "sim"
                cells.append(Cell(f"{tree}_{algo}_{mode}", tree,
                                  dict(algorithm=algo, eta="auto",
                                       alternation=alt, iters=iters)))
    return cells


WORKLOADS = {
    "hard3x3-paper": Workload("hard3x3-paper", _hard_setup, _hard_cells, False),
    "sweep-random": Workload("sweep-random", _sweep_setup, _sweep_cells, True),
    "efg-cfr": Workload("efg-cfr", _efg_setup, _efg_cells, False),
}


def tree_sizes() -> dict[str, int]:
    """Node count of each tree whose per-pass cost the traced run reports;
    tree passes are told apart by the size of the tree they walk.  The
    trees do not depend on the seed."""
    return {name: len(tree.nodes) for name, tree in _efg_setup(0).items()}


@dataclass
class CellResult:
    name: str
    iters: int
    error: str | None = None
    run_s: float = 0.0  # inside harness.run
    write_s: float = 0.0  # inside RunTrace.write_csv
    cell_s: float = 0.0  # from the call to run to the closed CSV file
    slowdown: float = 1.0  # of the host while the cell ran, see ``probe``
    digest: str = ""
    csv_bytes: int = 0
    rows: int = 0
    gaps_ok: bool = False
    restarts: int = 0
    fp_rounds: int = 0  # conceptual rounds
    fp_k_sum: int = 0
    fp_converged: int = 0  # conceptual rounds with fp_k < k_max


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    setup_slowdown: float
    cells: list[CellResult] = field(default_factory=list)

    def exact_counts(self) -> dict:
        """Counts that every pass of one workload and seed must repeat."""
        fp_rounds = sum(c.fp_rounds for c in self.cells)
        return {
            "stabilized.restarts": sum(c.restarts for c in self.cells),
            "fixedpoint.k_mean": (sum(c.fp_k_sum for c in self.cells) / fp_rounds
                                  if fp_rounds else 0.0),
            "fixedpoint.converged_ratio": (
                sum(c.fp_converged for c in self.cells) / fp_rounds
                if fp_rounds else 0.0),
            "harness.rows": sum(c.rows for c in self.cells),
            "harness.csv_bytes": sum(c.csv_bytes for c in self.cells),
        }


def run_pass(workload: Workload, seed: int, outdir: Path, tracer=None) -> PassResult:
    """Run every cell of the workload once; traces go to ``outdir``.

    With a tracer, set-up and each cell are wrapped in benchmark spans
    (``bench.setup``, ``bench.cell`` carrying the cell's index).
    """
    span = tracer.span if tracer is not None else _untraced
    cells = workload.cells(seed)
    outcomes: list[tuple[Cell, object, tuple]] = []
    probes = [probe()]
    start = time.perf_counter()
    with span("bench.setup"):
        built = workload.setup(seed)
    setup_s = time.perf_counter() - start
    probes.append(probe())
    for index, cell in enumerate(cells):
        config = harness.SolverConfig(**cell.config)
        path = outdir / f"{cell.name}.csv"
        try:
            with span("bench.cell", index):
                t0 = time.perf_counter()
                trace = harness.run(config, built[cell.game])
                t1 = time.perf_counter()
                with open(path, "w", encoding="utf-8") as fh:
                    w0 = time.perf_counter()
                    trace.write_csv(fh)
                    w1 = time.perf_counter()
                t2 = time.perf_counter()
        except Exception as exc:  # a failing cell is counted; the pass goes on
            traceback.print_exc(file=sys.stderr)
            outcomes.append((cell, f"{type(exc).__name__}: {exc}", ()))
        else:
            outcomes.append((cell, trace, (t1 - t0, w1 - w0, t2 - t0)))
        probes.append(probe())
    wall_s = time.perf_counter() - start

    # checking happens after the clock stops
    slowdowns = [slowdown(a, b) for a, b in zip(probes, probes[1:])]
    result = PassResult(wall_s, setup_s, slowdowns[0])
    for (cell, outcome, times), factor in zip(outcomes, slowdowns[1:]):
        if isinstance(outcome, str):
            result.cells.append(CellResult(cell.name, cell.iters, error=outcome))
            continue
        checked = _check_cell(cell, outcome, outdir / f"{cell.name}.csv")
        checked.run_s, checked.write_s, checked.cell_s = times
        checked.slowdown = factor
        result.cells.append(checked)
    return result


def _check_cell(cell: Cell, trace, path: Path) -> CellResult:
    data = path.read_bytes()
    gap = trace.gap
    out = CellResult(
        cell.name,
        cell.iters,
        digest=hashlib.sha256(data).hexdigest(),
        csv_bytes=len(data),
        rows=int(trace.t.size * trace.num_players),
        gaps_ok=bool(np.all(np.isfinite(gap)) and np.all(gap >= 0.0)),
        restarts=len(trace.restart_events),
    )
    if cell.config["algorithm"] == "conceptual-rm+":
        k = trace.fp_k[~np.isnan(trace.fp_k)].astype(np.int64)
        k_max = cell.config.get("k_max", harness.SolverConfig.k_max)
        out.fp_rounds = int(k.size)
        out.fp_k_sum = int(k.sum())
        out.fp_converged = int(np.count_nonzero(k < k_max))
    return out


def _untraced(name, attr=0):
    return contextlib.nullcontext()
