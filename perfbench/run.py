"""regretkit benchmark: run one workload, timed or traced.

Run from the repository root, for one workload or for all three:

    python3 perfbench/run.py --workload hard3x3-paper --seed 0 --seconds 40 --trace 0
    for w in hard3x3-paper sweep-random efg-cfr; do
        python3 perfbench/run.py --workload $w --seconds 40; done

The library is imported from ``src/`` of the checkout the script sits in;
nothing is installed.  All load comes from this one process, with the
BLAS thread pools pinned to one thread.  The workload (see
``workloads.py``) is repeated in closed-loop passes until ``--seconds``
would be exceeded, with at least three passes (two untraced and two
traced ones with ``--trace 1``).  A timing is the median over passes of
each cell's scaled time, summed over the workload's cells.

Scaled times.  The shared host this benchmark was defined on runs the
same code up to 1.6x slower in phases of tens of seconds, longer than a
run, so raw medians of two runs of the same code differed by up to 27%.
Each timed step is therefore divided by the host's slowdown while it
ran, read from a fixed probe timed on either side of it (see
``workloads.probe``): a timing is in seconds of the reference host.  The
probe calls nothing of the library, so a change to the library moves
scaled times as it moves raw ones.  The readable table also gives the
raw timings and the median slowdown.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: one pass, from building its games to writing its last trace
  (``setup_s`` plus, per cell, from the call to ``run`` to the closed CSV;
  the probes are not counted);
* ``setup_s``: building the workload's games and resolving their cached
  constants; the median of several set-ups before every pass;
* ``rounds_per_s``: solver rounds of a pass over its time inside
  ``harness.run``;
* ``write_s``: time inside ``RunTrace.write_csv``, writing to a file;
* ``peak_rss_mb``: the peak resident memory of this process.

The failed share of cells (``failed`` / ``attempted`` of the result line)
is printed as ``failed_frac``.  ``--trace 1`` alternates untraced passes
with passes under the span tracer (``tracer.py``) and reports the
per-layer metrics, each a median over traced passes (their timings are
raw, not scaled), plus ``trace.overhead_frac`` (from scaled wall times
of both kinds of pass); the spans of the last traced pass are written to
``.bench_build/perfbench/spans-<workload>.npz``.

Correctness: every trace CSV is hashed.  Cells whose games do not depend
on the seed, and every cell at the default seed, must match the digests in
``digests.json`` (``record_digests.py`` writes them).  Every cell must hash
the same in every pass, traced or not, and have finite, nonnegative gaps.
Exact counts must repeat from pass to pass, and the traced counts must
match the code (6 outer projections per alternating smooth-prm+ round on
the 3x3 game, 3 tree passes per simultaneous predictive-cfr round, 2
operator evaluations per exrm+ round).  A cell that raises or fails a
check counts as failed; any failed check makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give machine facts, the seed and a readable table.
"""

import os

# before numpy is first imported: one BLAS thread, so that two cores do
# not measure the scheduler
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 0
MIN_PASSES = 3
# extra set-ups timed before each untraced pass, on top of the pass's own:
# at least SETUP_REPS of them and SETUP_SLICE_S seconds' worth.  Spread
# over the run, they see the same host as the passes do.
SETUP_REPS = 3
SETUP_SLICE_S = 0.1
WORKLOAD_NAMES = ("hard3x3-paper", "sweep-random", "efg-cfr")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "write_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.steps": "count",
    "core.self_s": "s",
    "stabilized.rounds": "count",
    "stabilized.projections": "count",
    "stabilized.self_s": "s",
    "stabilized.restarts": "count",
    "fixedpoint.solves": "count",
    "fixedpoint.operator_calls": "count",
    "fixedpoint.k_mean": "count",
    "fixedpoint.converged_ratio": "ratio",
    "fixedpoint.self_s": "s",
    "games.gradient_calls": "count",
    "games.self_s": "s",
    "games.generate_s": "s",
    "games.constants_s": "s",
    "efg.passes": "count",
    "efg.nodes_visited": "count",
    "efg.pass_us.kuhn3": "us",
    "efg.pass_us.liars3": "us",
    "efg.self_s": "s",
    "efg.build_s": "s",
    "harness.record_self_s": "s",
    "harness.csv_bytes": "count",
    "harness.rows": "count",
    "trace.overhead_frac": "ratio",
}
# timings are medians over traced passes; counts must repeat exactly
TIMED = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("s", "us")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="sets the sweep-random instance seeds, nothing else")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import regretkit from this checkout's ``src/`` and nowhere else."""
    package = SRC / "regretkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no regretkit sources at {package}")
    sys.path.insert(0, str(SRC))
    import regretkit

    if Path(regretkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported regretkit from {regretkit.__file__}")
    return regretkit


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path) -> str:
    """SHA-256 over the library's Python files: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts(np, regretkit) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "regretkit": regretkit.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(SRC / "regretkit"),
    }


def stored_digests(workload, seed):
    """The stored digest of every cell, or None where none apply."""
    if workload.seed_dependent and seed != DEFAULT_SEED:
        return None
    table = json.loads((HERE / "digests.json").read_text())
    return table[workload.name]


def check_cells(passes, reference):
    """Count failed cells; a cell fails when it raised, its gaps are not
    finite and >= 0, or its digest differs from the stored one or from
    the same cell's digest in another pass."""
    attempted = failed = 0
    first: dict[str, str] = {}
    problems: list[str] = []
    for number, result in enumerate(passes):
        for cell in result.cells:
            attempted += 1
            if cell.error is not None:
                reason = cell.error
            elif not cell.gaps_ok:
                reason = "a gap is not finite and >= 0"
            elif reference is not None and reference.get(cell.name) != cell.digest:
                reason = "trace digest differs from digests.json"
            elif first.setdefault(cell.name, cell.digest) != cell.digest:
                reason = "trace digest differs between passes"
            else:
                continue
            failed += 1
            problems.append(f"pass {number}, cell {cell.name}: {reason}")
    return attempted, failed, problems


def check_repeats(label, values, problems) -> None:
    """Deterministic counts must read the same in every pass."""
    for value in values[1:]:
        if value != values[0]:
            problems.append(f"{label} differ between passes: {values[0]} vs {value}")
            return


def check_traced_counts(per_cell, cells, problems) -> None:
    """Per-round counts that the code fixes exactly."""
    for index, cell in enumerate(cells):
        config = cell.config
        expected = []
        if (config["algorithm"] == "smooth-prm+" and config["alternation"]
                and cell.game == "hard3x3"):
            expected.append(("outer projections", 6))
        if config["algorithm"] == "predictive-cfr" and not config["alternation"]:
            expected.append(("tree passes", 3))
        if config["algorithm"] == "exrm+":
            expected.append(("operator evaluations", 2))
        for what, per_round in expected:
            got = int(per_cell[what][index])
            if got != per_round * cell.iters:
                problems.append(f"cell {cell.name}: {got} {what} in "
                                f"{cell.iters} rounds, expected {per_round} per round")


def workload_times(passes, setup_samples, scaled=True) -> dict:
    """End-to-end timings of one workload: each cell's median over the
    passes, summed over the cells.  Host noise shorter than a pass is
    dropped by the per-cell median, longer noise by the scaling."""
    by_cell: dict[str, list] = {}
    for result in passes:
        for cell in result.cells:
            if cell.error is None:
                by_cell.setdefault(cell.name, []).append(cell)

    def total(field):
        return sum(median([getattr(c, field) / (c.slowdown if scaled else 1.0)
                           for c in runs]) for runs in by_cell.values())

    run_s = total("run_s")
    rounds = sum(runs[0].iters for runs in by_cell.values())
    return {
        "wall_s": median(setup_samples) + total("cell_s"),
        "rounds_per_s": rounds / run_s if run_s else 0.0,  # 0: every cell failed
        "write_s": total("write_s"),
    }


def spread(values) -> str:
    return f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def time_setups(workload, seed, workloads) -> list[float]:
    """Set-up times, scaled by the slowdown probed around them."""
    samples = []
    before = workloads.probe()
    while len(samples) < SETUP_REPS or sum(samples) < SETUP_SLICE_S:
        t0 = time.perf_counter()
        workload.setup(seed)
        samples.append(time.perf_counter() - t0)
    slowdown = workloads.slowdown(before, workloads.probe())
    return [sample / slowdown for sample in samples]


def measure(args, workload, outdir, tracing, workloads):
    """Run passes until the time is up.  Returns the untraced and traced
    passes, the set-up samples, and for each traced pass its per-layer
    metrics and per-cell counts; the last traced pass's spans are written
    out."""
    start = time.perf_counter()
    setup_samples = []
    plain, traced, layers = [], [], []
    tracer = tracing.Tracer()
    while True:
        if args.trace and len(traced) < len(plain):
            tracer.clear()
            undo = tracing.install(tracer)
            try:
                traced.append(workloads.run_pass(workload, args.seed, outdir, tracer))
            finally:
                tracing.uninstall(undo)
            spans = tracing.PassSpans(tracer, tracer.arrays())
            layers.append((spans.metrics(workloads.tree_sizes()),
                           spans.per_cell_counts(len(workload.cells(args.seed)))))
        else:
            setup_samples.extend(time_setups(workload, args.seed, workloads))
            plain.append(workloads.run_pass(workload, args.seed, outdir))
        elapsed = time.perf_counter() - start
        if args.trace:
            if len(traced) < max(2, len(plain)):
                continue
            next_cost = median([p.wall_s for p in plain]) + median(
                [p.wall_s for p in traced])
        else:
            if len(plain) < MIN_PASSES:
                continue
            next_cost = median([p.wall_s for p in plain])
        if elapsed + next_cost > args.seconds:
            break
    if args.trace:
        tracer.write(SCRATCH / f"spans-{args.workload}.npz")
    setup_samples.extend(pass_setups(plain))
    return plain, traced, setup_samples, layers


def pass_setups(passes) -> list[float]:
    return [p.setup_s / p.setup_slowdown for p in passes]


def main(argv=None) -> int:
    args = parse_args(argv)
    regretkit = import_library()
    import numpy as np

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    facts = machine_facts(np, regretkit)
    reference = stored_digests(workload, args.seed)
    cells = workload.cells(args.seed)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        plain, traced, setup_samples, layers = measure(
            args, workload, outdir, tracing, workloads)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted, failed, problems = check_cells(plain + traced, reference)
    clean = [p for p in plain + traced if not any(c.error for c in p.cells)]
    check_repeats("exact counts", [p.exact_counts() for p in clean], problems)
    for _, per_cell in layers:
        check_traced_counts(per_cell, cells, problems)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "machine": facts}, sort_keys=True))
    if args.trace:
        per_pass = [metrics for metrics, _ in layers]
        check_repeats("traced counts",
                      [{k: v for k, v in m.items() if k not in TIMED} for m in per_pass],
                      problems)
        values = {name: median([m[name] for m in per_pass]) if name in TIMED
                  else value for name, value in per_pass[0].items()}
        values.update(plain[0].exact_counts())
        traced_wall = workload_times(traced, pass_setups(traced))["wall_s"]
        plain_wall = workload_times(plain, pass_setups(plain))["wall_s"]
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        units = PER_LAYER_UNITS
        print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    else:
        values = workload_times(plain, setup_samples)
        values["setup_s"] = median(setup_samples)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END_UNITS
        raw = workload_times(plain, [p.setup_s for p in plain], scaled=False)
        slowdowns = [c.slowdown for p in plain for c in p.cells]
        print(f"raw wall_s per pass (probes included): "
              f"{spread([p.wall_s for p in plain])}")
        print(f"scaled setup_s per set-up: {spread(setup_samples)}")
        print(f"host slowdown per cell: median {median(slowdowns):.4f}, "
              f"{spread(slowdowns)}")
        print("raw (unscaled) " + ", ".join(
            f"{name} {value:.6g}" for name, value in raw.items()))
    for name, unit in units.items():
        print(f"{name:28s} {values[name]:16.6f} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:16.6f} ratio "
          f"({failed} of {attempted} cells)")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
