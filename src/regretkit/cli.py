"""Command-line entry point.

Subcommands:

 * ``run``            one (algorithm, game) cell; CSV to stdout or --out
 * ``sweep``          cross product of step sizes and seeds on one game
 * ``counterexample`` emit an adversarial loss sequence and its replay
 * ``gen``            write any game the others read, by the same spec
 * ``rate``           log-log rate regression over a trace CSV

Games are referenced by one spec in every command: a built-in name
(``hard3x3``; ``kuhn<R>``, Kuhn poker with R >= 3 ranks; ``liars<P>``,
Liar's dice for P in {2, 3} players), a seeded random spec
(``random-matrix:30x40``, ``random-nfg:3,3,3``) that draws one instance
per seed, which is how sweeps cover instance distributions, or else a
game file path: ``games.load_game`` reads every kind, ``save_game`` writes it.
Relative output paths are resolved against $REGRETKIT_OUTDIR when set,
and their parent directories are created.  ``sweep`` writes nothing until
every cell's game and settings check out; if a cell then diverges (its
eta and seed are named) or a write fails, it removes the CSVs it wrote
and the directories it made, leaving nothing behind.

numpy's floating-point warnings (overflow, invalid value, divide by zero)
are not printed: a run that goes non-finite exits 3 naming the round.

Exit codes: 0 success, 2 configuration error (including unknown flags,
and a game or horizon too large to allocate), 3 numerical failure (a
non-finite iterate; the message names the round).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import efg
from .core import replay_exact, rm_plus_step, prm_plus_step, AggregateState
from .games import (
    hard_instance,
    instability_losses,
    load_game,
    random_matrix_game,
    random_nfg,
    save_game,
)
from .harness import (
    ALGORITHMS,
    NumericalDivergence,
    SolverConfig,
    read_trace_csv,
    run,
    slope_loglog,
)

_GAME_HELP = ("game file, built-in name (hard3x3, kuhn<R>, liars<P>), or "
              "seeded spec (random-matrix:D1xD2, random-nfg:D1,D2,..)")


def _out_path(path: str) -> Path:
    """``path`` under $REGRETKIT_OUTDIR when relative."""
    return Path(os.environ.get("REGRETKIT_OUTDIR", ""), path)


def _resolve_out(path: str | None) -> Path | None:
    """``_out_path(path)``, with its parent directories made."""
    if path is not None:
        path = _out_path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_any_game(spec: str, seed: int = 0):
    if spec == "hard3x3":
        return hard_instance()
    tree = re.fullmatch(r"(kuhn|liars)([0-9]+)", spec)
    if tree:  # the builders reject counts they cannot build
        count = int(tree[2])
        return (efg.build_kuhn(2, count) if tree[1] == "kuhn"
                else efg.build_liars_dice(count, 2))
    if spec.startswith("random-matrix:"):
        dims = _ints(spec.split(":", 1)[1].split("x"), f"random-matrix spec {spec!r}")
        if len(dims) != 2:
            raise ValueError(f"bad random-matrix spec {spec!r}")
        return random_matrix_game(dims[0], dims[1], seed)
    if spec.startswith("random-nfg:"):
        dims = _ints(spec.split(":", 1)[1].split(","), f"random-nfg spec {spec!r}")
        return random_nfg(dims, seed)
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"game file not found: {spec}")
    return load_game(path)


def _ints(parts, what: str) -> list[int]:
    """Integer fields of a spec; a bad field is an error naming ``what``."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad {what}: expected integers") from None


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", required=True, choices=ALGORITHMS)
    parser.add_argument("--game", required=True, help=_GAME_HELP)
    parser.add_argument("--eta", default="auto",
                        help="step size, or 'auto' for the prescribed value")
    parser.add_argument("--r0", type=float, default=1.0)
    parser.add_argument("--avg", choices=("uniform", "linear"), default="linear")
    parser.add_argument("--alt", action="store_true")
    parser.add_argument("--iters", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip", type=int, default=0,
                        help="drop the first SKIP rounds from the report")
    parser.add_argument("--eps-schedule", default=None,
                        help="conceptual-rm+: '1/t^2' or a fixed tolerance")
    parser.add_argument("--kmax", type=int, default=100)


def _config_from(args, eta=None, seed=None) -> SolverConfig:
    eta_value: float | str = args.eta if eta is None else eta
    if eta_value != "auto":
        try:
            eta_value = float(eta_value)
        except ValueError:
            raise ValueError(f"bad eta {eta_value!r}") from None
    return SolverConfig(
        algorithm=args.algo,
        eta=eta_value,
        r0=args.r0,
        averaging=args.avg,
        alternation=args.alt,
        iters=args.iters,
        eps_schedule=args.eps_schedule,
        k_max=args.kmax,
        seed=args.seed if seed is None else seed,
        report_skip=args.skip,
    )


def _cmd_run(args) -> int:
    game = _load_any_game(args.game, args.seed)
    trace = run(_config_from(args), game)
    out = _resolve_out(args.out)
    if out is None:
        trace.write_csv(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            trace.write_csv(fh)
    return 0


def _cmd_sweep(args) -> int:
    etas = [e.strip() for e in args.etas.split(",") if e.strip()]
    if not etas:
        raise ValueError(f"--etas {args.etas!r} lists no step size")
    seeds = _parse_seeds(args.seeds)
    # random-* specs draw one instance per seed; every other game is fixed
    games = ({seed: _load_any_game(args.game, seed) for seed in seeds}
             if args.game.startswith("random-")
             else dict.fromkeys(seeds, _load_any_game(args.game)))
    cells = [(eta, seed, _config_from(args, eta=eta, seed=seed))
             for eta in etas for seed in seeds]
    for _, _, config in cells:
        config.validate()
    summary = [f"# algorithm={args.algo}\n# game={args.game}\n",
               "eta,seed,final_gap,final_regret_max\n"]
    outdir = _out_path(args.outdir)
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]
    written: list[Path] = []
    try:
        for eta, seed, config in cells:
            cell = f"eta={eta}, seed={seed}"
            trace = run(config, games[seed])
            name = f"{args.algo.replace('+', 'p')}_eta{eta}_seed{seed}.csv"
            written.append(_resolve_out(os.path.join(args.outdir, name)))
            with open(written[-1], "w", encoding="utf-8") as fh:
                trace.write_csv(fh)
            summary.append(f"{eta},{seed},{trace.gap[-1]:.17g},"
                           f"{np.max(trace.regret_max[-1]):.17g}\n")
        written.append(_resolve_out(os.path.join(args.outdir, "summary.csv")))
        written[-1].write_text("".join(summary), encoding="utf-8")
    except BaseException as exc:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in filter(Path.exists, made):
            directory.rmdir()
        if isinstance(exc, NumericalDivergence):
            exc.args = (f"{exc} ({cell})",)
        raise
    return 0


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = _ints(text.split(":", 1), f"--seeds range {text!r}")
        seeds = list(range(lo, hi))
    else:
        seeds = _ints([s for s in text.split(",") if s.strip()],
                      f"--seeds list {text!r}")
    if not seeds:
        raise ValueError(f"--seeds {text!r} selects no seed")
    return seeds


def _cmd_counterexample(args) -> int:
    losses = instability_losses(args.iters, args.variant, scaled=args.scaled)
    lines = [f"# variant={args.variant}", f"# scaled={int(args.scaled)}",
             "t,loss_0,loss_1,x_0,x_1"]
    if args.rational:
        played = replay_exact(losses, args.variant)
        for t, (loss, x) in enumerate(zip(losses, played), start=1):
            lines.append(f"{t},{Fraction(loss[0])},{Fraction(loss[1])},"
                         f"{x[0]},{x[1]}")
    else:
        step = rm_plus_step if args.variant == "rm+" else prm_plus_step
        state = AggregateState.initial(2)
        for t, loss in enumerate(losses, start=1):
            state, x = step(state, loss)
            lines.append(f"{t},{loss[0]:.17g},{loss[1]:.17g},"
                         f"{x[0]:.17g},{x[1]:.17g}")
    text = "\n".join(lines) + "\n"
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")
    return 0


def _cmd_gen(args) -> int:
    save_game(_load_any_game(args.game, args.seed), _resolve_out(args.out))
    return 0


def _cmd_rate(args) -> int:
    _, ts, gaps = read_trace_csv(args.trace)
    slope = slope_loglog(ts, gaps, args.t_from, args.t_to)
    sys.stdout.write(f"{slope:.6f}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regretkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver on one game")
    _add_run_flags(p_run)
    p_run.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="eta x seed sweep on one game")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--etas", required=True,
                         help="comma list, e.g. 0.1,1,10 (or 'auto')")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma list or lo:hi range")
    p_sweep.add_argument("--outdir", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cx = sub.add_parser("counterexample",
                          help="emit an adversarial loss sequence and replay")
    p_cx.add_argument("--variant", required=True, choices=("rm+", "prm+"))
    p_cx.add_argument("--iters", type=int, default=20)
    p_cx.add_argument("--scaled", action="store_true")
    p_cx.add_argument("--rational", action="store_true",
                      help="exact fractions instead of floats")
    p_cx.add_argument("--out", default=None)
    p_cx.set_defaults(func=_cmd_counterexample)

    p_gen = sub.add_parser("gen", help="write a game file")
    p_gen.add_argument("--game", required=True, help=_GAME_HELP)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_rate = sub.add_parser("rate", help="log-log slope of a trace column")
    p_rate.add_argument("--trace", required=True)
    p_rate.add_argument("--from", dest="t_from", type=float, required=True)
    p_rate.add_argument("--to", dest="t_to", type=float, required=True)
    p_rate.set_defaults(func=_cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # a run reports non-finite values itself, by exit code and round
            warnings.filterwarnings(
                "ignore", r"(overflow|invalid value|divide by zero) encountered",
                RuntimeWarning)
            return args.func(args)
    except NumericalDivergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
