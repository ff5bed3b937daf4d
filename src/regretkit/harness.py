"""Experiment orchestration: solver drivers, traces, CSV, rate regression.

``run(config, game)`` executes one solver on one game and returns a
``RunTrace``.  Traces are deterministic functions of (config, game, seed);
the CSV rendering is byte-exact (17 significant digits).  ``write_csv``
writes the header lines verbatim, then each chunk of at most 256 rows
with one ``%`` format and one ``write``; ``"%.17g" % v`` is
``format(v, ".17g")`` for every float, so the bytes are those of
formatting row by row.

CSV schema: ``#``-prefixed ``key=value`` header lines, then the row header

    t,player,regret_max,gap,iter_var,restart,fp_k,fp_residual

with one row per (stored round, player).  ``regret_max`` is the player's
max-action regret (for tree games: the per-infoset positive
counterfactual-regret bound on sequence-form regret); ``gap`` is the
duality gap of the running averaged profile for matrix games, and the
coarse-correlated-equilibrium gap max_i regret_i / t otherwise (repeated
on every player row); ``iter_var`` is the squared step ||x^t - x^{t-1}||^2;
``fp_k``/``fp_residual`` are filled by the conceptual solver and empty
elsewhere.

Round storage: every round is stored for T <= 1e6 (minus ``report_skip``);
longer runs keep every round up to 1000 and then rounds divisible by
ceil(t/1000), preserving roughly a thousand rows per decade for the
log-log regressions.

Alternation (two or more players): within one round the players update in
index order; each player's update sees the loss induced by the newest
available opponent strategies, and later players see earlier players'
freshly updated strategies.  The recorded play of round t is what each
player put forward before updating; regret ledgers and gap metrics are
accounted against the losses of that recorded joint profile.

Structure: ``run`` owns the one round loop.  Each of the three
algorithm families (lifted: RM+, PRM+ and the stabilized PRM+ rounds;
fixed-point: conceptual and extragradient RM+; tree: the CFR rounds)
supplies only how its state advances: ``advance(t)`` plays round t and
hands back the play as blocks, each owned by one player (one block per
player for matrix and normal-form games, one per infoset for trees),
one regret increment per block, and optional per-round extras.
One ``_Recorder``, the only code that accumulates regret, keeps every
family's books from those blocks, held as flat vectors cut by a
``core.BlockLayout`` (the players' strategies, or the tree's compiled
infoset layout).  A round only copies its play and increments into a
row of a chunk buffer; once per chunk of rounds, the plays are checked,
the ledgers and averages are running sums down the buffer and the
stored rounds' per-block maxima, regrets, gaps and squared steps a few
stacked numpy calls, bit for bit as round by round.  Per
family it picks only the regret formula (max-action regret, or the sum
of per-infoset positive maxima), the gap (duality gap, or the CCE gap
max_i [regret_i]+ / t) and the averager (the tree's, reach-weighted,
stays per round).  A non-finite value, raised inside a round
(``NonFiniteError``), in a play or in a stored row's regret, gap or
squared step ends the run with ``NumericalDivergence`` naming the round,
the first non-finite play's wherever there is one.  ``run`` leaves
numpy's floating-point error state alone, so code that calls it directly
sees numpy's default warnings; the command line filters them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import efg, fixedpoint
from .core import (
    AggregateState,
    BlockVector,
    NonFiniteError,
    as_flat,
)
from .fixedpoint import lipschitz_bound
from .games import MatrixGame, NormalFormGame, duality_gap
from .stabilized import (
    _initial_state,
    _lifted_round,
    initial_lifted_point,
    smooth_initial_state,
    stable_initial_state,
)

__all__ = [
    "ALGORITHMS",
    "SolverConfig",
    "RunTrace",
    "NumericalDivergence",
    "run",
    "slope_loglog",
    "stored_rounds",
    "read_trace_csv",
]

class NumericalDivergence(RuntimeError):
    """An iterate went non-finite; ``iteration`` is the offending round."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at round {iteration}")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """One solver run's settings; ``validate`` rejects bad ones."""
    algorithm: str
    eta: float | str = "auto"
    r0: float = 1.0
    averaging: str = "linear"
    alternation: bool = False
    iters: int = 1000
    eps_schedule: str | None = None  # conceptual-rm+ only; "1/t^2" or a float
    k_max: int = 100
    seed: int = 0
    report_skip: int = 0
    store_full: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.averaging not in ("uniform", "linear"):
            raise ValueError(f"unknown averaging scheme {self.averaging!r}")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if not (0 <= self.report_skip < self.iters):
            raise ValueError("report_skip must lie in [0, iters)")
        # the fixed-point family has no defined alternating variant
        if self.alternation and _FAMILY[self.algorithm] is _fixedpoint_family:
            raise ValueError(f"{self.algorithm} has no alternating variant")
        if self.eta != "auto":
            if not (isinstance(self.eta, (int, float)) and self.eta > 0
                    and math.isfinite(self.eta)):
                raise ValueError("eta must be 'auto' or a positive real")
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ValueError(f"r0 must be positive and finite, got {self.r0!r}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.eps_schedule is not None:
            if self.eps_schedule != "1/t^2":
                try:
                    value = float(self.eps_schedule)
                except ValueError:
                    raise ValueError(
                        f"unknown eps schedule {self.eps_schedule!r}") from None
                if not (value >= 0 and math.isfinite(value)):
                    raise ValueError("eps schedule must be '1/t^2' or a "
                                     "nonnegative finite tolerance, got "
                                     f"{self.eps_schedule!r}")


@dataclass
class RunTrace:
    """Per-run record: header metadata plus per-stored-round columns."""

    header: dict
    t: np.ndarray
    regret_max: np.ndarray  # (rows, players)
    gap: np.ndarray  # (rows,)
    iter_var: np.ndarray  # (rows, players)
    restart: np.ndarray  # (rows, players), 0/1
    fp_k: np.ndarray  # (rows,), NaN where not applicable
    fp_residual: np.ndarray
    ledgers: list[np.ndarray]  # final cumulative per-action regret, per player
    # average strategy per player; per infoset (behavioural) for tree games
    averages: list[np.ndarray] | None = None
    strategies: list[np.ndarray] | None = None  # (T, d_i) per player, store_full
    losses: list[np.ndarray] | None = None
    lifted: list[np.ndarray] | None = None  # lifted points with x^t = g(R^t)
    restart_events: tuple = ()

    @property
    def num_players(self) -> int:
        return self.regret_max.shape[1]

    def write_csv(self, stream) -> None:
        for key, value in self.header.items():
            stream.write(f"# {key}={value}\n")
        stream.write("t,player,regret_max,gap,iter_var,restart,fp_k,fp_residual\n")
        n = self.num_players
        line = "".join(f"%d,{i},%.17g,%s,%.17g,%d,%s,%s\n" for i in range(n))
        for lo in range(0, self.t.size, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            ts = self.t[rows].tolist()
            gaps = [_fmt(v) for v in self.gap[rows].tolist()]
            fpks = ["" if math.isnan(v) else str(int(v))
                    for v in self.fp_k[rows].tolist()]
            fprs = ["" if math.isnan(v) else _fmt(v)
                    for v in self.fp_residual[rows].tolist()]
            # the line of row r and player i takes values[7 * (n * r + i):][:7]
            values = [None] * (7 * n * len(ts))
            for i in range(n):
                columns = (ts, self.regret_max[rows, i].tolist(), gaps,
                           self.iter_var[rows, i].tolist(),
                           self.restart[rows, i].tolist(), fpks, fprs)
                for j, column in enumerate(columns):
                    values[7 * i + j::7 * n] = column
            stream.write((line * len(ts)) % tuple(values))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def stored_rounds(iters: int, report_skip: int = 0) -> np.ndarray:
    """Rounds whose rows a trace keeps (see the module docstring)."""
    if iters <= 1_000_000:
        return np.arange(report_skip + 1, iters + 1, dtype=np.int64)
    kept = [t for t in range(report_skip + 1, iters + 1)
            if t <= 1000 or t % -(-t // 1000) == 0]
    return np.asarray(kept, dtype=np.int64)


def slope_loglog(ts, values, t_lo, t_hi) -> float:
    """OLS slope of log10(value) against log10(t) over [t_lo, t_hi], on a
    geometrically subsampled grid of at most 500 rows."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (ts >= t_lo) & (ts <= t_hi)
    ts, values = ts[mask], values[mask]
    if ts.size < 2:
        raise ValueError("regression window contains fewer than 2 rows")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("regression window contains nonpositive values")
    if ts.size > 500:
        picks = np.unique(np.rint(
            np.geomspace(1, ts.size, 500)).astype(int) - 1)
        ts, values = ts[picks], values[picks]
    x = np.log10(ts)
    y = np.log10(values)
    x_centered = x - x.mean()
    return float(np.dot(x_centered, y) / np.dot(x_centered, x_centered))


def read_trace_csv(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read back a trace CSV: (header dict, rounds, gap column).  A row
    without integer round and player and a numeric gap raises
    ``ValueError`` starting ``path:line:``."""
    header: dict[str, str] = {}
    ts: list[int] = []
    gaps: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
                continue
            if line.startswith("t,player"):
                continue
            parts = line.split(",")
            try:
                t, player, gap = int(parts[0]), int(parts[1]), float(parts[3])
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{number}: malformed trace row "
                                 f"{line!r}") from None
            if player == 0:
                ts.append(t)
                gaps.append(gap)
    return header, np.asarray(ts, dtype=np.int64), np.asarray(gaps)


# --- eta resolution and headers ----------------------------------------------


def resolve_eta(config: SolverConfig, game) -> tuple[float, dict]:
    """Resolve 'auto' to the prescribed step size; returns (eta, constants).

    Prescriptions: (d^2 T)^{-1/4} for stable-prm+ (d the total dimension),
    (2 sqrt(2) (n-1) max_i d_i^{3/2})^{-1} for smooth-prm+,
    (sqrt(2) L_F)^{-1} for exrm+, (2 L_F)^{-1} for conceptual-rm+, and 0.1
    for everything else.  An auto step size that is not positive and
    finite (a zero or non-finite L_F, or one player for smooth-prm+)
    raises ``ValueError``.
    """
    constants: dict[str, float] = {}
    is_tree = isinstance(game, efg.GameTree)
    if is_tree:
        constants["P"] = float(game.behavioral_dim)
        constants["L_F"] = efg.lifted_lipschitz(game)
        constants["eta_contraction"] = efg.contraction_step_size(game)
    else:
        b_u, l_u = game.constants
        constants["B_u"] = b_u
        constants["L_u"] = l_u
        constants["L_F"] = lipschitz_bound(game)
    if config.eta != "auto":
        return float(config.eta), constants
    algo = config.algorithm
    if algo == "stable-prm+":
        d_total = sum(game.dims)
        return (d_total**2 * config.iters) ** -0.25, constants
    if algo == "smooth-prm+":
        n = game.num_players
        d_max = max(game.dims)
        scale, source = 2.0 * 2.0**0.5 * (n - 1) * d_max**1.5, f"{n} player(s)"
    elif algo in ("exrm+", "conceptual-rm+"):
        factor = 2.0**0.5 if algo == "exrm+" else 2.0
        scale, source = factor * constants["L_F"], f"L_F={constants['L_F']!r}"
    else:
        return 0.1, constants
    eta = 1.0 / scale if scale != 0.0 else math.inf
    if not 0.0 < eta < math.inf:
        raise ValueError(f"{algo}: the auto step size 1/{scale!r} is not "
                         f"positive and finite ({source}); set eta explicitly")
    return eta, constants


def _fingerprint(game) -> str:
    digest = hashlib.sha256()
    if isinstance(game, MatrixGame):
        digest.update(b"matrix")
        digest.update(np.ascontiguousarray(game.payoff).tobytes())
        label = "matrix" + "x".join(str(d) for d in game.dims)
    elif isinstance(game, NormalFormGame):
        digest.update(b"nfg")
        for u in game.payoffs:
            digest.update(np.ascontiguousarray(u).tobytes())
        label = "nfg" + "x".join(str(d) for d in game.dims)
    else:
        digest.update(b"efg")
        for node in game.nodes:
            if isinstance(node, efg.ChanceNode):
                digest.update(b"c" + np.ascontiguousarray(node.probs).tobytes())
                digest.update(np.asarray(node.children).tobytes())
            elif isinstance(node, efg.DecisionNode):
                digest.update(f"d{node.player},{node.infoset}".encode())
                digest.update(np.asarray(node.children).tobytes())
            else:
                digest.update(b"l" + np.ascontiguousarray(node.payoffs).tobytes())
        label = f"efg{game.num_players}p{len(game.infosets)}i"
    return f"{label}:{digest.hexdigest()[:12]}"


def _header(config: SolverConfig, game, eta: float, constants: dict) -> dict:
    header = {
        "algorithm": config.algorithm,
        "eta": _fmt(eta),
        "eta_mode": "auto" if config.eta == "auto" else "explicit",
        "r0": _fmt(config.r0),
        "averaging": config.averaging,
        "alternation": int(config.alternation),
        "iters": config.iters,
        "seed": config.seed,
        "report_skip": config.report_skip,
        "game": _fingerprint(game),
    }
    if config.algorithm == "conceptual-rm+":
        header["eps_schedule"] = config.eps_schedule or "tight"
        header["k_max"] = config.k_max
    return header | {key: _fmt(value) for key, value in constants.items()}


# --- one recorder for every family ---------------------------------------------


# rows per recorder chunk: at most 256, and at most 32768 floats (256 KB)
# per chunk buffer
_CHUNK_ROWS, _CHUNK_FLOATS = 256, 32768


class _Recorder:
    """Bookkeeping for every family, per chunk of rounds (see the module
    docstring): round k of a chunk fills row k of the chunk buffers, and
    row 0 carries the previous chunk's last round, its play and the
    ledger, weighted play sums and total weight after it."""

    def __init__(self, config: SolverConfig, game):
        if isinstance(game, efg.GameTree):
            layout = game.compiled.layout
            owned = [game.infosets_of(i) for i in range(game.num_players)]
            self.tree_averager = efg.BehavioralAverager(game, config.averaging)
            store_full = False  # tree rounds hand over no losses
        else:
            layout = game.layout
            owned = [[i] for i in range(len(game.dims))]
            self.tree_averager = None
            store_full = config.store_full
        self.layout = layout
        self.owned = [np.array(own, dtype=np.intp) for own in owned]
        # each player's block columns after a zero column (``_player_sums``)
        self._sum_gather = [np.concatenate(([0], own + 1)) for own in self.owned]
        # per width bucket, its blocks and their (rows, width) positions
        self._buckets = [(ids, np.arange(layout.size)[index].reshape(ids.size, -1))
                         for ids, index in layout.buckets]
        if isinstance(game, MatrixGame):
            d1 = game.dims[0]
            self.gap_of = lambda ts, regrets, means: duality_gap(
                game, means[:, :d1], means[:, d1:])
        else:
            # max(0.0, *regrets) / t; fmax skips a NaN regret as Python's
            # max does, and no regret is -0.0, so the zeros cannot differ
            self.gap_of = lambda ts, regrets, means: np.fmax.reduce(
                regrets, axis=1, initial=0.0) / ts
        chunk = max(1, min(_CHUNK_ROWS, _CHUNK_FLOATS // layout.size)) + 1
        self.plays, self.ledger, self.sums = np.zeros((3, chunk, layout.size))
        self.weights = np.zeros(chunk)
        # a family hands ``fp`` every round or never
        self.fp = np.full((chunk, 2), np.nan)
        self.linear = config.averaging == "linear"
        self.k = 0  # rounds in the chunk
        self.t = 0  # the last round observed
        stored = stored_rounds(config.iters, config.report_skip)
        rows, n = stored.size, len(self.owned)

        def full():
            return ([np.zeros((config.iters, d)) for d in layout.widths.tolist()]
                    if store_full else None)

        self.trace = RunTrace(
            header={}, t=stored, regret_max=np.zeros((rows, n)),
            gap=np.zeros(rows), iter_var=np.zeros((rows, n)),
            restart=np.zeros((rows, n), dtype=np.int8),
            fp_k=np.full(rows, np.nan), fp_residual=np.full(rows, np.nan),
            ledgers=[], strategies=full(), losses=full(), lifted=full())
        self.restart_events: list[tuple[int, int]] = []
        self._cursor = 0

    def observe(self, t, blocks, increments, losses=None, lifted=None,
                restarts=(), fp=None) -> None:
        k = self.k + 1
        x, ledger = self.plays[k], self.ledger[k]
        if isinstance(blocks, list):  # the lifted family's player blocks
            for (lo, hi), block, increment in zip(self.layout.bounds, blocks,
                                                  increments):
                x[lo:hi] = block
                ledger[lo:hi] = increment
        else:
            x[:] = blocks.vector
            ledger[:] = increments.vector
        if self.tree_averager is not None:
            self.tree_averager.observe(BlockVector(x, self.layout))
        self.restart_events.extend(restarts)
        if fp is not None:
            self.fp[k] = fp
        trace = self.trace
        if trace.strategies is not None:
            for i, (block, loss) in enumerate(zip(blocks, losses)):
                trace.strategies[i][t - 1] = block
                trace.losses[i][t - 1] = loss
                if lifted is not None:
                    trace.lifted[i][t - 1] = lifted[i]
        self.k, self.t = k, t
        if k + 1 == self.weights.size:
            self._flush()

    def check_plays(self) -> None:
        """End the run at the first non-finite play since the last flush."""
        finite = np.isfinite(self.plays[1:self.k + 1]).all(axis=1)
        if not finite.all():
            raise NumericalDivergence(self.t - self.k + 1 + int(np.argmin(finite)))

    def _flush(self) -> None:
        self.check_plays()
        k, t, trace, layout = self.k, self.t, self.trace, self.layout
        new = slice(1, k + 1)
        self.weights[new] = np.arange(t - k + 1, t + 1) if self.linear else 1.0
        np.multiply(self.weights[new, None], self.plays[new], out=self.sums[new])
        # running sums down the rows add in round order, as ``+=`` does
        for buffer in (self.ledger, self.sums, self.weights):
            np.add.accumulate(buffer[:k + 1], axis=0, out=buffer[:k + 1])
        lo = self._cursor
        hi = lo + int(np.searchsorted(trace.t[lo:], t, side="right"))
        ts = trace.t[lo:hi]
        rows = ts - (t - k)  # the stored rounds' buffer rows
        maxima = np.maximum.reduceat(self.ledger[rows], layout.offsets[:-1],
                                     axis=1)
        regrets = (maxima if self.tree_averager is None
                   else self._player_sums(np.maximum(maxima, 0.0)))
        trace.regret_max[lo:hi] = regrets
        trace.gap[lo:hi] = self.gap_of(
            ts, regrets, self.sums[rows] / self.weights[rows, None])
        squares = (self.plays[rows] - self.plays[rows - 1]) ** 2
        steps = np.empty((rows.size, layout.widths.size))
        for ids, index in self._buckets:
            # a C-contiguous (rounds, rows, width) stack: each row sums as
            # its block's own ``.sum()`` (``squares[:, index]`` is not one)
            steps[:, ids] = np.take(squares, index, axis=1).sum(axis=-1)
        # round 1 has no previous play
        trace.iter_var[lo:hi] = np.where((ts > 1)[:, None],
                                         self._player_sums(steps), 0.0)
        trace.fp_k[lo:hi], trace.fp_residual[lo:hi] = self.fp[rows].T
        # a run that finishes writes finite rows only
        finite = np.isfinite(np.column_stack(
            (regrets, trace.gap[lo:hi], trace.iter_var[lo:hi]))).all(axis=1)
        if not finite.all():
            raise NumericalDivergence(int(ts[np.argmin(finite)]))
        self._cursor = hi
        for buffer in (self.plays, self.ledger, self.sums, self.weights):
            buffer[0] = buffer[k]
        self.k = 0

    def _player_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row and player, the sum of the player's block columns, added
        left to right in block order, starting from 0.0 (``accumulate``
        adds one column at a time)."""
        padded = np.column_stack((np.zeros(len(values)), values))
        return np.column_stack([np.add.accumulate(padded[:, gather], axis=1)[:, -1]
                                for gather in self._sum_gather])

    def finish(self, header) -> RunTrace:
        self._flush()
        trace = self.trace
        trace.header = header
        for t, player in self.restart_events:
            row = int(np.searchsorted(trace.t, t))
            if row < trace.t.size and trace.t[row] == t:
                trace.restart[row, player] = 1
        blocks = BlockVector(self.ledger[0], self.layout)
        trace.ledgers = [as_flat([blocks[j] for j in own.tolist()])
                         for own in self.owned]
        trace.averages = (
            self.tree_averager.average() if self.tree_averager is not None
            else list(BlockVector(self.sums[0] / self.weights[0], self.layout)))
        trace.restart_events = tuple(self.restart_events)
        return trace


# --- families: each builds its state and returns ``advance(t)``, which plays
# round t and returns (blocks, regret increments, ``observe`` keywords) ----------


def _lifted_family(config: SolverConfig, game, eta):
    algo = config.algorithm
    floors = None
    if algo == "stable-prm+":
        # scale-invariant form of the restarting algorithm: unit-mass
        # initialization (R0/d_i) * 1 per player with matching restart
        # floors, which is how the reproduced experiments initialize
        floors = [config.r0 / d for d in game.dims]
        state = stable_initial_state(game.dims, floors)
    elif algo == "smooth-prm+":
        state = smooth_initial_state(game.dims)
    else:
        # RM+ and PRM+ are scale-free: a unit step from R = 0
        eta = 1.0
        state = _initial_state(tuple(np.zeros(d) for d in game.dims))

    def advance(t):
        nonlocal state
        seen = len(state.restart_events)
        state, plays, losses, increments = _lifted_round(
            state, game, eta, algo, config.alternation, floors)
        return plays, increments, dict(
            losses=losses, lifted=state.z,
            restarts=state.restart_events[seen:])

    return advance


def _fixedpoint_family(config: SolverConfig, game, eta):
    layout = game.layout
    z = as_flat(initial_lifted_point(game.dims))
    exrm = config.algorithm == "exrm+"

    def advance(t):
        nonlocal z
        # exrm+ is the conceptual round cut to exactly one inner iteration;
        # the solve's w (played as g(w)) is the round's lifted point, and
        # its increments <x, l> - l are -F(w), bit for bit
        eps, k_max = (-1.0, 1) if exrm else (_eps_at(config, t), config.k_max)
        z, w, x, f, report = fixedpoint._solve(z, game, eta, eps, k_max)
        plays = BlockVector(x, layout)
        losses = game.gradients(plays) if config.store_full else None
        fp = None if exrm else (float(report.iterations), report.residual)
        return plays, BlockVector(-f, layout), dict(
            losses=losses, lifted=BlockVector(w, layout), fp=fp)

    return advance


def _eps_at(config: SolverConfig, t: int) -> float:
    if config.eps_schedule is None:
        return 1e-14
    if config.eps_schedule == "1/t^2":
        return 1.0 / (t * t)
    return float(config.eps_schedule)


def _tree_family(config: SolverConfig, tree, eta):
    predictive = config.algorithm == "predictive-cfr"
    layout = tree.compiled.layout
    state = (AggregateState.initial(layout.size) if predictive
             else as_flat(efg.uniform_behavioral(tree)))

    def advance(t):
        nonlocal state
        if predictive:
            state, played = efg.predictive_cfr_round(
                state, tree, alternate=config.alternation)
        else:
            state, played = efg.clairvoyant_cfr_round(
                state, tree, eta, alternate=config.alternation)
        regrets = efg.values._group_regrets(tree, played.vector, None)
        return played, BlockVector(regrets, layout), {}

    return advance


_FAMILY = {"rm+": _lifted_family, "prm+": _lifted_family,
           "stable-prm+": _lifted_family, "smooth-prm+": _lifted_family,
           "conceptual-rm+": _fixedpoint_family, "exrm+": _fixedpoint_family,
           "predictive-cfr": _tree_family, "clairvoyant-cfr": _tree_family}
ALGORITHMS = tuple(_FAMILY)


def run(config: SolverConfig, game) -> RunTrace:
    """Execute one solver configuration on one game."""
    config.validate()
    algo = config.algorithm
    family = _FAMILY[algo]
    if (family is _tree_family) != isinstance(game, efg.GameTree):
        raise ValueError(f"{algo} is incompatible with {type(game).__name__}")
    eta, constants = resolve_eta(config, game)
    advance = family(config, game, eta)
    recorder = _Recorder(config, game)
    for t in range(1, config.iters + 1):
        try:
            blocks, increments, extras = advance(t)
        except NonFiniteError:
            recorder.check_plays()  # an earlier play's round comes first
            raise NumericalDivergence(t) from None
        recorder.observe(t, blocks, increments, **extras)
    return recorder.finish(_header(config, game, eta, constants))
