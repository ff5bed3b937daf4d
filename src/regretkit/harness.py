"""Experiment orchestration: solver drivers, traces, CSV, rate regression.

``run(config, game)`` executes one solver on one game and returns a
``RunTrace``.  Traces are deterministic functions of (config, game, seed);
the CSV rendering is byte-exact (17 significant digits).

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
infoset layout): cumulative regrets and averages are
one vector operation per round, per-block maxima one ``reduceat`` and
per-block squared steps one reduction per width bucket, so a tree round
costs the same few numpy calls whatever its number of infosets.  Per
family it picks only the regret formula (max-action regret, or the sum
of per-infoset positive maxima), the gap (duality gap, or the CCE gap
max_i [regret_i]+ / t) and the averager.  A non-finite value, raised
inside a round (``NonFiniteError``) or met by the recorder's one
per-round check, ends the run with ``NumericalDivergence`` naming the
round.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import efg, fixedpoint
from .core import (
    AggregateState,
    BlockLayout,
    BlockVector,
    NonFiniteError,
    as_flat,
)
from .fixedpoint import initial_lifted_point, lipschitz_bound
from .games import MatrixGame, NormalFormGame, duality_gap
from .stabilized import (
    _initial_state,
    _lifted_round,
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
        for row in range(self.t.size):
            t = int(self.t[row])
            gap = _fmt(self.gap[row])
            fpk = "" if math.isnan(self.fp_k[row]) else str(int(self.fp_k[row]))
            fpr = ("" if math.isnan(self.fp_residual[row])
                   else _fmt(self.fp_residual[row]))
            for player in range(self.num_players):
                stream.write(
                    f"{t},{player},{_fmt(self.regret_max[row, player])},{gap},"
                    f"{_fmt(self.iter_var[row, player])},"
                    f"{int(self.restart[row, player])},{fpk},{fpr}\n"
                )


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
    for key, value in constants.items():
        header[key] = _fmt(value)
    return header


# --- one recorder for every family ---------------------------------------------


class _StrategyAverager:
    """Running average of played strategies, round t weighted by t
    (linear) or 1 (uniform): ``efg.BehavioralAverager``'s normal-form
    counterpart."""

    def __init__(self, layout: BlockLayout, scheme: str):
        self._layout = layout
        self._linear = scheme == "linear"
        self._sums = np.zeros(layout.size)
        self._t = 0
        self._weight = 0.0

    def observe(self, x: BlockVector) -> None:
        self._t += 1
        weight = float(self._t) if self._linear else 1.0
        self._weight += weight
        self._sums += weight * x.vector

    def average(self) -> list[np.ndarray]:
        mean = self._sums / self._weight
        return [mean[lo:hi] for lo, hi in self._layout.bounds]


class _Recorder:
    """Per-round bookkeeping for every family (see the module docstring):
    accumulates the blocks' regret increments and average, and fills the
    trace, a row per stored round with each player's regret, the gap and
    the squared step of the player's blocks.  Plays, increments and
    ledgers are flat vectors in the blocks' layout; per-block maxima and
    squared steps are taken per width bucket (see ``core``)."""

    def __init__(self, config: SolverConfig, game):
        if isinstance(game, efg.GameTree):
            layout = game.compiled.layout
            owned = [game.infosets_of(i) for i in range(game.num_players)]
            averager = efg.BehavioralAverager(game, config.averaging)
            self.regret_of = lambda maxima: sum(np.maximum(maxima, 0.0).tolist())
            store_full = False  # tree rounds hand over no losses
        else:
            layout = game.layout
            owned = [[i] for i in range(len(game.dims))]
            averager = _StrategyAverager(layout, config.averaging)
            self.regret_of = lambda maxima: float(maxima[0])
            store_full = config.store_full
        self.layout = layout
        self.owned = [np.array(own, dtype=np.intp) for own in owned]
        self.averager = averager
        if isinstance(game, MatrixGame):
            # closes over the averager, not self: no reference cycle keeps
            # a finished recorder and its trace alive until a collection
            self.gap_of = lambda t, regrets: duality_gap(
                game, *averager.average())
        else:
            self.gap_of = lambda t, regrets: max(0.0, *regrets) / t
        self.cum = np.zeros(layout.size)
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
        self._prev: np.ndarray | None = None

    def observe(self, t, blocks, increments, losses=None, lifted=None,
                restarts=(), fp=None) -> None:
        x = as_flat(blocks)
        if not np.isfinite(x).all():
            raise NumericalDivergence(t)
        self.cum += as_flat(increments)
        self.averager.observe(BlockVector(x, self.layout))
        self.restart_events.extend(restarts)
        trace = self.trace
        if trace.strategies is not None:
            for i, (block, loss) in enumerate(zip(blocks, losses)):
                trace.strategies[i][t - 1] = block
                trace.losses[i][t - 1] = loss
                if lifted is not None:
                    trace.lifted[i][t - 1] = lifted[i]
        if self._cursor < trace.t.size and trace.t[self._cursor] == t:
            row = self._cursor
            maxima = np.maximum.reduceat(self.cum, self.layout.offsets[:-1])
            regrets = [self.regret_of(maxima[own]) for own in self.owned]
            trace.regret_max[row] = regrets
            trace.gap[row] = self.gap_of(t, regrets)
            if self._prev is not None:
                steps = self.layout.squared_distances(x, self._prev)
                trace.iter_var[row] = [sum(steps[own].tolist())
                                       for own in self.owned]
            for _, player in restarts:
                trace.restart[row, player] = 1
            if fp is not None:
                trace.fp_k[row], trace.fp_residual[row] = fp
            self._cursor += 1
        # rounds hand back fresh arrays, so references suffice
        self._prev = x

    def finish(self, header) -> RunTrace:
        trace = self.trace
        trace.header = header
        blocks = BlockVector(self.cum, self.layout)
        trace.ledgers = [as_flat([blocks[j] for j in own.tolist()])
                         for own in self.owned]
        trace.averages = self.averager.average()
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
             else as_flat(initial_lifted_point(layout.widths)))

    def advance(t):
        nonlocal state
        if predictive:
            state, played = efg.predictive_cfr_round(
                state, tree, alternate=config.alternation)
        else:
            state, played = efg.clairvoyant_cfr_round(
                state, tree, eta, alternate=config.alternation)
        regrets = efg.counterfactual_regret_operator(tree, played,
                                                     validate=False)
        return played, regrets, {}

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
    header = _header(config, game, eta, constants)
    advance = family(config, game, eta)
    recorder = _Recorder(config, game)
    for t in range(1, config.iters + 1):
        try:
            blocks, increments, extras = advance(t)
        except NonFiniteError:
            raise NumericalDivergence(t) from None
        recorder.observe(t, blocks, increments, **extras)
    return recorder.finish(header)
