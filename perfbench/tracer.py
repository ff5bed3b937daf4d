"""In-memory span tracer for the regretkit benchmark.

The tracer wraps each layer's entry points from outside the library: no
file under ``src/`` knows about it.  A wrapped call records one span
(name, start, end, parent span, one integer attribute) into flat arrays;
``Tracer.arrays`` hands them out as numpy arrays when a pass ends.

Modules look functions up by the name they imported them under
(``harness`` binds ``fixedpoint._solve`` as ``fixedpoint_solve``;
``project_chopped`` is imported by name into ``stabilized``,
``fixedpoint`` and ``efg.rounds``), so ``install`` replaces a function in
*every* loaded ``regretkit`` module whose global is that very function
object, under whatever name it is bound there.  Methods and cached
properties are replaced on their class, which every caller goes through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer, defining module, function name)
FUNCTIONS = (
    ("core", "regretkit.core", "rm_plus_step"),
    ("core", "regretkit.core", "prm_plus_step"),
    ("core", "regretkit.core", "regret_loss"),
    ("core", "regretkit.core", "_normalize_nonneg"),
    ("stabilized", "regretkit.stabilized", "stable_prmp_round"),
    ("stabilized", "regretkit.stabilized", "smooth_prmp_round"),
    ("stabilized", "regretkit.stabilized", "stable_prmp_round_alternating"),
    ("stabilized", "regretkit.stabilized", "smooth_prmp_round_alternating"),
    ("stabilized", "regretkit.stabilized", "project_orthant"),
    ("stabilized", "regretkit.stabilized", "project_simplex"),
    ("stabilized", "regretkit.stabilized", "project_chopped"),
    ("fixedpoint", "regretkit.fixedpoint", "_solve"),
    ("fixedpoint", "regretkit.fixedpoint", "operator_F"),
    ("fixedpoint", "regretkit.fixedpoint", "lipschitz_bound"),
    ("games", "regretkit.games", "hard_instance"),
    ("games", "regretkit.games", "random_matrix_game"),
    ("games", "regretkit.games", "random_nfg"),
    ("games", "regretkit.games", "spectral_norm"),
    ("efg", "regretkit.efg.builders", "build_kuhn"),
    ("efg", "regretkit.efg.builders", "build_liars_dice"),
    ("efg", "regretkit.efg.rounds", "predictive_cfr_round"),
    ("efg", "regretkit.efg.rounds", "clairvoyant_cfr_round"),
    ("efg", "regretkit.efg.values", "counterfactual_regret_operator"),
    ("efg", "regretkit.efg.values", "counterfactual_values"),
    ("efg", "regretkit.efg.values", "own_reach_per_infoset"),
    ("harness", "regretkit.harness", "run"),
)

# (layer, defining module, class, method); cached properties included
METHODS = (
    ("games", "regretkit.games", "MatrixGame", "gradients"),
    ("games", "regretkit.games", "MatrixGame", "gradient_for"),
    ("games", "regretkit.games", "MatrixGame", "constants"),
    ("games", "regretkit.games", "NormalFormGame", "gradients"),
    ("games", "regretkit.games", "NormalFormGame", "gradient_for"),
    ("games", "regretkit.games", "NormalFormGame", "constants"),
    ("efg", "regretkit.efg.tree", "TreeBuilder", "build"),
    ("efg", "regretkit.efg.rounds", "BehavioralAverager", "observe"),
    ("harness", "regretkit.harness", "RunTrace", "write_csv"),
)

LAYERS = ("core", "stabilized", "fixedpoint", "games", "efg", "harness", "bench")

# tree passes record the size of the tree they walk
PASS_SPANS = ("efg.counterfactual_values", "efg.own_reach_per_infoset")
STEP_SPANS = ("core.rm_plus_step", "core.prm_plus_step")
ROUND_SPANS = ("stabilized.stable_prmp_round", "stabilized.smooth_prmp_round",
               "stabilized.stable_prmp_round_alternating",
               "stabilized.smooth_prmp_round_alternating")
PROJECTION_SPANS = ("stabilized.project_orthant", "stabilized.project_simplex",
                    "stabilized.project_chopped")
GRADIENT_SPANS = ("games.MatrixGame.gradients", "games.MatrixGame.gradient_for",
                  "games.NormalFormGame.gradients",
                  "games.NormalFormGame.gradient_for")
GENERATOR_SPANS = ("games.hard_instance", "games.random_matrix_game",
                   "games.random_nfg")
CONSTANTS_SPANS = ("games.MatrixGame.constants", "games.NormalFormGame.constants")
BUILDER_SPANS = ("efg.build_kuhn", "efg.build_liars_dice")


def _tree_size(args) -> int:
    return len(args[0].nodes)


class Tracer:
    """Flat, append-only span store shared by every wrapper it makes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._attr = array("i")
        self._stack = [-1]

    def clear(self) -> None:
        # in place: the wrappers hold references to these arrays
        for arr in (self._name, self._start, self._end, self._parent, self._attr):
            del arr[:]
        del self._stack[1:]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, attr_of=None):
        nid = self.intern(name)
        names, starts, ends = self._name, self._start, self._end
        parents, attrs, stack = self._parent, self._attr, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            attrs.append(attr_of(args) if attr_of is not None else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str, attr: int = 0):
        """A span opened by the benchmark itself (set-up, one cell)."""
        i = len(self._start)
        self._name.append(self.intern(name))
        self._parent.append(self._stack[-1])
        self._attr.append(attr)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[i] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Write the name table and the spans, one array per field."""
        np.savez(path, names=np.array(self.names), name=np.array(self._name),
                 start=np.array(self._start), end=np.array(self._end),
                 parent=np.array(self._parent), attr=np.array(self._attr))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int64),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
            "parent": np.array(self._parent, dtype=np.int64),
            "attr": np.array(self._attr, dtype=np.int64),
        }


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "regretkit" or name.startswith("regretkit.")]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every entry point; returns the undo list for ``uninstall``."""
    undo: list[tuple[object, str, object]] = []
    modules = _library_modules()
    for layer, module_name, fn_name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), fn_name)
        wrapped = tracer.wrap(
            original, f"{layer}.{fn_name}",
            _tree_size if f"{layer}.{fn_name}" in PASS_SPANS else None)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
                    bound += 1
        if bound == 0:
            uninstall(undo)
            raise RuntimeError(f"{module_name}.{fn_name} is bound nowhere")
    for layer, module_name, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        name = f"{layer}.{cls_name}.{attr}"
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(tracer.wrap(original.func, name))
            wrapped.__set_name__(cls, attr)
        else:
            wrapped = tracer.wrap(original, name)
        undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def nearest_marked(mark: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For every span, ``mark`` of the closest span on its ancestor chain
    (itself included) whose mark is >= 0, or -1 when there is none."""
    label = mark.copy()
    up = parent.copy()
    while True:
        pending = (label < 0) & (up >= 0)
        if not pending.any():
            return label
        idx = up[pending]
        label[pending] = mark[idx]
        up[pending] = parent[idx]


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the time its direct children cover.  Calls on
    one thread nest, so the children of a span never overlap."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=duration.size)
    return duration - covered


class PassSpans:
    """One traced pass, indexed for the per-layer metrics."""

    def __init__(self, tracer: Tracer, spans: dict[str, np.ndarray]):
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = spans["name"]
        self.attr = spans["attr"]
        self.duration = spans["end"] - spans["start"]
        self.self_time = self_times(spans)
        parent = spans["parent"]
        codes = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names])
        self.layer = codes[self.name]
        index = np.arange(self.name.size)
        self.in_run = nearest_marked(
            np.where(self.is_("harness.run"), index, -1), parent) >= 0
        self.cell = nearest_marked(
            np.where(self.is_("bench.cell"), self.attr, -1), parent)
        # a projection made by another projection (the chopped projection
        # falling back to the simplex one) is part of its caller's call
        projection = self.is_(*PROJECTION_SPANS)
        has_parent = parent >= 0
        nested = np.zeros(self.name.size, dtype=bool)
        nested[has_parent] = projection[parent[has_parent]]
        self.outer_projection = projection & ~nested

    def is_(self, *names: str) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.name, ids)

    def count(self, *names: str) -> int:
        return int(np.count_nonzero(self.is_(*names)))

    def layer_self_s(self, layer: str) -> float:
        """Self time of the layer's spans while solving (inside ``run``)."""
        mask = (self.layer == LAYERS.index(layer)) & self.in_run
        return float(self.self_time[mask].sum())

    def per_cell(self, mask: np.ndarray, num_cells: int) -> np.ndarray:
        cells = self.cell[mask & (self.cell >= 0)]
        return np.bincount(cells, minlength=num_cells)

    def per_cell_counts(self, num_cells: int) -> dict[str, np.ndarray]:
        """Counts per benchmark cell that the code fixes per round."""
        return {
            "outer projections": self.per_cell(self.outer_projection, num_cells),
            "tree passes": self.per_cell(self.is_(*PASS_SPANS), num_cells),
            "operator evaluations": self.per_cell(
                self.is_("fixedpoint.operator_F"), num_cells),
        }

    def metrics(self, tree_sizes: dict[str, int]) -> dict[str, float]:
        passes = self.is_(*PASS_SPANS)
        out = {
            "core.steps": self.count(*STEP_SPANS),
            "core.self_s": self.layer_self_s("core"),
            "stabilized.rounds": self.count(*ROUND_SPANS),
            "stabilized.projections": int(np.count_nonzero(self.outer_projection)),
            "stabilized.self_s": self.layer_self_s("stabilized"),
            "fixedpoint.solves": self.count("fixedpoint._solve"),
            "fixedpoint.operator_calls": self.count("fixedpoint.operator_F"),
            "fixedpoint.self_s": self.layer_self_s("fixedpoint"),
            "games.gradient_calls": self.count(*GRADIENT_SPANS),
            "games.self_s": self.layer_self_s("games"),
            "games.generate_s": float(
                self.duration[self.is_(*GENERATOR_SPANS)].sum()),
            "games.constants_s": float(
                self.duration[self.is_(*CONSTANTS_SPANS)].sum()),
            "efg.passes": int(np.count_nonzero(passes)),
            "efg.nodes_visited": int(self.attr[passes].sum()),
            "efg.self_s": self.layer_self_s("efg"),
            "efg.build_s": float(self.duration[self.is_(*BUILDER_SPANS)].sum()),
            "harness.record_self_s": float(
                self.self_time[self.is_("harness.run")].sum()),
        }
        for tree, size in tree_sizes.items():
            on_tree = passes & (self.attr == size)
            n = int(np.count_nonzero(on_tree))
            out[f"efg.pass_us.{tree}"] = (
                float(self.self_time[on_tree].sum()) / n * 1e6 if n else 0.0)
        return out
