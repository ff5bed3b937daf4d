"""Checks on the library's source text."""

import ast
from collections import Counter
from pathlib import Path

import regretkit

SRC = Path(regretkit.__file__).parent

# the only calls of the built-in ``sum``: each adds ints or Fractions,
# where the order is exact.  On floats, ``sum`` compensates from Python
# 3.12 on, so a float sum in the library is a left-to-right loop from 0.0
# and gives the same floats on every interpreter.
INT_OR_FRACTION_SUMS = Counter({
    ("harness.py", "resolve_eta"): 1,  # the players' dimensions
    ("efg/builders.py", "settle"): 1,  # a count of dice
    ("core.py", "_g_exact"): 1,  # exact replay: Fractions
    ("core.py", "_f_exact"): 1,
})


def _builtin_sum_calls() -> Counter:
    """(file, innermost enclosing function or "<module>") of every call of
    the name ``sum``, counted."""
    calls = Counter()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "sum"):
                calls[path, owner] += 1
            visit(child, path, owner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(),
              "<module>")
    return calls


def test_builtin_sum_only_on_ints_and_fractions():
    assert _builtin_sum_calls() == INT_OR_FRACTION_SUMS


def test_every_compiled_tree_attribute_is_read_outside_its_init():
    """Each attribute ``CompiledTree.__init__`` sets on ``self`` is read, by
    name, somewhere in the library outside that ``__init__``."""
    init, read = None, set()
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef) and node.name == "CompiledTree":
                init = next(f for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and f.name == "__init__")
                inside = {id(n) for n in ast.walk(init)}
        read |= {node.attr for node in ast.walk(module)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and id(node) not in inside}
    assigned = {node.attr for node in ast.walk(init)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert len(assigned) > 10
    assert sorted(assigned - read) == []


def test_only_counterfactual_values_takes_validate():
    """``validate`` is a parameter of one library function: the full tree
    pass that a CFR round calls on a profile it made itself."""
    owners = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)]
                if "validate" in names:
                    owners.add((path.relative_to(SRC).as_posix(), node.name))
    assert owners == {("efg/values.py", "counterfactual_values")}


def test_cli_reads_and_writes_game_files_through_games():
    """``cli`` names neither tree-file function: every game file is read by
    ``games.load_game`` and written by ``games.save_game``."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant):  # getattr(efg, "load_tree")
            names.add(node.value)
    assert not names & {"load_tree", "save_tree"}


def _imported_modules(node, package: str) -> set[str]:
    """Full names of the modules an import statement in ``package`` may
    name: ``from ..a import b`` in ``regretkit.efg`` gives
    ``regretkit.a`` and ``regretkit.a.b``."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    parts = package.split(".")
    if node.level:
        parts = parts[:len(parts) - node.level + 1]
    base = ".".join(parts + ([node.module] if node.module else []))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def test_imports_sit_at_module_level_and_efg_needs_no_solver_module():
    """No ``import`` statement sits inside a function, and no module under
    ``efg/`` imports ``fixedpoint``, ``games`` or ``harness``: the
    chopped orthant's rules reach ``efg`` from ``stabilized``, so
    ``games`` imports ``efg`` at module level with no cycle."""
    nested, efg_imports = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        package = ".".join(["regretkit", *path.relative_to(SRC).parts[:-1]])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [(name, inner.lineno) for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
            elif (name.startswith("efg/")
                  and isinstance(node, (ast.Import, ast.ImportFrom))):
                efg_imports |= {(name, module) for module
                                in _imported_modules(node, package)}
    assert nested == []
    solvers = ("regretkit.fixedpoint", "regretkit.games", "regretkit.harness")
    assert sorted((name, module) for name, module in efg_imports
                  if module.startswith(solvers)) == []


# numpy's own loops for these round differently from libm on some
# arguments; the square root, sums and products are correctly rounded
NUMPY_TRANSCENDENTALS = {"log", "log1p", "log2", "log10", "exp", "exp2",
                         "expm1", "sin", "cos", "tan", "power", "float_power"}


def test_rng_takes_no_transcendental_from_numpy():
    """``_rng`` names no numpy transcendental function, called or passed
    on: its normals take log, cos and sin from libm, so seeded games keep
    their payoffs."""
    used = []
    for node in ast.walk(ast.parse((SRC / "_rng.py").read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            used.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            used += [(node.lineno, alias.name) for alias in node.names
                     if alias.name in NUMPY_TRANSCENDENTALS | {"*"}]
    assert used == []


# the functions every round runs (file, function name; methods included)
PER_ROUND_KERNELS = (
    ("core.py", "_normalize_nonneg"),
    ("core.py", "_checked"),
    ("core.py", "_regret_loss"),
    ("core.py", "_prm_plus_update"),
    ("stabilized.py", "_check_finite"),
    ("stabilized.py", "_simplex_kernel"),
    ("stabilized.py", "_chopped_kernel"),
    ("stabilized.py", "_ragged_chopped"),
    ("stabilized.py", "_in_chopped"),
    ("stabilized.py", "_plays"),
    ("stabilized.py", "_lifted_round"),
    ("games.py", "gradients"),
    ("games.py", "gradient_for"),
    ("games.py", "_loss_gradient"),
    ("fixedpoint.py", "operator_F"),
    ("fixedpoint.py", "_solve"),
    ("efg/rounds.py", "_play"),
    ("efg/rounds.py", "predictive_cfr_round"),
    ("efg/rounds.py", "clairvoyant_cfr_round"),
    ("efg/values.py", "_source"),
    ("efg/values.py", "_node_values"),
    ("efg/values.py", "_sweep"),
    ("efg/values.py", "_pass"),
    ("efg/values.py", "_group_regrets"),
)
# numpy functions that reach their C loop through a Python-level wrapper,
# and the ndarray methods that do
NUMPY_WRAPPERS = {"cumsum", "argmax", "flatnonzero", "nonzero", "sort",
                  "full", "all", "any", "sum", "dot"}
WRAPPED_METHODS = {"sum", "all", "any", "cumsum"}


def test_per_round_kernels_call_numpy_without_its_python_wrappers():
    """The per-round kernels call ufunc methods (``np.add.reduce``,
    ``np.add.accumulate``, ``np.logical_and.reduce``) and ndarray methods
    (``.dot``, ``.argmax``, ``.nonzero``, ``.sort``, ``.fill``), never
    numpy's Python-level wrappers around the same loops."""
    wrapped, missing = [], []
    for name, function in PER_ROUND_KERNELS:
        defs = [node for node in ast.walk(ast.parse((SRC / name).read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == function]
        if not defs:
            missing.append((name, function))
        for node in (n for d in defs for n in ast.walk(d)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            if (isinstance(owner, ast.Name) and owner.id in ("np", "numpy")
                    and attr in NUMPY_WRAPPERS) or attr in WRAPPED_METHODS:
                wrapped.append((name, function, node.lineno, attr))
    assert wrapped == []
    assert missing == []
