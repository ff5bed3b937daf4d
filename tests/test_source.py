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
