"""Import structure of the package: every import at module level, no cycles."""
from __future__ import annotations

import ast
import os

import kurahydro

PACKAGE = os.path.dirname(os.path.abspath(kurahydro.__file__))
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _tree(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        return ast.parse(fh.read())


def _submodule_imports(module):
    """The submodules that module imports relatively at its top level (from .x
    import ... or from . import x); `from . import __version__` imports the
    package itself."""
    found = set()
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names if a.name in MODULES)
    return found - {"__init__"}


def test_no_import_inside_a_function():
    inside = []
    for module in MODULES:
        for func in ast.walk(_tree(module)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    f"{module}.py:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not inside, inside


def test_submodule_imports_have_no_cycle():
    graph = {module: _submodule_imports(module) for module in MODULES}
    assert graph["experiments"] >= {"fv", "io"}  # both forms of relative import
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(" -> ".join(path[path.index(module):] + [module]))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in MODULES:
        visit(module)
