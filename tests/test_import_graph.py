"""The package's modules import one another without a cycle, counting the
imports made inside functions as well as those at the top of a module; none
imports a private name of another; and none imports numpy when it loads."""

import ast
import graphlib
import pathlib

import pytest

import idealtutte

PACKAGE = pathlib.Path(idealtutte.__file__).parent


def import_graph():
    """module -> the package modules it imports relatively, anywhere in its
    source; ``from . import name`` of a non-module name is an edge to
    ``__init__``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for module in modules:
        edges = graph[module] = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            if node.module:
                edges.add(node.module.split(".")[0])
            else:
                edges.update(a.name if a.name in modules else "__init__" for a in node.names)
    return graph


def test_function_level_imports_are_edges():
    graph = import_graph()
    assert "paper" in graph["cli"]  # cmd_minors imports it inside the function
    assert "__init__" in graph["cli"]  # from . import __version__


def test_package_imports_have_no_cycle():
    try:
        graphlib.TopologicalSorter(import_graph()).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_no_module_imports_a_private_name_of_another():
    # a single leading underscore keeps a name to its own module; dunders
    # such as __version__ are public
    private = sorted(
        f"{path.name}: {alias.name} from .{node.module or ''}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert not private


def load_time_imports(tree):
    """The absolute imports a module makes when it loads: every import
    statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_numpy_when_it_loads():
    # ``import idealtutte``, every one-shot request that needs no numpy engine
    # and the benchmark's set-up probes rely on this: numpy is imported inside
    # the functions that use it
    loads_numpy = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            name.split(".")[0] == "numpy"
            for name in load_time_imports(ast.parse(path.read_text()))
        )
    )
    assert not loads_numpy
