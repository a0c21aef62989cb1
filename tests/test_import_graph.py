"""The package's modules import one another without a cycle, counting the
imports made inside functions as well as those at the top of a module; none
imports a private name of another; the paper's reference route imports no
engine; none imports numpy, or the heavier stdlib modules a request does not
need, when it loads; a fresh interpreter loads only the engine its request
runs; and the engines' dispatcher and the polynomial layer load no CLI."""

import ast
import graphlib
import pathlib
import subprocess
import sys

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


def test_the_paper_imports_no_engine():
    # the paper's route reads its blocks' flags with ideals.block_flags, so
    # minors, its one request, loads none of the engines
    assert not import_graph()["paper"] & {"ffmethod", "flats", "crapo"}


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
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def modules_that_load(banned):
    """The package's source files that import one of ``banned`` (or a
    submodule of one) when they load."""
    return sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            name == b or name.startswith(b + ".")
            for name in load_time_imports(ast.parse(path.read_text()))
            for b in banned
        )
    )


def test_no_module_imports_numpy_when_it_loads():
    # ``import idealtutte``, every one-shot request that needs no numpy engine
    # and the benchmark's set-up probes rely on this: numpy is imported inside
    # the functions that use it
    assert not modules_that_load(["numpy"])


# what a request does not need: dataclasses pulls in inspect, ast, dis and
# tokenize, and fractions pulls in decimal; hashlib and tempfile serve the
# cache alone, and importlib.resources would read packaged files, which no
# request reads
STDLIB_ON_USE = ("dataclasses", "fractions", "hashlib", "tempfile", "importlib.resources")


def test_no_module_imports_heavy_stdlib_when_it_loads():
    assert not modules_that_load(STDLIB_ON_USE)


def loaded_by(code):
    """The modules a fresh ``python -S`` interpreter holds after it runs
    ``code`` with this checkout's package on its path: ``python -S`` skips
    the site hooks that may load some of them before the package does."""
    script = (f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n"
              "print(' '.join(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", script], check=True,
                          capture_output=True, text=True)
    return set(done.stdout.splitlines()[-1].split())


ENGINES = {"idealtutte.crapo", "idealtutte.ffmethod", "idealtutte.flats"}
NEVER = {"idealtutte.paper", "inspect", "decimal", "numpy", *STDLIB_ON_USE}


def test_a_fresh_process_loads_only_what_its_request_runs():
    assert not loaded_by("import idealtutte") & (ENGINES | NEVER)
    one_shot = "from idealtutte import cli\nassert cli.main({!r}) == 0"
    f4 = loaded_by(one_shot.format(["tutte", "--type", "F4", "--full", "--no-cache"]))
    assert "idealtutte.flats" in f4 and not f4 & (ENGINES - {"idealtutte.flats"} | NEVER)
    dp = ["tutte", "--type", "A", "--rank", "7", "--roots", "[[1,1,1,1,1,1,1]]", "--no-cache"]
    dp = loaded_by(one_shot.format(dp))
    assert "idealtutte.ffmethod" in dp and not dp & (ENGINES - {"idealtutte.ffmethod"} | NEVER)
    # an A7 ideal that holds alpha_4 leaves A3 x A3, which auto reads off the
    # A3 lattice: no counting DP is loaded
    a3_a3 = ["tutte", "--type", "A", "--rank", "7", "--boxes", "[[1,4],[5,8]]", "--no-cache"]
    a3_a3 = loaded_by(one_shot.format(a3_a3))
    assert "idealtutte.flats" in a3_a3
    assert not a3_a3 & (ENGINES - {"idealtutte.flats"} | NEVER)
    # minors runs the paper's reference module, which loads no engine and no
    # heavy stdlib
    minors = loaded_by(one_shot.format(["minors", "--type", "B", "--rank", "3"]))
    assert "idealtutte.paper" in minors
    assert not minors & (ENGINES | NEVER - {"idealtutte.paper"})


@pytest.mark.parametrize("module", ["idealtutte.specialize", "idealtutte.exactpoly"])
def test_the_library_layers_load_no_cli(module):
    # an in-process caller of the dispatcher or of the polynomials loads
    # neither the command line nor a schema interpreter
    assert not loaded_by(f"import {module}") & {"idealtutte.cli", "idealtutte.schemacheck"}
