"""Every dotted name that the README or a docstring of the package cites in
backticks, ``module.name`` or ``Class.attr``, names something that exists,
the README's quoted CLI error is what the CLI prints, and each tampered
cache entry it quotes is a miss.

A reference whose first part is a package module resolves by ``getattr`` on
that module, part by part; one whose first part is a class of the package
resolves by ``getattr`` on the class, or, for its last part, when the
class's source assigns ``self.<attr>``.  Other dotted names in backticks (a
file name such as ``polynomial.schema.json``) are not references."""

import ast
import importlib
import inspect
import json
import pathlib
import re

import idealtutte
from idealtutte.cli import main

PACKAGE = pathlib.Path(idealtutte.__file__).parent
README = PACKAGE.parent.parent / "README.md"
DOTTED = re.compile(r"`+([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`+")
MODULES = {path.stem: f"idealtutte.{path.stem}" for path in PACKAGE.glob("*.py")}


def _classes():
    """Class name -> class, over every module of the package."""
    out = {}
    for name in MODULES.values():
        for cls_name, cls in inspect.getmembers(importlib.import_module(name), inspect.isclass):
            if cls.__module__.startswith("idealtutte."):
                out[cls_name] = cls
    return out


def _docstrings(path):
    tree = ast.parse(path.read_text())
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node):
            yield ast.get_docstring(node)


def references():
    """(where, dotted name) of every backticked dotted name in the README
    and in the package's docstrings, ``idealtutte.`` stripped."""
    texts = [("README.md", README.read_text())]
    texts += [(path.name, doc) for path in sorted(PACKAGE.glob("*.py"))
              for doc in _docstrings(path)]
    for where, text in texts:
        for match in DOTTED.finditer(text):
            yield where, match.group(1).removeprefix("idealtutte.")


def _resolves(parts, classes):
    head, *rest = parts
    if head in MODULES:
        obj = importlib.import_module(MODULES[head])
    elif head in classes:
        obj = classes[head]
    else:
        return None  # not a reference to the package
    for i, part in enumerate(rest):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.isclass(obj) and i == len(rest) - 1:
            return re.search(rf"\bself\.{part}\s*=[^=]", inspect.getsource(obj)) is not None
        else:
            return False
    return True


def test_every_dotted_reference_resolves():
    classes = _classes()
    checked, stale = 0, []
    for where, name in references():
        ok = _resolves(name.split("."), classes)
        if ok is not None:
            checked += 1
            if not ok:
                stale.append(f"{where}: {name}")
    assert not stale
    assert checked > 50  # the README's module table alone cites dozens


def test_a_stale_reference_is_caught():
    classes = _classes()
    assert _resolves(["exactpoly", "no_such_function"], classes) is False
    assert _resolves(["RootPoset", "no_such_attribute"], classes) is False
    assert _resolves(["RootPoset", "height_masks"], classes)  # assigned in __init__
    assert _resolves(["polynomial", "schema", "json"], classes) is None


def test_readme_quotes_the_schema_rejection_the_cli_prints(capsys):
    quoted = re.search(r"`(error: ideal spec rejected by schema: [^`]*)`", README.read_text())
    assert main(["tutte", "--type", "G2", "--roots", "[[-1,0]]", "--no-cache"]) == 1
    assert capsys.readouterr().err == " ".join(quoted.group(1).split()) + "\n"


def test_readme_quotes_tampered_cache_entries_the_cli_recomputes(capsys, tmp_path):
    # the README quotes the G2 ideal's cache entry and tampered ones: each
    # tampered one, written as the entry, is a miss, recomputed and overwritten
    triple = r"\[-?\d+,-?\d+,-?\d+\]"
    quoted = re.findall(rf"`(\[{triple}(?:,{triple})*\])`", README.read_text())
    args = ["tutte", "--type", "G2", "--roots", "[[3,1],[3,2]]", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    want = json.loads(capsys.readouterr().out)["terms"]
    (path,) = tmp_path.iterdir()
    good = path.read_text()
    tampered = [entry for entry in quoted if json.loads(entry) != json.loads(good)]
    assert len(tampered) == len(quoted) - 1 >= 4
    for entry in tampered:
        path.write_text(entry)
        assert main(args) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["provenance"]["cache"] == "miss" and body["terms"] == want, entry
        assert path.read_text() == good
