"""Source hygiene of the package, read with the standard-library `ast`: no
module imports a name it never uses, no private module-level name is left
unreferenced across the package, the command line imports no private name
of another module, and the stages neither import nor test for a basis class.
The re-exports of `__init__` are exempt.  The README names every option of
the command line."""

import argparse
import ast
import pathlib
import re

import pytest

import prolate
from prolate import cli

PACKAGE = pathlib.Path(prolate.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotations(tree):
    """The annotation expressions of the module's functions and annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            yield node.returns
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    """Every name the module reads: identifiers, attribute names, and the
    identifiers inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _imported(tree):
    """(bound name, line) for each import of the module, `__future__` aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _private_definitions(tree):
    """(name, line) of each private module-level function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, unused


def test_every_private_name_is_referenced():
    # a private name counts as referenced if any module of the package reads
    # it, beyond the statement that defines it
    trees = {path: _tree(path) for path in MODULES}
    reads = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, set()).add(path)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(path)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    reads.setdefault(alias.name, set()).add(path)
    dead = [f"{path.name}:{line} {name}" for path, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in reads]
    assert not dead, dead


def test_cli_imports_no_private_name():
    # the command line uses each layer through its public names only
    tree = _tree(PACKAGE / "cli.py")
    private = [f"cli.py:{node.lineno} {alias.name}" for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


@pytest.mark.parametrize("name", ["cli.py", "analysis.py", "recon.py"])
def test_no_basis_type_dispatch(name):
    # the stages use a basis through its interface alone (paired, cutoff, checks,
    # inner, on_nodes, combine), so they neither import nor test for a basis class
    tree = _tree(PACKAGE / name)
    classes = {"DiskBasis", "SymSetBasis"}
    imported = [f"{name}:{line} {bound}" for bound, line in _imported(tree) if bound in classes]
    dispatch = [f"{name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and classes & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}]
    assert not imported and not dispatch, imported + dispatch


def _options(parser, command="prolate"):
    """(command, option strings) of each option of the parser and of its
    subcommands, --help aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, f"{command} {name}")
        elif action.option_strings and "--help" not in action.option_strings:
            yield command, action.option_strings


def test_every_cli_option_is_named_in_the_readme():
    # an option is named if one of its strings appears as a whole token, so
    # `--c` is not found inside `--c0`
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    unnamed = [f"{command} {'/'.join(strings)}" for command, strings in _options(cli._parser())
               if not any(re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])", readme)
                          for s in strings)]
    assert not unnamed, unnamed
