"""No module of stsbot imports a name it never uses.

The repo has no linter, so this checks, with the standard library's ``ast``,
what a linter's unused-import rule (F401) would.  The only names exempt are
the ones the benchmark reads or patches by name on the importing module: the
modules' entries of PATCH_POINTS and ``engine.SimLog``.  Each carries a
``# noqa: F401`` mark in its module, which can go only with its exemption.
"""

import ast
import inspect
from pathlib import Path

import pytest
from test_patch_points import PATCH_POINTS

import stsbot

SRC = Path(stsbot.__file__).parent
PERFBENCH_READS = {(owner.__name__.rpartition(".")[2], name)
                   for owner, name in PATCH_POINTS if inspect.ismodule(owner)}
PERFBENCH_READS.add(("engine", "SimLog"))


def imports(tree: ast.Module):
    """Each import statement, less ``from __future__``'s, and the names it binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield node, {a.asname or a.name for a in node.names}


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads: in its code, in ``__all__`` and in its
    annotations, a string annotation's names included (under
    ``from __future__ import annotations`` every annotation is a string)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg, args.kwarg)
                           if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= used_names(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return set().union(*(names for _, names in imports(tree))) - used_names(tree)


MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = unused_imports((SRC / f"{module}.py").read_text())
    exempt = {name for owner, name in PERFBENCH_READS if owner == module}
    assert unused - exempt == set()


@pytest.mark.parametrize("module", MODULES)
def test_a_noqa_mark_sits_on_each_import_kept_for_the_benchmark_alone(module):
    # and on no other import, so a mark goes when its patch point does
    source = (SRC / f"{module}.py").read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    kept = unused_imports(source)
    for node, names in imports(tree):
        marked = "# noqa: F401" in lines[node.lineno - 1]
        assert marked == bool(names & kept), (module, node.lineno)


@pytest.mark.parametrize("source, unused", [
    ("import os\n", {"os"}),
    ("import os.path\nos.sep\n", set()),
    ("from a import b as c\nb\n", {"c"}),
    ("from __future__ import annotations\nfrom a import B\ndef f(x: B) -> None: ...\n", set()),
    ("from a import B\ndef f() -> 'list[B]': ...\n", set()),
    ("from a import B\nx: 'B | None' = None\n", set()),
    ("from a import B\n__all__ = ['B']\n", set()),
    ("from a import B\nx = 'B'\n", {"B"}),
], ids=["unused", "dotted", "alias", "annotation", "string_return", "string_variable",
        "all", "plain_string"])
def test_the_check_reads_names_as_a_linter_does(source, unused):
    assert unused_imports(source) == unused
