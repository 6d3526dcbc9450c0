"""Every public function of the library is one the library uses.

A public module-level function or class method that no code in
``src/dpflow`` refers to is either dead or called only by tests, and code
only tests call belongs in the tests, as an oracle that keeps its
assertions. This walks the package source with ``ast`` and fails on such a
name, unless the short allowlist below holds it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dpflow"

ALLOWED = {
    # perfbench/tracing.py patches FlowModel.get_flat and set_flat and times
    # them as flows.param_copy; they go with the benchmark version that
    # stops timing that copy (ROADMAP item 4).
    "get_flat",
    "set_flat",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_click_command(fn) -> bool:
    """Decorated with ``@<group>.command(...)`` or ``@click.group(...)``:
    click calls it, by way of the decorator."""
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) \
                and target.attr in ("command", "group"):
            return True
    return False


def _public_defs(tree):
    """Module-level functions and class methods that are not dunder,
    ``_private``, click commands or click groups."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            candidates = [n for n in node.body if isinstance(n, _DEFS)]
        else:
            candidates = [node] if isinstance(node, _DEFS) else []
        for fn in candidates:
            if not fn.name.startswith("_") and not _is_click_command(fn):
                yield fn


def _references(tree, refs):
    """Append to ``refs[name]``, for each Name or Attribute node of
    ``tree``, the ids of the enclosing defs that bear that same name: a
    reference counts for a def only from outside it."""
    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing + (node,)
        name = node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None:
            refs.setdefault(name, []).append(
                {id(d) for d in enclosing if d.name == name})
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)
    visit(tree, ())


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Sorted names of the public functions and methods defined in
    ``sources`` (file name -> source text) that no Name or Attribute node
    of any of them refers to from outside the def itself."""
    trees = [ast.parse(text, filename=name) for name, text in sources.items()]
    refs: dict[str, list[set[int]]] = {}
    for tree in trees:
        _references(tree, refs)
    return sorted(fn.name for tree in trees for fn in _public_defs(tree)
                  if all(id(fn) in owners
                         for owners in refs.get(fn.name, ())))


def test_walker_finds_exactly_the_uncalled_function():
    """The walker is not vacuous: of a called function, an uncalled one
    (whose only reference is its own recursive call), a click group and
    command, a dunder and a private function, it reports the uncalled
    one alone."""
    source = '''
import click


def called():
    return 1


def uncalled(n):
    return uncalled(n - 1) if n else 0


@click.group()
def cli():
    pass


@cli.command("run")
def run():
    return Box().size()


def __getattr__(name):
    raise AttributeError(name)


def _private():
    return 2


class Box:
    def size(self):
        return called()
'''
    assert unreferenced({"sample.py": source}) == ["uncalled"]


def test_every_public_function_is_used_by_the_library():
    sources = {str(path.relative_to(SRC)): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    found = set(unreferenced(sources))
    assert sorted(found - ALLOWED) == [], (
        "public functions nothing in src/dpflow calls: move each into the "
        "tests that use it, or delete it")
    assert sorted(ALLOWED - found) == [], (
        "allowlisted names the library now uses or no longer defines: "
        "remove them from ALLOWED")
