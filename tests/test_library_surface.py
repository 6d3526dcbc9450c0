"""Every public function of the library is one the library uses, with
every option it offers.

A public module-level function or class method that no code in
``src/dpflow`` refers to is either dead or called only by tests, and code
only tests call belongs in the tests, as an oracle that keeps its
assertions. So does a parameter with a default that no call in the library
or in the benchmark's workloads ever passes. This walks the package source
with ``ast`` and fails on such a name, unless the short allowlist below
holds it; the allowlist may hold only names the benchmark patches.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_bench_contract import BENCH, load_bench_module

SRC = Path(__file__).resolve().parent.parent / "src" / "dpflow"

ALLOWED = {
    # perfbench/tracing.py patches FlowModel.get_flat and set_flat and times
    # them as flows.param_copy, and patches GmmBase.grad_log_prob as
    # gmm.base_grad_log_prob; they go with the benchmark version that stops
    # timing them (ROADMAP item 4).
    "get_flat",
    "set_flat",
    "grad_log_prob",
    # perfbench/workloads.py standardizes its generated data, and
    # perfbench/tracing.py times that as data.standardize; no command
    # rescales its CSV.
    "standardize",
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
    ``tree``, a pair (target, owners): ``owners`` holds the ids of the
    enclosing defs that bear that same name, since a reference counts for a
    def only from outside it. ``target`` is the id of the one def the
    reference can mean, for ``self.<name>`` inside a class that defines
    ``<name>``, and None when any def of that name may be meant."""
    def visit(node, enclosing, methods):
        if isinstance(node, ast.ClassDef):
            methods = {n.name: n for n in node.body if isinstance(n, _DEFS)}
        if isinstance(node, _DEFS):
            enclosing = enclosing + (node,)
        name = node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None:
            own = None
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and name in methods:
                own = id(methods[name])
            refs.setdefault(name, []).append(
                (own, {id(d) for d in enclosing if d.name == name}))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, methods)
    visit(tree, (), {})


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Sorted names of the public functions and methods defined in
    ``sources`` (file name -> source text) that no Name or Attribute node
    of any of them refers to from outside the def itself."""
    trees = [ast.parse(text, filename=name) for name, text in sources.items()]
    refs: dict[str, list[tuple]] = {}
    for tree in trees:
        _references(tree, refs)
    return sorted(fn.name for tree in trees for fn in _public_defs(tree)
                  if not any(target in (None, id(fn)) and id(fn) not in owners
                             for target, owners in refs.get(fn.name, ())))


def _defaulted(fn):
    """(positional index or None, name) of each parameter of ``fn`` that
    has a default; a method's index does not count ``self``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unpassed_defaults(sources: dict[str, str],
                      callers: dict[str, str]) -> list[str]:
    """Sorted ``name(param=...)`` for each parameter with a default of a
    public function or method in ``sources`` that no call in ``sources``
    or ``callers`` passes, by position or keyword, to a callable of that
    name. A ``*`` argument counts as passing every position and a ``**``
    argument every keyword."""
    trees = [ast.parse(text, filename=name) for name, text in sources.items()]
    calls: dict[str, list[ast.Call]] = {}
    for name, text in {**sources, **callers}.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(callee, []).append(node)

    def passed(call, index, param):
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if index is not None and index < len(call.args):
            return True
        return any(kw.arg in (None, param) for kw in call.keywords)

    return sorted(f"{fn.name}({param}=...)"
                  for tree in trees for fn in _public_defs(tree)
                  for index, param in _defaulted(fn)
                  if not any(passed(call, index, param)
                             for call in calls.get(fn.name, ())))


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


def test_walker_resolves_self_references_to_the_own_class():
    """``self.grad`` inside Spherical means Spherical.grad: it does not
    make Mixture's method of the same name used."""
    source = '''
class Spherical:
    def grad(self, u):
        return -u

    def both(self, u):
        return self.grad(u)


class Mixture:
    def grad(self, u):
        return u

    def both(self, u):
        return u


def use(base, u):
    return base.both(u)


RESULT = use(Spherical(), 1.0)
'''
    assert unreferenced({"sample.py": source}) == ["grad"]


def test_walker_finds_exactly_the_unpassed_default():
    """Of defaults passed by keyword, by position (a method's index not
    counting ``self``), through ``*`` and through ``**``, and by a call in
    the callers alone, it reports the one no call passes."""
    source = '''
def curve(q, sigma, orders=(2, 3), check=True):
    return q


class Box:
    def size(self, scale=1.0, pad=0):
        return scale + pad


def spread(a, b=1, c=2):
    return a


def use(box, args, kwargs):
    box.size(2.0)
    spread(*args)
    spread(1, **kwargs)
    return curve(0.1, 1.0, check=False)
'''
    callers = {"bench.py": "Box().size(pad=3)\n"}
    assert unpassed_defaults({"sample.py": source}, callers) \
        == ["curve(orders=...)"]


def _library_sources():
    return {str(path.relative_to(SRC)): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def test_allowlist_holds_only_names_the_benchmark_patches():
    patched = {attr for _, attr, _, _ in
               load_bench_module("tracing")._patch_table()}
    assert sorted(ALLOWED - patched) == [], (
        "allowlisted names perfbench/tracing.py does not patch: move "
        "them into the tests that use them")


def test_every_default_is_passed_by_a_caller():
    workloads = BENCH / "workloads.py"
    found = unpassed_defaults(_library_sources(),
                              {str(workloads): workloads.read_text()})
    assert found == [], (
        "parameters with a default that no call in src/dpflow or "
        "perfbench/workloads.py passes: drop the parameter, or move the "
        "option into the tests that use it")


def test_every_public_function_is_used_by_the_library():
    found = set(unreferenced(_library_sources()))
    assert sorted(found - ALLOWED) == [], (
        "public functions nothing in src/dpflow calls: move each into the "
        "tests that use it, or delete it")
    assert sorted(ALLOWED - found) == [], (
        "allowlisted names the library now uses or no longer defines: "
        "remove them from ALLOWED")
