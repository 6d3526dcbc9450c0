"""The names and settings the benchmark in ``perfbench/`` relies on.

The benchmark patches dpflow entry points by name for its traced run and
builds training and init configs with fixed keywords. This reads those
files (it changes nothing there) and checks, in well under a second, that
every patched attribute exists, every config it builds constructs and every
keyword its workloads pass to a dpflow callable is a parameter of that
callable, so a rename or a dropped keyword fails here before a
multi-minute smoke run.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import shlex
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from dpflow.cli import cli
from dpflow.initialization import InitConfig

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name):
    """Import ``perfbench/<name>.py``, registered in ``sys.modules`` before
    it runs so that its dataclasses can resolve their module."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


def test_every_patched_attribute_exists(tracing):
    table = tracing._patch_table()
    assert table
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in table if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("name", ["moons_gdp", "pinwheel_gmm_rdp"])
def test_training_configs_construct(workloads, tmp_path, name):
    run = SimpleNamespace(sizes=workloads.FULL, work=tmp_path, seed=7)
    config = workloads.make(name, run).config(0)
    config.validate()
    assert config.max_steps == workloads.FULL.train_steps


def test_init_config_constructs(workloads):
    InitConfig(seed=0, **workloads.INIT).validate()


def _resolve(module, node):
    """The object an expression of names and attributes names in
    ``module``'s globals, or None (a local, a call, a subscript...)."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, None)
    if isinstance(node, ast.Attribute):
        owner = _resolve(module, node.value)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def test_workload_keywords_are_parameters(workloads):
    """Every keyword (and every key of a module-level dict passed as
    ``**``) that ``perfbench/workloads.py`` gives a dpflow callable names
    one of that callable's parameters."""
    tree = ast.parse(Path(workloads.__file__).read_text())
    checked, unknown = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _resolve(workloads, node.func)
        if not callable(fn) or \
                not getattr(fn, "__module__", "").startswith("dpflow"):
            continue
        params = inspect.signature(fn).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        name = ast.unparse(node.func)
        for kw in node.keywords:
            if kw.arg is None:
                spread = _resolve(workloads, kw.value)
                assert isinstance(spread, dict), ast.unparse(kw.value)
                keys = list(spread)
            else:
                keys = [kw.arg]
            unknown += [(name, key) for key in keys if key not in params]
        checked.add(name)
    assert unknown == []
    assert {"build_maf", "training.train_flow", "training.TrainConfig",
            "initialization.InitConfig", "gmm.gmm_fit_em",
            "data.gen_half_moons"} <= checked


def argv_problems(words):
    """(command, "unknown" or "missing", option) for each option a
    ``dpflow`` argv (command first) gives that its command does not
    declare, and each option the command requires that it does not give;
    (command, "unknown", "command") when no command has that name."""
    command = cli.commands.get(words[0])
    if command is None:
        return [(words[0], "unknown", "command")]
    flags = {word.split("=", 1)[0] for word in words[1:]
             if word.startswith("--")}
    declared = {opt for param in command.params
                for opt in param.opts + param.secondary_opts}
    required = {param.opts[0] for param in command.params if param.required}
    return ([(words[0], "unknown", flag) for flag in sorted(flags - declared)]
            + [(words[0], "missing", flag)
               for flag in sorted(required - flags)])


def test_workload_command_lines_fit_the_cli(workloads):
    """Every ``cli_op`` argv list in ``perfbench/workloads.py`` gives only
    options its command declares, and every option it declares required."""
    tree = ast.parse(Path(workloads.__file__).read_text())
    commands, problems = [], []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cli_op"):
            continue
        argv = node.args[0]
        assert isinstance(argv, ast.List), ast.unparse(argv)
        words = [item.value for item in argv.elts
                 if isinstance(item, ast.Constant)]
        problems += argv_problems(words)
        commands.append(words[0])
    assert problems == []
    assert sorted(commands) == ["anomaly-roc", "dp-ad", "logprob", "sample"]


def readme_command_lines(text):
    """The ``dpflow`` command lines of the ``sh`` blocks of a Markdown
    text, each with its backslash continuations joined, split into words
    (the leading ``dpflow`` dropped)."""
    lines, block, pending = [], False, ""
    for line in text.splitlines():
        if line.startswith("```"):
            block, pending = line == "```sh", ""
            continue
        if not block:
            continue
        pending += line.rstrip("\\").strip() + " "
        if line.endswith("\\"):
            continue
        words = shlex.split(pending, comments=True)
        pending = ""
        if words[:1] == ["dpflow"]:
            lines.append(words[1:])
    return lines


def test_readme_command_lines_fit_the_cli():
    """Every ``dpflow`` line of the README's ``sh`` blocks names a command,
    gives only options it declares and every option it requires, and every
    command has such a line, so the documented usage cannot drift from the
    CLI."""
    readme = (BENCH.parent / "README.md").read_text()
    lines = readme_command_lines(readme)
    assert [problem for words in lines
            for problem in argv_problems(words)] == []
    assert sorted({words[0] for words in lines}) == sorted(cli.commands)


def test_readme_line_reader_joins_continuations():
    """The reader is not vacuous: it joins a continued line, skips other
    languages' blocks, prose and comments, and the check flags an unknown
    command, an unknown option and a missing required one."""
    text = """Prose: dpflow hist --bins 3
```sh
# dpflow comment --bogus
dpflow hist --data d.csv \\
    --standardize --out h.csv
pytest -q
dpflow sample --n 5
dpflow frobnicate
```
```python
dpflow train --data x
```
"""
    lines = readme_command_lines(text)
    assert lines == [["hist", "--data", "d.csv", "--standardize", "--out",
                      "h.csv"], ["sample", "--n", "5"], ["frobnicate"]]
    assert [problem for words in lines
            for problem in argv_problems(words)] == [
        ("hist", "unknown", "--standardize"),
        ("sample", "missing", "--model"), ("sample", "missing", "--out"),
        ("frobnicate", "unknown", "command")]
