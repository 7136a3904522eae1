"""The benchmark names package functions by module and name; they must exist.

``benchmarks/run.py`` reads per-function span counts as
``names["layer.func"]`` and ``benchmarks/tracer.py`` attaches counting hooks
by the same names.  A renamed or deleted function would otherwise surface
only in a traced benchmark run.  The oracles that the benchmark and the
tests compare against must stay independent of the package.  These checks
read the benchmark files and change nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _unresolved(quals, layers):
    """Qualified names that are not a public function of their layer module."""
    bad = []
    for qual in quals:
        layer, name = qual.split(".")
        mod = importlib.import_module(f"stcmsense.{layer}")
        fn = getattr(mod, name, None)
        if (layer not in layers or name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__):
            bad.append(qual)
    return bad


def test_run_names_resolve(tracer):
    quals = set(re.findall(r'names\["([\w.]+)"\]', (BENCH / "run.py").read_text()))
    assert len(quals) >= 10
    assert _unresolved(sorted(quals), tracer.LAYERS) == []


def test_tracer_hooks_resolve(tracer):
    assert tracer._HOOKS
    assert _unresolved(sorted(tracer._HOOKS), tracer.LAYERS) == []


def test_traced_methods_exist(tracer):
    assert ("bounds", "MultiTargetFimBuilder", "fim") in tracer.METHODS
    for layer, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"stcmsense.{layer}"), cls_name)
        assert inspect.isfunction(cls.__dict__.get(meth))


def test_hook_argument_positions(tracer):
    # each counting hook reads arguments by position and name through
    # _arg(args, kwargs, pos, "name"); the package parameter at that
    # position must still carry that name
    checked = 0
    for qual, hook in tracer._HOOKS.items():
        reads = re.findall(r'_arg\(args, kwargs, (\d+), "(\w+)"\)', inspect.getsource(hook))
        layer, name = qual.split(".")
        params = list(inspect.signature(
            getattr(importlib.import_module(f"stcmsense.{layer}"), name)).parameters)
        for pos, arg in reads:
            assert int(pos) < len(params) and params[int(pos)] == arg, (qual, pos, arg, params)
            checked += 1
    assert checked >= 7


@pytest.mark.parametrize("path", [BENCH / "oracle.py", Path(__file__).parent / "pattern_oracle.py"],
                         ids=["benchmarks-oracle", "tests-pattern_oracle"])
def test_oracles_do_not_import_the_package(path):
    # an oracle that reused the package's code would check it against itself
    tree = ast.parse(path.read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert modules and [m for m in modules if m.split(".")[0] == "stcmsense"] == []
