"""The benchmark names package functions by module and name; they must exist.

``benchmarks/run.py`` reads per-function span counts as
``names["layer.func"]`` and ``benchmarks/tracer.py`` attaches counting hooks
by the same names.  A renamed or deleted function would otherwise surface
only in a traced benchmark run.  The oracles that the benchmark and the
tests compare against must stay independent of the package.  The map
outputs must pass the benchmark's own output check on every cell, not only
on its sampled rows, and keep the row counts its counting hooks read.
These checks read the benchmark files and change nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from stcmsense import experiments
from stcmsense.config import build_model, fixed_scene, load_config

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def check(monkeypatch):
    """benchmarks/check.py with every row and every masked row sampled."""
    monkeypatch.syspath_prepend(str(BENCH))  # check.py imports oracle and workloads
    spec = importlib.util.spec_from_file_location("benchmark_check", BENCH / "check.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # its dataclasses look it up
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "RANDOM_ROWS", 10**9)
    monkeypatch.setattr(mod, "MASKED_ROWS", 10**9)
    return mod


def _model_data(cfg):
    # the raw data benchmarks/run.py hands the checker
    model = build_model(cfg)
    fixed = [tuple(p.position) for p in fixed_scene(cfg, model)]
    return model.code.entries, model.pilots.symbols, model.hypotheses.priors, fixed


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


@pytest.mark.parametrize("path", [BENCH / "oracle.py", Path(__file__).parent / "pattern_oracle.py",
                                  Path(__file__).parent / "echo_oracle.py"],
                         ids=["benchmarks-oracle", "tests-pattern_oracle", "tests-echo_oracle"])
def test_oracles_do_not_import_the_package(path):
    # an oracle that reused the package's code would check it against itself
    tree = ast.parse(path.read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert modules and [m for m in modules if m.split(".")[0] == "stcmsense"] == []


MAP_RUNNERS = {"crb-map": experiments.run_crb_map, "peb-map": experiments.run_peb_map,
               "ris-compare": experiments.run_ris_compare}


@pytest.mark.parametrize("verb,n_targets", [("crb-map", 1), ("peb-map", 1), ("ris-compare", 1),
                                            ("crb-map", 10), ("peb-map", 10)])
def test_every_map_cell_matches_the_oracle(check, tmp_path, verb, n_targets):
    # the benchmark samples 16 rows and 8 masked rows per file; a last-ulp
    # move or a mask flip anywhere on the lattice must show here
    cfg = load_config(overrides={"n_targets": n_targets, "grid_res_m": 10.0, "threads": 1})
    MAP_RUNNERS[verb](cfg, str(tmp_path))
    res = check.Checker(0, _model_data).check(verb, cfg, str(tmp_path))
    xs, zs = check.lattice(cfg)
    assert res.problems == []
    assert res.undecidable == 0
    assert res.cells_checked == len(check.MAP_FILES[verb]) * len(xs) * len(zs)


@pytest.mark.parametrize("verb", sorted(MAP_RUNNERS))
def test_map_rows_are_sized_lists(check, tmp_path, monkeypatch, verb):
    # the tracer's write_csv hook counts rows with len(rows); a generator or
    # zip object there would fail only a traced benchmark run
    cfg = load_config(overrides={"grid_res_m": 20.0, "threads": 1})
    xs, zs = check.lattice(cfg)
    original, written = experiments.write_csv, []

    def write_csv(path, header, rows):
        assert len(rows) == len(xs) * len(zs)
        written.append(path)
        original(path, header, rows)

    monkeypatch.setattr(experiments, "write_csv", write_csv)
    MAP_RUNNERS[verb](cfg, str(tmp_path))
    assert len(written) == len(check.MAP_FILES[verb])
