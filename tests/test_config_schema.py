"""Fuzz of the config schema: ``merge_config`` on random documents.

Each document sets random JSON values at random key paths, known or not.
``merge_config`` must either raise ConfigError naming a path the document
holds (``config`` for a document that is no object), or return a config
whose every leaf has its default's type and passes its ``RULES`` row,
whose panel sits on the BS boresight above the BS, and whose ``scene``
entries build.  Any other exception fails.  Only ``merge_config`` and the
fixed-point reader ``_scene`` run.  ``n_trials`` and the model
arrays (pilot block, code, a chunk of pattern temporaries) are bounded; the
per-block work of the verbs is not fuzzed yet.
"""

import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcmsense.cli import main
from stcmsense.config import DEFAULT_CONFIG, RULES, _scene, config_hash, merge_config
from stcmsense.constants import MAX_MODEL_BYTES, MAX_TRIALS
from stcmsense.errors import ConfigError


def _paths(tree, prefix=""):
    """(path, default) of every key in a nested dict, objects included."""
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        yield path, value
        if isinstance(value, dict):
            yield from _paths(value, path)


PATHS = dict(_paths(DEFAULT_CONFIG))
LEAVES = {p: d for p, d in PATHS.items() if not isinstance(d, dict)}
OBJECTS = [""] + [p for p, d in PATHS.items() if isinstance(d, dict)]

# ints far past the float range, NaN and +-inf included
NUMBERS = st.one_of(st.integers(), st.integers(min_value=-(10**400), max_value=10**400),
                    st.floats())
# numbers a rule may accept, so that documents also reach the cross-key checks
NEAR = st.sampled_from([0, 1, 2, 3, 4, 9, 10, 16, 1e-4]) | st.floats(-400, 400)
JSON = st.recursive(st.none() | st.booleans() | NUMBERS | st.text(max_size=6),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                    max_leaves=12)
KINDS = st.sampled_from(["absent", "human_like", "object_like", None])
# points, now and then on a terminal or the default two-target spot
XYZ = st.lists(NEAR, min_size=3, max_size=3)
SPOT = st.one_of(XYZ, XYZ, XYZ, st.sampled_from([[0, 0, 0], [0, 0, 100], [60.0, 0, 40]]))
POINT = SPOT | st.lists(NEAR | NUMBERS, min_size=2, max_size=4)


def _value(path: str, lean: bool):
    """Values for one key: any JSON value, or with ``lean`` values that its
    rule may well accept."""
    default = LEAVES.get(path)
    if path == "scene":
        entry = st.fixed_dictionaries({"position": SPOT, "rcs_dbsm": st.floats(-300, 300),
                                       "kind": KINDS})
        if lean:
            return st.lists(entry, max_size=3)
        return st.lists(st.dictionaries(
            st.sampled_from(["position", "rcs_dbsm", "kind", "extra"]),
            st.one_of(POINT, NEAR, NUMBERS, KINDS, JSON), max_size=4) | JSON, max_size=3) | JSON
    if isinstance(default, str):
        options = st.sampled_from(["exact", "carrier"])
        return options if lean else options | JSON
    if isinstance(default, list):
        # vectors of the default's length, points put in the y = 0 plane
        near = st.lists(NEAR, min_size=len(default), max_size=len(default)).map(
            lambda v: [v[0], 0, v[2]] if len(v) == 3 else v)
        return near if lean else st.one_of(near, st.lists(NEAR | NUMBERS, max_size=12), JSON)
    if isinstance(default, (int, float)):
        near = st.sampled_from([default, 2 * default, type(default)(default / 2)])
        return st.one_of(near, near, NEAR) if lean else st.one_of(near, NEAR, NUMBERS, JSON)
    return JSON  # an object path, or a key the schema does not know


# moved centres: on one boresight axis more often than not, and now and then
# on a terminal-prone spot (the origin, the default two-target point), so
# that accepted documents reach the checks that depend on the centres
CX = st.sampled_from([0.0, 60.0]) | NEAR
CZ = st.sampled_from([0.0, 40.0, 100.0]) | NEAR


@st.composite
def centres(draw):
    x = draw(CX)
    out = {"bs_center": [x, 0, draw(CZ)], "stcm_center": [x, 0, draw(CZ)]}
    if draw(st.integers(0, 7)) == 0:  # off the boresight axis
        out["stcm_center"][0] = draw(CX)
    if draw(st.integers(0, 3)) == 0:  # move one centre only
        del out[draw(st.sampled_from(sorted(out)))]
    return out


@st.composite
def moved_scenes(draw):
    """Moved centres and the fixed points the terminal check holds against
    them, now and then put on a centre."""
    doc = {"geometry": draw(centres())}
    on = st.sampled_from(list(doc["geometry"].values()))
    spot = st.one_of(on, on, SPOT)
    fixed = draw(st.sampled_from(["none", "two", "ten", "scene"]))
    if fixed in ("two", "ten"):
        doc["n_targets"] = 2 if fixed == "two" else 10
    elif fixed == "scene":
        doc["scene"] = draw(st.lists(st.fixed_dictionaries(
            {"position": spot, "rcs_dbsm": st.floats(-300, 300), "kind": KINDS}), max_size=3))
    return doc


@st.composite
def documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON)
    if draw(st.integers(0, 5)) == 0:
        return draw(moved_scenes())
    lean = draw(st.booleans())
    # the scene and the layout it replaces weigh as much as all the other keys
    nested = st.sampled_from(["scene", "n_targets"])
    paths = draw(st.lists(st.sampled_from(sorted(LEAVES)) | nested, max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:  # a whole object, or a key the schema lacks
        unknown = st.builds(lambda parent, name: f"{parent}.{name}" if parent else name,
                            st.sampled_from(OBJECTS), st.from_regex(r"[a-z_]{1,8}", fullmatch=True))
        paths.append(draw(st.sampled_from(OBJECTS[1:]) | unknown))
    doc = {}
    for path in paths:
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
            if not isinstance(node, dict):
                break
        else:
            node[key] = draw(_value(path, lean))
    return doc


def _held(doc, prefix=""):
    """Every path a document holds, list indices included."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield path
            yield from _held(value, path)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            path = f"{prefix}[{i}]"
            yield path
            yield from _held(value, path)


def _names_held_path(message: str, doc) -> bool:
    if not isinstance(doc, dict):
        return message.startswith("config ")
    held = list(_held(doc))
    if any(repr(p) in message for p in held):  # a key quoted as given
        return True
    tokens = re.findall(r"[A-Za-z_]\w*(?:\[\d+\]|\.\w+)*", message)
    return any(t == p or t.startswith((p + ".", p + "[")) for p in held for t in tokens)


def _typed_like(value, default) -> bool:
    if isinstance(default, list):
        return isinstance(value, list) and (
            not default or all(_typed_like(v, default[0]) for v in value))
    if isinstance(default, (int, float)):
        return type(value) is type(default)
    return True  # an option: its rule decides


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(documents())
def test_merge_config_checks_or_rejects_every_document(doc):
    try:
        cfg = merge_config(doc)
    except ConfigError as exc:
        assert _names_held_path(str(exc), doc), (str(exc), doc)
        return
    assert dict(_paths(cfg)).keys() == PATHS.keys()
    for path, default in LEAVES.items():
        node = cfg
        for name in path.split("."):
            node = node[name]
        test, want = RULES[path]
        assert _typed_like(node, default), (path, node)
        assert test(node), (path, want, node)
    bs, stcm = cfg["geometry"]["bs_center"], cfg["geometry"]["stcm_center"]
    if cfg["scene"]:  # every accepted entry builds
        assert len(_scene(cfg, np.asarray(bs))) == len(cfg["scene"])
    # the panel sits on the BS boresight above the BS, as the bounds and the echo assume
    assert stcm[0] == bs[0] and stcm[2] > bs[2]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, -0.0, 1e-9, 30.0, -50]) | NEAR, min_size=4, max_size=4))
def test_panel_must_sit_on_the_bs_boresight_axis(v):
    # the bounds and the echo see the panel at angle 0 from the BS, above it;
    # the denormal draws give sz > bz with a distance that computes to 0
    bx, bz, sx, sz = v
    doc = {"geometry": {"bs_center": [bx, 0, bz], "stcm_center": [sx, 0, sz]}}
    d_s = np.linalg.norm(np.subtract([bx, 0.0, bz], [sx, 0.0, sz]))  # as SceneGeometry measures it
    if bx == sx and sz > bz and d_s > 0:
        assert merge_config(doc)["geometry"]["stcm_center"] == [float(sx), 0.0, float(sz)]
    else:
        with pytest.raises(ConfigError, match=r"^geometry\.stcm_center "):
            merge_config(doc)


def test_every_leaf_has_a_rule():
    assert RULES.keys() == LEAVES.keys()


def test_default_document_is_pinned():
    # the schema's rows give the defaults, their key order and their digest
    assert config_hash(merge_config({})) == (
        "ad83e71f15386333109760ad1cb98767eb40cc5764987d075336c8236d54a8b6")
    assert list(DEFAULT_CONFIG) == [
        "carrier_hz", "bs", "panel", "code", "harmonics", "wavelength_mode",
        "pilot_total_power_dbm", "noise_power_dbm", "path_loss_exponent", "sigma_nu", "rcs_dbsm",
        "geometry", "grid_res_m", "p_fa", "n_trials", "seed", "threads", "n_targets", "scene",
        "classification_snr_db"]
    assert {k: list(v) for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict)} == {
        "bs": ["antennas"], "panel": ["n_x", "n_y"], "code": ["length", "period_s"],
        "rcs_dbsm": ["human_like", "object_like"],
        "geometry": ["bs_center", "stcm_center", "x_bounds", "z_bounds"]}


def test_n_trials_is_bounded():
    # only the config is resolved: no trial is drawn at either value
    assert merge_config({"n_trials": MAX_TRIALS})["n_trials"] == MAX_TRIALS
    with pytest.raises(ConfigError, match=r"^n_trials must be in \[1, 10000000\], got 10000001$"):
        merge_config({"n_trials": MAX_TRIALS + 1})


# documents whose model arrays each go over the byte budget, and the key named
OVER_BUDGET = [
    ({"bs": {"antennas": 10**6}}, "bs.antennas"),
    ({"bs": {"antennas": 54**2}}, "bs.antennas"),  # 32 M^2 B just over 2^28
    ({"panel": {"n_x": 10**5, "n_y": 10**5}}, "panel"),
    ({"code": {"length": 10**9}}, "panel"),
    ({"harmonics": 5000, "carrier_hz": 1e12}, "harmonics"),
]


@pytest.mark.parametrize("doc,key", OVER_BUDGET)
def test_model_arrays_are_budgeted(doc, key, tmp_path, capsys):
    # the config is refused before anything is allocated: the check's own
    # peak stays far below any of the arrays it refuses
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} .* B budget$"):
            merge_config(doc)
        assert tracemalloc.get_traced_memory()[1] < 10**6
    finally:
        tracemalloc.stop()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["crb-map", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} "), err
    assert not (tmp_path / "out").exists()


def test_default_and_benchmark_configs_fit_the_budget():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = [{}] + [ov for name in workloads.WORKLOADS for _, ov in workloads.overrides(name, 31)]
    assert len(docs) == 8
    for doc in docs:
        merge_config(doc)
    # the largest perfect-square array under the budget passes
    assert 32 * 53**4 <= MAX_MODEL_BYTES < 32 * 54**4
    assert merge_config({"bs": {"antennas": 53**2}})["bs"]["antennas"] == 2809
