import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from stcmsense import bounds, channel, cli, detection, experiments
from stcmsense.cli import main
from stcmsense.classification import confusion_matrix, rayleigh_scale
from stcmsense.config import (
    build_model,
    config_hash,
    dbm_to_watt,
    fixed_scene,
    grid_points,
    load_config,
    merge_config,
)
from stcmsense.detection import Combiner, detection_map
from stcmsense.errors import ConfigError
from stcmsense.experiments import (
    run_classification_mc,
    run_crb_map,
    run_detection_map,
    run_peb_map,
    run_ris_compare,
)
from stcmsense.geometry import angles_from_position, terminal_mask
from stcmsense.io import sha256_file
from stcmsense.validate import run_validate

COARSE = {"grid_res_m": 10.0, "n_trials": 1500, "classification_snr_db": [-5.0, 40.0]}


def csv_bytes(runner, cfg, out):
    """{file name: bytes} of every CSV one experiment call writes."""
    out.mkdir()
    return {os.path.basename(f): Path(f).read_bytes()
            for f in runner(cfg, str(out)) if f.endswith(".csv")}


class RecordingPool:
    """A stand-in process pool that records the workers it is asked for and
    the blocks it maps, and maps them in this process."""

    asked: list = []
    blocks: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        self.blocks.append(len(blocks))
        return map(fn, blocks)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


class TestConfig:
    def test_defaults_reflect_reference_table(self):
        cfg = merge_config({})
        assert cfg["bs"]["antennas"] == 16
        assert cfg["panel"]["n_x"] * cfg["panel"]["n_y"] == 64
        assert cfg["code"]["length"] == 8
        assert cfg["code"]["period_s"] == 2e-6
        assert cfg["carrier_hz"] == 1e10
        assert cfg["noise_power_dbm"] == -120.0
        assert cfg["pilot_total_power_dbm"] == 12.0
        assert cfg["rcs_dbsm"] == {"human_like": 1.0, "object_like": 17.0}
        assert cfg["geometry"]["stcm_center"] == [0.0, 0.0, 100.0]

    def test_dbm_conversion(self):
        assert dbm_to_watt(12.0) == pytest.approx(10 ** (-1.8), rel=1e-14)
        assert dbm_to_watt(-120.0) == pytest.approx(1e-15, rel=1e-14)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            merge_config({"no_such_knob": 1})

    def test_load_file_with_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"harmonics": 4, "seed": 5}))
        cfg = load_config(path, {"seed": 9})
        assert cfg["harmonics"] == 4
        assert cfg["seed"] == 9

    def test_hash_is_stable_and_sensitive(self):
        a = config_hash(merge_config({}))
        b = config_hash(merge_config({}))
        c = config_hash(merge_config({"seed": 1}))
        assert a == b
        assert a != c
        # threads changes no output byte, and a number hashes as its default's type
        for same in ({"threads": 2}, {"harmonics": 3.0}, {"carrier_hz": 10**10},
                     {"classification_snr_db": [-5, 0, 5, 10, 15, 20, 25, 30, 35, 40, 45]}):
            assert config_hash(merge_config(same)) == a, same

    def test_grid_covers_bounds(self, model):
        xs, zs = grid_points(model.geom, 1.0)
        assert len(xs) == 161 and len(zs) == 101
        assert xs[0] == -80.0 and xs[-1] == 80.0 and zs[-1] == 100.0

    def test_explicit_scene_ingestion(self, model):
        cfg = merge_config(
            {
                "scene": [
                    {"position": [10.0, 0.0, 20.0], "rcs_dbsm": 17.0, "kind": "object_like"},
                    {"position": [-5.0, 0.0, 70.0], "rcs_dbsm": 1.0, "kind": "human_like"},
                ]
            }
        )
        pts = fixed_scene(cfg, model)
        assert len(pts) == 2
        assert pts[0].rcs_sqrt == pytest.approx(10 ** 0.85)
        assert pts[1].kind.value == "human_like"

    def test_fixed_scenes(self, model):
        assert fixed_scene(merge_config({}), model) == []
        two = fixed_scene(merge_config({"n_targets": 2}), model)
        assert len(two) == 1
        assert np.allclose(two[0].position, [60.0, 0.0, 40.0])
        ten = fixed_scene(merge_config({"n_targets": 10}), model)
        assert len(ten) == 9
        angles = sorted(np.degrees(np.arctan2(p.position[0], p.position[2])) for p in ten)
        assert angles[0] == pytest.approx(-72.0)
        assert angles[-1] == pytest.approx(72.0)
        steps = np.diff(angles)
        assert np.allclose(steps, 18.0, atol=1e-9)
        assert all(np.linalg.norm(p.position) == pytest.approx(50.0) for p in ten)


class TestExperimentOutputs:
    def test_crb_map_row_count_and_mask_column(self, tmp_path):
        files = run_crb_map(merge_config(COARSE), str(tmp_path))
        header, rows = read_csv(files[0])
        assert header == ["x_m", "z_m", "crb_db", "masked"]
        xs, zs = grid_points(build_model(merge_config(COARSE)).geom, 10.0)
        assert len(rows) == len(xs) * len(zs)
        for r in rows:
            assert r[3] in ("true", "false")
            assert (r[2] == "") == (r[3] == "true")

    def test_manifest_checksums(self, tmp_path):
        files = run_peb_map(merge_config(COARSE), str(tmp_path))
        manifest = json.loads(Path(files[-1]).read_text())
        for name, digest in manifest["outputs"].items():
            p = os.path.join(tmp_path, name)
            assert hashlib.sha256(Path(p).read_bytes()).hexdigest() == digest
        assert manifest["config_sha256"] == config_hash(merge_config(COARSE))

    def test_detection_map_outputs_four_maps(self, tmp_path):
        files = run_detection_map(merge_config(COARSE), str(tmp_path))
        csvs = [f for f in files if f.endswith(".csv")]
        assert len(csvs) == 4
        for f in csvs:
            header, rows = read_csv(f)
            pd = np.array([float(r[2]) for r in rows if r[2]])
            assert np.all(pd >= 1e-4 - 1e-12) and np.all(pd <= 1.0)

    def test_detection_csvs_are_detection_map(self, tmp_path):
        # the CLI map writes detection_map's values cell for cell
        cfg = merge_config(COARSE)
        model = build_model(cfg)
        xs, zs = grid_points(model.geom, 10.0)
        pts = [np.array([x, 0.0, z]) for z in zs for x in xs]
        sig = dict(zip(("human_like", "object_like"), model.hypotheses.rcs_sqrts[1:]))
        scales = {label: (lambda d, s=s: rayleigh_scale(s, d, model.sigma_nu,
                                                       wavelength=model.wavelength,
                                                       iota=model.iota))
                  for label, s in sig.items()}
        maps = detection_map(pts, model.geom, model.ula, model.pilots, model.noise_power,
                             model.p_fa, scales)
        files = run_detection_map(cfg, str(tmp_path))
        assert len(files) == len(maps) + 1
        n_masked = 0
        for (label, comb), pd in maps.items():
            _, rows = read_csv(tmp_path / f"detect_map_{label}_{comb.value}.csv")
            assert len(rows) == len(pts)
            for q, p, r in zip(pts, pd, rows):
                assert (float(r[0]), float(r[1])) == (q[0], q[2])
                assert r[3:] == [label, comb.value, "true" if np.isnan(p) else "false"]
                if np.isnan(p):
                    n_masked += 1
                    assert r[2] == ""
                else:
                    assert float(r[2]) == p
        assert n_masked == 2 * len(maps)  # BS and panel centers

    def test_classification_csv_schema(self, tmp_path):
        files = run_classification_mc(merge_config(COARSE), str(tmp_path))
        header, rows = read_csv(files[0])
        assert header == ["snr_db", "true_class", "p_h0", "p_h1", "p_h2", "n_trials", "seed"]
        assert len(rows) == 2 * 2  # two SNR points, two true classes
        for r in rows:
            total = float(r[2]) + float(r[3]) + float(r[4])
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_classification_rows_are_confusion_rows(self, tmp_path):
        cfg = merge_config(COARSE)
        model = build_model(cfg)
        _, rows = read_csv(run_classification_mc(cfg, str(tmp_path))[0])
        for r in rows:
            j = {"human_like": 1, "object_like": 2}[r[1]]
            gain_scale, est_var = experiments.classification_operating_point(model, float(r[0]), j)
            conf = confusion_matrix(gain_scale, model.hypotheses, est_var,
                                    n_trials=int(r[5]), seed=int(r[6]) + 1000 * j)
            assert [float(p) for p in r[2:5]] == conf[j].tolist()

    def test_classification_csv_bytes_are_pinned(self, tmp_path):
        # any change to the draws, the decision rule or the number format
        # shows here as a different digest
        path = run_classification_mc(merge_config({"n_trials": 20_000, "seed": 31}),
                                     str(tmp_path))[0]
        assert sha256_file(path) == (
            "8a27895fb5c5ed54f5a4b30d67f3c71bbb316f98bd2af6aa29610621cd92e0f2")

    # sha256 of every map CSV at 10 m and seed 31, taken before the writer
    # formatted by column (the R = 10 ones again when the multi-target FIM
    # took its spatial Gram from the steering vectors, peb-map at R = 1 again
    # when its pair information went through the builder's certified 1 x 1
    # inverse, the R = 1 ones again when every single-target bound came from
    # the builder's column Gram); keyed by (verb, n_targets)
    MAP_DIGESTS = {
        ("crb-map", 1): {
            "crb_alpha_map.csv": "3e99e306932a19e6c7a5c42e99f6c40d946da430e2ca7d948a72089137c133d9",
            "crb_xi_map.csv": "0e30cdbed5f4ca5f4911f1f32552cf4e9c2825c2e31530b77a33fc00fa6240e0"},
        ("crb-map", 10): {
            "crb_alpha_map.csv": "e19e41b0499bf158dc8dc0996431a5d7e24ab95b6379f39b2edb4cd4830496d4",
            "crb_xi_map.csv": "e9981f1c8d9296e7966202ed0e57b9cc7b3efc35da3861441f7aeac7753d79d4"},
        ("peb-map", 1): {
            "peb_map.csv": "e7c6df4444a271563f640c28777e932bb38e2859a866cf32f4b2b9e51a1f6625"},
        ("peb-map", 10): {
            "peb_map.csv": "9c6f51652e0f5feff1d7ee3eb96713b706a74539f66392e7cd658641949818b0"},
        ("ris-compare", 1): {
            "ris_compare.csv": "49a321efd554607e6a97aa9698b215754d24c3a6a68d9e00091859a90114d471"},
        ("detect-map", 1): {
            "detect_map_human_like_all_ones.csv":
                "cbc776a4dfa4229a8ba33edaf56571b7339d61543086027f8795609cdc8ec32f",
            "detect_map_human_like_matched.csv":
                "d987339f7988fe3aa9a84202af8885e82f5f15658d9eb9af3241ad44d952db3d",
            "detect_map_object_like_all_ones.csv":
                "d9121d85527c78ce5f3c842336727a630ae13cd6ef1baae0e6f3e215b73fea17",
            "detect_map_object_like_matched.csv":
                "00f49af9920f555da889f1faf7ce888eb00ccebb7ea5a0650f61178b701d21a1"},
    }
    MAP_RUNNERS = {"crb-map": run_crb_map, "peb-map": run_peb_map,
                   "ris-compare": run_ris_compare, "detect-map": run_detection_map}

    @pytest.mark.parametrize("verb,n_targets", sorted(MAP_DIGESTS))
    def test_map_csv_bytes_are_pinned(self, tmp_path, verb, n_targets):
        # any change to a value, a mask, a coordinate or the number format
        # of any map shows here as a different digest
        cfg = merge_config({"grid_res_m": 10.0, "n_targets": n_targets, "seed": 31})
        out = csv_bytes(self.MAP_RUNNERS[verb], cfg, tmp_path / "out")
        assert {name: hashlib.sha256(b).hexdigest() for name, b in out.items()} == (
            self.MAP_DIGESTS[verb, n_targets])

    def test_ris_compare_masked_everywhere(self, tmp_path):
        files = run_ris_compare(merge_config(COARSE), str(tmp_path))
        header, rows = read_csv(files[0])
        interior = [r for r in rows if r[5] == "false"]
        assert interior, "switching panel should be informative somewhere"
        assert all(r[3] == "true" for r in rows)

    def test_peb_axis_masked(self, tmp_path):
        files = run_peb_map(merge_config(COARSE), str(tmp_path))
        header, rows = read_csv(files[0])
        on_axis = [r for r in rows if float(r[0]) == 0.0]
        assert on_axis and all(r[3] == "true" for r in on_axis)
        off_axis = [r for r in rows if r[3] == "false"]
        assert off_axis

    def test_peb_grows_with_range_along_ray(self, tmp_path):
        # beyond the near-field dip (where the shrinking panel-target leg
        # still improves the panel-side bound), range loss dominates and the
        # bound grows monotonically outward
        files = run_peb_map(merge_config(COARSE), str(tmp_path))
        _, rows = read_csv(files[0])
        ray = sorted(
            (float(r[1]), float(r[2]))
            for r in rows
            if r[3] == "false" and float(r[0]) == float(r[1]) and float(r[1]) >= 30.0
        )
        assert len(ray) >= 4
        vals = [v for _, v in ray]
        assert vals == sorted(vals)
        assert vals[-1] > 2.0 * vals[0]

    def test_crb_xi_map_shape(self, tmp_path):
        # panel-side bound below 0 dB wherever that bearing is under 50 deg,
        # and rising steeply at wide bearings
        files = run_crb_map(merge_config(COARSE), str(tmp_path))
        _, rows = read_csv(files[1])
        lo, hi = [], []
        for r in rows:
            if r[3] == "true":
                continue
            x, z, v = float(r[0]), float(r[1]), float(r[2])
            bearing = abs(np.degrees(np.arctan2(x, 100.0 - z))) if z < 100 else 90.0
            if bearing < 50.0:
                lo.append(v)
            elif bearing > 70.0:
                hi.append(v)
        assert lo and hi
        assert max(lo) < 0.0
        assert np.mean(hi) > np.mean(lo) + 20.0

    def test_two_target_peb_degenerates_on_shared_ray(self, tmp_path):
        # fixed reflector at (60, 0, 40): probe cells on the same BS ray are
        # masked or useless (> 1 m), far cells stay finite
        cfg = merge_config({**COARSE, "n_targets": 2, "grid_res_m": 5.0})
        files = run_peb_map(cfg, str(tmp_path))
        _, rows = read_csv(files[0])
        ray, off = [], []
        for r in rows:
            x, z = float(r[0]), float(r[1])
            masked = r[3] == "true"
            if z > 0 and abs(x / z - 1.5) < 0.05 and 10 <= z <= 95:
                ray.append(masked or float(r[2]) > 1.0)
            elif not masked and x < 0:
                off.append(float(r[2]))
        assert len(ray) >= 5 and all(ray)
        assert off and np.isfinite(off).all()


class TestDeterminism:
    @pytest.mark.parametrize("runner", [run_crb_map, run_peb_map, run_detection_map,
                                        run_classification_mc, run_ris_compare])
    def test_byte_identical_reruns(self, tmp_path, runner):
        cfg = merge_config(COARSE)
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        f1 = [f for f in runner(cfg, str(d1)) if f.endswith(".csv")]
        f2 = [f for f in runner(cfg, str(d2)) if f.endswith(".csv")]
        assert [os.path.basename(f) for f in f1] == [os.path.basename(f) for f in f2]
        for a, b in zip(f1, f2):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_threads_do_not_change_results(self, tmp_path, monkeypatch):
        # small blocks, so each worker process maps several of them
        monkeypatch.setattr(experiments, "BLOCK_CELLS", 32)
        base = merge_config(COARSE)
        multi = merge_config({**COARSE, "threads": 2})
        d1 = tmp_path / "serial"
        d2 = tmp_path / "pool"
        d1.mkdir()
        d2.mkdir()
        f1 = run_crb_map(base, str(d1))
        f2 = run_crb_map(multi, str(d2))
        assert Path(f1[0]).read_bytes() == Path(f2[0]).read_bytes()
        assert Path(f1[1]).read_bytes() == Path(f2[1]).read_bytes()
        # every block worker: peb-map, the fixed-target FIM path, detect-map,
        # ris-compare (its builders' pattern sources must pickle)
        ten = {"n_targets": 10, "grid_res_m": 20.0}
        for runner, extra in ((run_peb_map, {}), (run_crb_map, {"n_targets": 2}),
                              (run_peb_map, {"n_targets": 2}), (run_crb_map, ten),
                              (run_peb_map, ten), (run_detection_map, {}),
                              (run_ris_compare, {})):
            tag = f"{runner.__name__}-{len(extra)}"
            serial = csv_bytes(runner, merge_config({**COARSE, **extra}), tmp_path / tag)
            pooled = csv_bytes(runner, merge_config({**COARSE, **extra, "threads": 2}),
                               tmp_path / f"{tag}-pool")
            assert pooled == serial, tag

    def test_pool_is_bounded_by_cpus(self, tmp_path, monkeypatch):
        # a huge thread count asks for no more processes than CPUs; the fake
        # pool records that request and maps the blocks in this process
        monkeypatch.setattr(RecordingPool, "asked", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(experiments, "BLOCK_CELLS", 8)
        pooled = csv_bytes(run_crb_map, merge_config({**COARSE, "threads": 10**6}), tmp_path / "p")
        assert RecordingPool.asked == [3]
        assert pooled == csv_bytes(run_crb_map, merge_config(COARSE), tmp_path / "serial")

    @pytest.mark.parametrize("runner", [run_crb_map, run_detection_map])
    def test_threads_cut_a_map_smaller_than_one_block(self, tmp_path, monkeypatch, runner):
        # the 187 cells fit one block, yet two workers each get at least one
        monkeypatch.setattr(RecordingPool, "asked", [])
        monkeypatch.setattr(RecordingPool, "blocks", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        cfg = merge_config(COARSE)
        xs, zs = grid_points(build_model(cfg).geom, cfg["grid_res_m"])
        assert len(xs) * len(zs) < experiments.BLOCK_CELLS
        pooled = csv_bytes(runner, merge_config({**COARSE, "threads": 2}), tmp_path / "p")
        assert RecordingPool.asked == [2] and RecordingPool.blocks[0] >= 2
        assert pooled == csv_bytes(runner, cfg, tmp_path / "serial")

    @pytest.mark.parametrize("runner,extra", [
        (run_crb_map, {}), (run_peb_map, {}), (run_ris_compare, {}),
        (run_crb_map, {"n_targets": 2}), (run_peb_map, {"n_targets": 2}),
        (run_crb_map, {"n_targets": 10, "grid_res_m": 20.0}),
        (run_peb_map, {"n_targets": 10, "grid_res_m": 20.0}),
        (run_detection_map, {}),
    ])
    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, runner, extra):
        # 7-cell blocks, then also 3-angle chunks of the angle-only factors
        cfg = merge_config({**COARSE, **extra})
        default, block = csv_bytes(runner, cfg, tmp_path / "default"), experiments.BLOCK_CELLS
        monkeypatch.setattr(experiments, "BLOCK_CELLS", 7)
        assert csv_bytes(runner, cfg, tmp_path / "seven") == default
        monkeypatch.setattr(channel, "ANGLE_CHUNK", 3)
        assert csv_bytes(runner, cfg, tmp_path / "chunk") == default
        monkeypatch.setattr(experiments, "BLOCK_CELLS", block)
        assert csv_bytes(runner, cfg, tmp_path / "chunk-only") == default

    def test_angle_kernels_see_chunks_of_distinct_angles(self, tmp_path, monkeypatch):
        # an R = 1 crb-map at 2 m: the kernels never get more than a chunk of
        # angles, and the pattern kernel sees each block's distinct xi once
        calls = {"harmonic_pattern_batch": [], "steering_vector": [], "steering_derivative": []}
        for name, seen in calls.items():
            def recorded(*args, _fn=getattr(bounds, name), _seen=seen):
                angles = np.atleast_1d(args[3] if len(args) > 3 else args[1])
                _seen.append(angles.copy())
                return _fn(*args)
            monkeypatch.setattr(bounds, name, recorded)
        cfg = merge_config({"grid_res_m": 2.0, "n_targets": 1, "threads": 1})
        run_crb_map(cfg, str(tmp_path))
        for name, seen in calls.items():
            assert seen and max(map(len, seen)) <= channel.ANGLE_CHUNK, name
        model = build_model(cfg)
        xs, zs = grid_points(model.geom, 2.0)
        x, z = np.meshgrid(xs, zs)
        points = np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])
        n = experiments.BLOCK_CELLS
        assert len(points) > n  # more than one block
        want = []
        for i in range(0, len(points), n):
            q = points[i:i + n][~terminal_mask(points[i:i + n], model.geom)]
            want += set(angles_from_position(q, model.geom).xi.view(np.int64).tolist())
        got = np.concatenate(calls["harmonic_pattern_batch"]).view(np.int64).tolist()
        assert sorted(got) == sorted(want)

    def test_detect_map_steers_once_per_chunk_of_bearings(self, tmp_path, monkeypatch):
        # an R = 1 detect-map at 2 m: one steering evaluation per chunk of a
        # block's distinct bearings serves both combiners
        seen = []

        def recorded(ula, angle, _fn=detection.steering_vector):
            seen.append(np.size(angle))
            return _fn(ula, angle)

        monkeypatch.setattr(detection, "steering_vector", recorded)
        cfg = merge_config({"grid_res_m": 2.0, "threads": 1})
        run_detection_map(cfg, str(tmp_path))
        model = build_model(cfg)
        xs, zs = grid_points(model.geom, 2.0)
        x, z = np.meshgrid(xs, zs)
        points = np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])
        n, chunk = experiments.BLOCK_CELLS, channel.ANGLE_CHUNK
        assert len(points) > n  # more than one block
        want = []  # chunk sizes, per block
        for i in range(0, len(points), n):
            q = points[i:i + n][~terminal_mask(points[i:i + n], model.geom)]
            distinct = len(set(angles_from_position(q, model.geom).alpha.view(np.int64).tolist()))
            want.append([min(chunk, distinct - j) for j in range(0, distinct, chunk)])
        assert seen == sum(want, [])
        # the number of combiners does not change the steering calls
        for combiners in [(c,) for c in Combiner] + [tuple(Combiner)]:
            seen.clear()
            detection_map(points[:n], model.geom, model.ula, model.pilots, model.noise_power,
                          model.p_fa, {}, combiners)
            assert seen == want[0], combiners

    def test_seed_changes_monte_carlo(self, tmp_path):
        d1 = tmp_path / "s1"
        d2 = tmp_path / "s2"
        d1.mkdir()
        d2.mkdir()
        f1 = run_classification_mc(merge_config(COARSE), str(d1))
        f2 = run_classification_mc(merge_config({**COARSE, "seed": 777}), str(d2))
        assert Path(f1[0]).read_bytes() != Path(f2[0]).read_bytes()


class TestCli:
    def test_subcommands_write_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(COARSE))
        for cmd, expect in (
            ("crb-map", "crb_alpha_map.csv"),
            ("detect-map", "detect_map_human_like_all_ones.csv"),
        ):
            out = tmp_path / cmd
            rc = main([cmd, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            assert (out / expect).exists()

    def test_grid_res_flag_overrides(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["crb-map", "--grid-res", "20", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "crb_alpha_map.csv")
        assert len(rows) == 9 * 6

    def test_flags_override_their_keys(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_validate", lambda cfg: seen.append(cfg) or 0)
        assert main(["validate", "--seed", "5", "--grid-res", "4", "--threads", "2",
                     "--harmonics", "4", "--targets", "2"]) == 0
        cfg = seen[0]
        assert [cfg[k] for k in ("seed", "grid_res_m", "threads", "harmonics", "n_targets")] \
            == [5, 4.0, 2, 4, 2]

    def test_bad_config_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        rc = main(["crb-map", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,bounds", [("x_bounds", [80, -80]), ("z_bounds", [100, 0])])
    @pytest.mark.parametrize("cmd", ["crb-map", "detect-map"])
    def test_reversed_bounds_fail(self, tmp_path, capsys, cmd, key, bounds):
        cfg_path = tmp_path / "reversed.json"
        cfg_path.write_text(json.dumps({"geometry": {key: bounds}}))
        out = tmp_path / "out"
        rc = main([cmd, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"geometry.{key}" in err[0]
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("doc,key", [
        ({"noise_power_dbm": None}, "noise_power_dbm"),
        ({"harmonics": [3]}, "harmonics"),
        ({"harmonics": 2.7}, "harmonics"),
        ({"grid_res_m": 1e-9}, "grid_res_m"),
        ({"grid_res_m": -1.0}, "grid_res_m"),
        ({"bs": {"antennas": 0}}, "bs.antennas"),
        ({"bs": {"antennas": -4}}, "bs.antennas"),
        ({"harmonics": -1}, "harmonics"),
        ({"geometry": {"bs_center": None}}, "geometry.bs_center"),
        ({"geometry": {"stcm_center": [0, 0]}}, "geometry.stcm_center"),
        ({"wavelength_mode": "bogus"}, "wavelength_mode"),
        ({"classification_snr_db": []}, "classification_snr_db"),
        ({"classification_snr_db": 5}, "classification_snr_db"),
        ({"classification_snr_db": ["a"]}, "classification_snr_db"),
        ({"classification_snr_db": [None]}, "classification_snr_db"),
        ({"carrier_hz": 0}, "carrier_hz"),
        ({"carrier_hz": -1e10}, "carrier_hz"),
        ({"scene": "x"}, "scene"),
        ({"scene": [{"position": [1, 2]}]}, "scene[0].rcs_dbsm"),
        ({"scene": [{"position": [1, 2], "rcs_dbsm": 1.0}]}, "scene[0].position"),
        ({"scene": [{"position": [1, 0, 2], "rcs_dbsm": None}]}, "scene[0].rcs_dbsm"),
        ({"scene": [{"position": [1, 0, 2], "rcs_dbsm": 1.0, "kind": "cat"}]}, "scene[0].kind"),
        ({"n_targets": 2, "fixed_targets": {"two": []}}, "fixed_targets.two"),
        ({"n_targets": 10, "fixed_targets": {"ten": "bogus"}}, "fixed_targets.ten"),
        ({"harmonics": 20000}, "harmonics"),
        ({"harmonics": 100000}, "harmonics"),
        ({"code": {"period_s": 0}}, "code.period_s"),
        ({"sigma_nu": 10**400}, "sigma_nu"),
        # a document that is no object
        ([1, 2], "config"),
        ("x", "config"),
        (None, "config"),
        # dB values whose linear form or its square would overflow or underflow
        ({"noise_power_dbm": 1e308}, "noise_power_dbm"),
        ({"rcs_dbsm": {"human_like": 1e6}}, "rcs_dbsm.human_like"),
        ({"rcs_dbsm": {"human_like": -1e4}}, "rcs_dbsm.human_like"),
        ({"classification_snr_db": [1e6]}, "classification_snr_db"),
        ({"scene": [{"position": [10, 0, 20], "rcs_dbsm": -1e4}]}, "scene[0].rcs_dbsm"),
        # keys that only some verbs used to read
        ({"n_targets": 3}, "n_targets"),
        ({"threads": 0}, "threads"),
        ({"threads": -4}, "threads"),
        ({"path_loss_exponent": -3}, "path_loss_exponent"),
        ({"path_loss_exponent": 1e6}, "path_loss_exponent"),
        ({"seed": -5000}, "seed"),
        ({"sigma_nu": -1}, "sigma_nu"),
        ({"p_fa": 2}, "p_fa"),
        ({"n_trials": 0}, "n_trials"),
        # conditions across keys
        ({"rcs_dbsm": {"human_like": 20}}, "rcs_dbsm.human_like"),
        ({"geometry": {"bs_center": [0, 1, 0]}}, "geometry.bs_center"),
        ({"geometry": {"stcm_center": [0, 0, 0]}}, "geometry.stcm_center"),
        ({"n_targets": 2, "fixed_targets": {"two": [[0, 0, 0]]}}, "fixed_targets.two"),
        ({"geometry": {"foo": 1}}, "geometry.foo"),
        # an amplitude past the +-300 dB bound (detect-map squares it)
        ({"sigma_nu": 1e300}, "sigma_nu"),
        # more trials than MAX_TRIALS would allocate without bound
        ({"n_trials": 10_000_001}, "n_trials"),
        ({"n_trials": 10**12}, "n_trials"),
        # a panel off the BS boresight axis, which the bounds do not model
        ({"geometry": {"stcm_center": [30.0, 0.0, 100.0]}}, "geometry.stcm_center"),
    ])
    def test_bad_numbers_fail_with_one_line(self, tmp_path, capsys, doc, key):
        # every verb and validate resolve the config alike, so all reject it
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        for cmd in ("crb-map", "peb-map", "detect-map", "classify-mc", "ris-compare", "validate"):
            out = tmp_path / cmd
            rc = main([cmd, "--config", str(cfg_path)]
                      + ([] if cmd == "validate" else ["--out", str(out)]))
            err = capsys.readouterr().err.strip().splitlines()
            assert rc == 1, cmd
            assert len(err) == 1 and err[0].startswith("error:") and key in err[0], (cmd, err)
            assert not list(out.glob("*.csv")), cmd

    def test_detect_and_classify_run_warning_clean(self, tmp_path):
        # a batched 0/0 or overflow would surface here as an exception
        def run(cmd, doc, out):
            cfg_path = tmp_path / f"{out}.json"
            cfg_path.write_text(json.dumps(doc))
            return main([cmd, "--config", str(cfg_path), "--out", str(tmp_path / out)])

        # with ten targets the 2 m cell (80, 0, 26) has a full single-bounce
        # FIM at kappa ~ 8e15, where rounding decides whether its pair
        # information comes out negative: either way no invalid sqrt
        ten = {"n_targets": 10, "grid_res_m": 2.0,
               "geometry": {"x_bounds": [76.0, 80.0], "z_bounds": [24.0, 28.0]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("detect-map", {"grid_res_m": 20.0}, "d") == 0
            assert run("classify-mc", {"n_trials": 2000}, "c") == 0
            assert run("peb-map", ten, "p") == 0
        assert len(list((tmp_path / "d").glob("*.csv"))) == 4
        assert (tmp_path / "c" / "classification_mc.csv").exists()
        _, rows = read_csv(tmp_path / "p" / "peb_map.csv")
        assert len(rows) == 9
        assert all(r[3] == "true" if r[2] == "" else float(r[2]) > 0 for r in rows)

    def test_validate_passes_on_defaults(self):
        assert main(["validate"]) == 0


def test_validate_suite_counts_failures(default_cfg):
    assert run_validate(default_cfg, printer=lambda *a, **k: None) == 0
