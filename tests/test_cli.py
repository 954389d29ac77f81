import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xlma
from xlma import validation
from xlma.cli import (PLACEHOLDER_DBM_LIMIT, RESOLUTION_LIMIT, TRIALS_LIMIT, _apply_parameter,
                      main)
from xlma.montecarlo import draw_trials
from xlma.pipeline import context_from_document
from xlma.presets import desk_full_los, desk_full_los_2d, desk_partial_los, desk_single_grid
from xlma.scenario import (CANDIDATE_LIMIT, COORDINATE_LIMIT, ELEMENT_LIMIT, GRID_LIMIT,
                           SAMPLES_LIMIT, load_scenario)
from xlma.validation import validate_scenario


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestPlan:
    def test_plan_writes_support_of_size_n(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los())
        out = tmp_path / "plan.json"
        assert main(["plan", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["n_mu"]) == 4
        assert sum(payload["chi"]) == 4
        assert payload["trace"][0]["iteration"] == 0

    def test_plan_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["plan", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_plan_invalid_config_names_field(self, tmp_path, capsys):
        doc = desk_full_los()
        doc["n_subarrays"] = 1000
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 1
        assert "n_subarrays" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        (("ma_region", "y_max"), math.nan, "ma_region"),
        (("obstacles", 0, "dims", 0), math.nan, "obstacle"),
        (("tx_power_dbm",), math.nan, "tx_power"),
        (("noise_power_dbm",), math.nan, "noise_power"),
        (("carrier_freq",), math.nan, "carrier_freq"),
        (("d_h",), 0.0, "d_h"),
        (("carrier_freq",), 0, "carrier_freq"),
        (("m_h",), math.nan, "m_h"),
        (("n_subarrays",), math.nan, "n_subarrays"),
        (("rician_kappa_db",), None, "rician_kappa_db"),
        (("tx_power_dbm",), "high", "tx_power_dbm"),
        (("obstacles", 0, "center"), [4.0, 0.0], "obstacles[0].center"),
        (("obstacles",), 5, "obstacles"),
        (("obstacles",), None, "obstacles"),
        (("rician_kappa_db",), 4000, "rician_kappa_db"),
        (("tx_power_dbm",), 1e6, "tx_power_dbm"),
    ])
    def test_plan_rejects_non_finite_or_zero_value(self, tmp_path, capsys, path, value,
                                                   field):
        # json.dumps writes NaN as the bare token that json.loads accepts.
        doc = desk_partial_los()
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x.json"
        assert main(["plan", "--config", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("obstacle, held", [
        ({"center": [0, 0, 20.5], "dims": [2, 200, 2]}, "candidate position"),
        ({"center": [30, 0, 0], "dims": [60, 200, 2]}, "user grid"),
    ])
    def test_plan_rejects_an_obstacle_holding_the_array_or_the_users(self, tmp_path, capsys,
                                                                     obstacle, held):
        doc = desk_partial_los()
        doc["obstacles"] = [obstacle]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "x.json"
        assert main(["plan", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "obstacles[0]" in err and held in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["plan", "--out", "x.json"],
        ["sweep", "--sweep", "sweep.json", "--out-dir", "o"],
        ["benchmark", "--out-dir", "o"],
    ])
    def test_config_must_be_an_object(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, [desk_full_los()])
        (tmp_path / "sweep.json").write_text(json.dumps(
            {"parameter": "m_h", "values": [2], "schemes": ["proposed"]}))
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
        assert "scenario must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "o").exists()

    def test_plan_trace_only_in_plan_json(self, tmp_path, capsys):
        """The optimizer trace has one home, the plan JSON's ``trace``."""
        cfg = write_config(tmp_path, desk_full_los())
        out = tmp_path / "plan.json"
        assert main(["plan", "--config", str(cfg), "--out", str(out)]) == 0
        trace = json.loads(out.read_text())["trace"]
        assert [r["iteration"] for r in trace] == list(range(len(trace)))
        assert trace[0]["accepted"] and trace[0]["victim_slot"] is None
        with pytest.raises(SystemExit):
            main(["plan", "--config", str(cfg), "--out", str(out),
                  "--trace-jsonl", str(tmp_path / "trace.jsonl")])
        assert "--trace-jsonl" in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    def test_preset_name(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["plan", "--preset", "desk_single_grid", "--out", str(out)]) == 0

    def test_unknown_preset(self, tmp_path, capsys):
        assert main(["plan", "--preset", "nope", "--out", str(tmp_path / "x")]) == 1
        assert "preset" in capsys.readouterr().err


class TestCountLimits:
    """A count past its stated limit exits 1 with an error naming its field,
    refused before anything it sizes is allocated or looped over."""

    @pytest.mark.parametrize("path, value, field", [
        (("coverage", "k_x"), 1e308, "coverage.k_x"),
        (("coverage", "k_y"), 10**30, "coverage.k_y"),
        (("coverage", "k_z"), 10**30, "k_z"),  # a flat coverage region: refused for it
        (("coverage", "k_y"), GRID_LIMIT // 5 + 1, "coverage.k_y"),  # K = GRID_LIMIT + 5
        (("ma_region", "n_y"), 1e308, "ma_region.n_y"),
        (("ma_region", "n_y"), CANDIDATE_LIMIT + 1, "ma_region.n_y"),
        (("visibility_samples",), 1e308, "visibility_samples"),
        (("visibility_samples",), SAMPLES_LIMIT + 1, "visibility_samples"),
        (("m_v",), 10**30, "m_h * m_v"),
        (("m_v",), ELEMENT_LIMIT + 1, "m_h * m_v"),
    ])
    def test_scenario_counts(self, tmp_path, capsys, path, value, field):
        doc = desk_partial_los()  # obstacles, one candidate row and k_x = 5
        doc["m_h"] = 1
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "x.json").exists()

    def test_scenario_counts_at_their_limits_load(self):
        doc = desk_partial_los()
        doc.update(m_h=1, m_v=ELEMENT_LIMIT, visibility_samples=SAMPLES_LIMIT)
        doc["ma_region"]["n_y"] = CANDIDATE_LIMIT
        doc["coverage"]["k_y"] = GRID_LIMIT // 5
        sc = load_scenario(doc)
        assert sc.ma_region.n_candidates == CANDIDATE_LIMIT
        assert sc.coverage.n_grids == GRID_LIMIT

    @pytest.mark.parametrize("trials", [1e308, 10**30, TRIALS_LIMIT + 1])
    def test_sweep_trials(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "m_h", "values": [2], "schemes": ["proposed"],
                                     "evaluators": ["sim_mrc"], "trials": trials}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert f"error: 'trials' must lie in [1, {TRIALS_LIMIT}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("width", [1e308, CANDIDATE_LIMIT * 1.01 + 1])
    def test_sweep_ma_width_past_the_candidate_limit(self, tmp_path, capsys, width):
        cfg = write_config(tmp_path, desk_full_los())  # candidate step 1.01
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "ma_width", "values": [width],
                                     "schemes": ["proposed"]}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "error: 'values[0]': ma_width" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", [1e308, 10**30, RESOLUTION_LIMIT + 1])
    def test_map_resolution(self, tmp_path, capsys, resolution):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps({"kind": "power", "resolution": resolution}))
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(tmp_path / "map.csv")]) == 1
        assert "error: 'resolution' must be at most" in capsys.readouterr().err


def small_partial_los():
    """desk_partial_los with 12 candidates on its row."""
    doc = desk_partial_los()
    doc["ma_region"]["n_y"] = 12
    return doc


class TestCoordinateLimits:
    """Coordinates and a placeholder power whose squares or powers would
    overflow are refused naming their field, before anything is built."""

    @pytest.mark.parametrize("path, value, field", [
        (("coverage", "y_max"), 1e308, "'coverage.y_max' must lie in [-1e+06, 1e+06] m"),
        (("ma_region", "y_max"), 1e308, "'ma_region.y_max' must lie in [-1e+06, 1e+06] m"),
        (("coverage", "x_max"), COORDINATE_LIMIT * 2, "'coverage.x_max'"),
        (("obstacles", 0, "center", 2), 1e308, "'obstacles[0]': 'center[2]' must lie in"),
        (("obstacles", 1, "dims", 0), 10**30, "'obstacles[1]': 'dims[0]' must lie in"),
    ])
    def test_scene_coordinates(self, tmp_path, capsys, path, value, field):
        doc = small_partial_los()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 1
        assert f"error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("z_plane", 1e308, "'z_plane' must lie in [-1e+06, 1e+06] m, got 1e+308"),
        ("z_plane", -1.5e6, "'z_plane' must lie in"),
        ("probe_point", [30.0, 1e308], "'probe_point[1]' must lie in"),
        ("blocked_placeholder_dbm", 1e308,
         "'blocked_placeholder_dbm' must lie in [-1000, 1000] dBm, got 1e+308"),
        ("blocked_placeholder_dbm", -PLACEHOLDER_DBM_LIMIT - 1, "'blocked_placeholder_dbm'"),
    ])
    def test_map_fields(self, tmp_path, capsys, field, value, message):
        cfg = write_config(tmp_path, small_partial_los())
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps({"kind": "power", "resolution": 6,
                                     "probe_point": [30.0, 0.0], field: value}))
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(tmp_path / "map.csv")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()

    def test_values_at_the_limits_are_accepted(self, tmp_path):
        """A map plane at the coordinate limit and a placeholder at either
        end of its range give finite readings."""
        cfg = write_config(tmp_path, small_partial_los())
        for spec in ({"kind": "power", "resolution": 3, "z_plane": COORDINATE_LIMIT},
                     {"kind": "power", "resolution": 3, "z_plane": 3.0,
                      "blocked_placeholder_dbm": PLACEHOLDER_DBM_LIMIT},
                     {"kind": "power", "resolution": 3, "z_plane": 3.0,
                      "blocked_placeholder_dbm": -PLACEHOLDER_DBM_LIMIT}):
            spath = write_config(tmp_path, spec, "map.json")
            assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                         "--out", str(tmp_path / "map.csv")]) == 0
            with open(tmp_path / "map.csv", newline="") as fh:
                values = [float(v) for row in list(csv.reader(fh))[1:] for v in row[1:]]
            assert np.all(np.isfinite(values)) and min(values) > -3000.0


def read_sweep(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_mh_sweep_trends_and_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los())
        spec = {"parameter": "m_h", "values": [2, 4], "trials": 60,
                "schemes": ["proposed", "horizontal_sparse", "dense_ula"],
                "evaluators": ["approx_mrc", "sim_mrc"]}
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 0
        rows = read_sweep(out_dir / "sweep_approx_mrc.csv")
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row["scheme"], []).append(float(row["rate"]))
        for scheme, rates in by_scheme.items():
            assert rates[0] <= rates[1] + 1e-12  # beamforming gain with m_h
        # proposed dominates the FPA baselines at each value
        for v in (0, 1):
            prop = by_scheme["proposed"][v]
            assert prop >= by_scheme["horizontal_sparse"][v] - 1e-12
            assert prop >= by_scheme["dense_ula"][v] - 1e-12
        # stderr column empty for closed forms, filled for simulations
        assert all(r["stderr"] == "" for r in rows)
        sim_rows = read_sweep(out_dir / "sweep_sim_mrc.csv")
        assert all(float(r["stderr"]) > 0 for r in sim_rows)
        # repr round-trip: rates parse back to exact floats
        again = read_sweep(out_dir / "sweep_approx_mrc.csv")
        assert [r["rate"] for r in again] == [r["rate"] for r in rows]

    @pytest.mark.parametrize("parameter, values, trials, field", [
        ("m_h", [2.5], 10, "values[0]"),
        ("m_h", [2, True], 10, "values[1]"),
        ("m_h", ["abc"], 10, "values[0]"),
        ("m_h", [None], 10, "values[0]"),
        ("ma_width", [5.05, math.nan], 10, "values[1]"),
        ("ma_width", [5.05, math.inf], 10, "values[1]"),
        ("ma_width", [-math.inf], 10, "values[0]"),
        ("ma_width", ["wide"], 10, "values[0]"),
        ("expected_users", [None], 10, "values[0]"),
        ("rician_db", [10, None], 10, "values[1]"),
        ("rician_db", ["loud"], 10, "rician_kappa_db"),
        ("rician_db", [10, 4000], 10, "rician_kappa_db"),
        ("rician_db", ["loud"], 10, "values[0]"),
        ("rician_db", [10, 4000], 10, "values[1]"),
        ("rician_db", [10, -4000], 10, "'values[1]': 'rician_kappa_db' -4000"),
        ("m_h", [2], 2.7, "trials"),
        ("m_h", [2], True, "trials"),
        ("m_h", [2], "abc", "trials"),
        ("m_h", [2], None, "trials"),
        ("m_h", [2], 0, "trials"),
        ("m_h", 2, 10, "values"),
    ])
    def test_bad_spec_number_names_the_field(self, tmp_path, capsys, parameter, values,
                                             trials, field):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": parameter, "values": values,
                                     "trials": trials, "schemes": ["proposed"],
                                     "evaluators": ["approx_mrc", "sim_mrc"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec, field", [
        ([1, 2], "sweep spec"),
        ({"evaluators": []}, "evaluators"),
        ({"evaluators": "approx_mrc"}, "evaluators"),
        ({"evaluators": ["approx_mrc", "mmse"]}, "evaluators[1]"),
        ({"evaluators": ["approx_mrc", "upper_bound", "approx_mrc"]}, "evaluators[2]"),
        ({"schemes": "proposed"}, "schemes"),
        ({"schemes": ["proposed", "proposed"]}, "schemes[1]"),
        ({"schemes": ["dense_ula", "best"]}, "schemes[1]"),
    ])
    def test_bad_spec_shape_names_the_field(self, tmp_path, capsys, spec, field):
        cfg = write_config(tmp_path, desk_full_los())
        if isinstance(spec, dict):
            spec = {"parameter": "m_h", "values": [2], "schemes": ["proposed"], **spec}
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps(spec))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_threads_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "m_h", "values": [2],
                                     "schemes": ["proposed"], "evaluators": ["approx_mrc"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir), "--threads", "-3"]) == 1
        assert "--threads" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "NaN", "Infinity"])
    def test_non_finite_ma_width_is_refused_as_such(self, tmp_path, capsys, literal):
        # 1e400 parses to inf: it was once turned into n_y = 0 and reported
        # as "too small for step".
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text('{"parameter": "ma_width", "values": [2.02, %s], '
                         '"schemes": ["proposed"], "evaluators": ["approx_mrc"]}' % literal)
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "'values[1]' must be a finite number" in err and "too small" not in err
        assert not out_dir.exists()

    def test_ma_width_sweep_checks_the_region_it_rescales(self, tmp_path, capsys):
        doc = desk_full_los()
        doc["ma_region"]["y_max"] = "x"
        cfg = write_config(tmp_path, doc)
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "ma_width", "values": [2.0],
                                     "schemes": ["proposed"], "evaluators": ["approx_mrc"]}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "ma_region.y_max" in capsys.readouterr().err

    def test_ma_width_off_the_candidate_step_is_refused(self, tmp_path, capsys):
        # desk_partial_los steps 101 m / 100 = 1.01 m. A width of 20 m is
        # 19.8 steps, which once ran as 20 steps of 1.00 m.
        cfg = write_config(tmp_path, desk_partial_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "ma_width", "values": [20.2, 20.0],
                                     "schemes": ["proposed"], "evaluators": ["approx_mrc"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert ("'values[1]': ma_width 20.0 is not a whole number of candidate steps 1.01; "
                "the nearest widths that are: 19.19 and 20.2") in err
        assert not out_dir.exists()

    def test_ma_width_keeps_the_candidate_step(self, tmp_path):
        doc = desk_partial_los()
        region = load_scenario(_apply_parameter(doc, "ma_width", 20.2, "values[0]")).ma_region
        assert (region.y_min, region.y_max, region.n_y, region.dy) == (-10.1, 10.1, 20, 1.01)
        cfg = write_config(tmp_path, doc)
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "ma_width", "values": [20.2],
                                     "schemes": ["proposed"], "evaluators": ["approx_mrc"]}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert [r["value"] for r in read_sweep(tmp_path / "o" / "sweep_approx_mrc.csv")] == [
            "20.2"]

    def test_ma_width_keeps_an_off_center_region_centered(self):
        doc = desk_full_los()
        doc["ma_region"].update(y_min=-30.5, y_max=70.5)  # center 20 m, step 1.01 m
        region = load_scenario(_apply_parameter(doc, "ma_width", 40.4, "values[0]")).ma_region
        assert region.n_y == 40
        assert (region.y_min + region.y_max) / 2 == pytest.approx(20.0, rel=1e-12)
        assert region.dy == pytest.approx(1.01, rel=1e-12)

    def test_ma_width_of_a_region_without_y_extent_is_refused(self, tmp_path, capsys):
        doc = desk_full_los()
        doc["ma_region"] = {"y_min": 0.0, "y_max": 0.0, "z_min": 20.0, "z_max": 45.0,
                            "n_y": 1, "n_z": 10}
        cfg = write_config(tmp_path, doc)
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "ma_width", "values": [2.0],
                                     "schemes": ["proposed"], "evaluators": ["approx_mrc"]}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "'values[0]': ma_width needs an ma_region with y_max > y_min" in (
            capsys.readouterr().err)

    def test_infinite_rician_sweep_value_is_pure_los(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "rician_db", "values": [10, "infinite"],
                                     "schemes": ["proposed"], "evaluators": ["approx_mrc"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 0
        rows = read_sweep(out_dir / "sweep_approx_mrc.csv")
        assert [r["value"] for r in rows] == ["10", "infinite"]

    def test_empty_schemes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "m_h", "values": [2],
                                     "schemes": [], "evaluators": ["approx_mrc"]}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "schemes" in capsys.readouterr().err

    def test_unknown_spec_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "m_h", "values": [2], "trails": 3,
                                     "schemes": ["proposed"], "evaluators": ["sim_mrc"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 1
        assert "unknown field 'trails'; did you mean 'trials'?" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("parameter, value", [
        ("m_h", 2), ("ma_width", 20.0), ("expected_users", 2.0), ("rician_db", 10)])
    @pytest.mark.parametrize("distribution, message", [
        (None, "missing required field 'distribution'"),
        ([1, 2], "'distribution' must be an object, got [1, 2]"),
    ])
    def test_bad_distribution_named_under_every_parameter(self, tmp_path, capsys, parameter,
                                                         value, distribution, message):
        doc = desk_full_los()
        if distribution is None:
            del doc["distribution"]
        else:
            doc["distribution"] = distribution
        cfg = write_config(tmp_path, doc)
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": parameter, "values": [value],
                                     "schemes": ["proposed"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_scenario_field_rejected(self, tmp_path, capsys):
        doc = desk_full_los()
        doc["rician_kapa_db"] = 20
        cfg = write_config(tmp_path, doc)
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "m_h", "values": [2],
                                     "schemes": ["proposed"]}))
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "unknown field 'rician_kapa_db'" in capsys.readouterr().err

    def test_exhaustive_over_limit_marked_skipped(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los_2d())  # C(100, 8) >> limit
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps({"parameter": "expected_users", "values": [4.0],
                                     "schemes": ["optimal"],
                                     "evaluators": ["approx_mrc"]}))
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(out_dir)]) == 0
        rows = read_sweep(out_dir / "sweep_approx_mrc.csv")
        assert rows[0]["note"].startswith("skipped")
        assert str(math.comb(100, 8)) in rows[0]["note"]
        assert rows[0]["rate"] == ""

    def test_threads_flag_gives_identical_results(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los())
        spec = {"parameter": "m_h", "values": [2, 4], "trials": 30,
                "schemes": ["horizontal_sparse"], "evaluators": ["sim_mrc"]}
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps(spec))
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(d1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                     "--out-dir", str(d2), "--threads", "4"]) == 0
        assert (d1 / "sweep_sim_mrc.csv").read_bytes() == (d2 / "sweep_sim_mrc.csv").read_bytes()

    def test_threads_flag_gives_identical_results_across_shapes(self, tmp_path):
        # Two array shapes, each scored by two schemes or one under both
        # combiners from the draws of its shape.
        cfg = write_config(tmp_path, desk_full_los())
        spec = {"parameter": "m_h", "values": [2, 4], "trials": 30,
                "schemes": ["proposed", "horizontal_sparse", "dense_ula"],
                "evaluators": ["sim_mrc", "sim_mmse"]}
        spath = tmp_path / "sweep.json"
        spath.write_text(json.dumps(spec))
        outputs = {}
        for threads in ("1", "4"):
            out_dir = tmp_path / f"o{threads}"
            assert main(["sweep", "--config", str(cfg), "--sweep", str(spath),
                         "--out-dir", str(out_dir), "--threads", threads]) == 0
            outputs[threads] = [(out_dir / f"sweep_{ev}.csv").read_bytes()
                                for ev in spec["evaluators"]]
        assert outputs["1"] == outputs["4"]

    def test_sweep_holds_one_draw_set_at_a_time(self, tmp_path):
        # dense_ula's draws are made after the S = N schemes' are dropped, so
        # adding it raises the peak by less than its own draw set.
        doc = desk_full_los()
        cfg = write_config(tmp_path, doc)
        trials = 200

        def peak(schemes):
            spath = tmp_path / "sweep.json"
            spath.write_text(json.dumps({"parameter": "m_h", "values": [4], "trials": trials,
                                         "schemes": schemes,
                                         "evaluators": ["sim_mrc", "sim_mmse"]}))
            argv = ["sweep", "--config", str(cfg), "--sweep", str(spath),
                    "--out-dir", str(tmp_path / "out")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ctx = context_from_document(doc)
        dense = ctx.layout_stats(ctx.placement_for_scheme("dense_ula"))
        draws = draw_trials(ctx.scenario, dense, trials)
        one_set = sum(field.nbytes for group in draws.groups for field in group)
        peak(["proposed", "horizontal_sparse", "dense_ula"])  # one-time allocations
        both = peak(["proposed", "horizontal_sparse", "dense_ula"])
        assert both - peak(["proposed", "horizontal_sparse"]) < one_set

    @pytest.mark.parametrize("threads", ["0", "4"])
    def test_sweep_holds_one_value_context_at_a_time(self, tmp_path, threads):
        # Each value's context (100 candidates x 50 active grids) is dropped
        # before the next one is built, so three values peak like one.
        doc = desk_full_los()
        doc["distribution"].update(regular_ratio=1.0, hotspot_k1=[], hotspot_k2=[])
        cfg = write_config(tmp_path, doc)

        def peak(values):
            spath = tmp_path / "sweep.json"
            spath.write_text(json.dumps({"parameter": "m_h", "values": values,
                                         "schemes": ["proposed"],
                                         "evaluators": ["approx_mrc"]}))
            argv = ["sweep", "--config", str(cfg), "--sweep", str(spath),
                    "--out-dir", str(tmp_path / "out"), "--threads", threads]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([4])  # one-time allocations stay out of the measured peaks
        one = peak([4])
        assert peak([2, 3, 4]) < 1.05 * one


class TestMap:
    def test_correlation_map_probe_cell(self, tmp_path):
        cfg = write_config(tmp_path, desk_single_grid())
        spec = {"kind": "correlation", "scheme": {"support": [5, 25, 45]},
                "resolution": 9, "probe_point": [30.0, 0.0], "z_plane": 0.0}
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "map.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 10 and all(len(r) == 10 for r in rows)
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert values.min() >= 0 and values.max() <= 1 + 1e-12
        x = np.array([float(r[0]) for r in rows[1:]])
        y = np.array([float(v) for v in rows[0][1:]])
        xi = int(np.argmin(np.abs(x - 30.0)))
        yi = int(np.argmin(np.abs(y)))
        assert values[xi, yi] == pytest.approx(1.0, rel=1e-9)

    def test_power_map_rectangular_db(self, tmp_path):
        cfg = write_config(tmp_path, desk_single_grid())
        spec = {"kind": "power", "scheme": {"support": [5]}, "resolution": 6,
                "blocked_placeholder_dbm": -65.0, "z_plane": 0.0}
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "map.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert values.shape == (6, 6)
        assert np.all(values < 0)  # gains are far below 0 dB

    def test_probe_outside_coverage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_single_grid())
        spec = {"kind": "correlation", "scheme": {"support": [5]},
                "resolution": 4, "probe_point": [500.0, 0.0]}
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps(spec))
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(tmp_path / "m.csv")]) == 1
        assert "coverage" in capsys.readouterr().err

    def test_bad_support_indices_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_full_los())
        spec = {"kind": "power", "scheme": {"support": [-1, 5, 5]}}
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert "support" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme, message", [
        ({"support": [5, 25], "suport_typo": [1]}, "unknown field 'scheme.suport_typo'"),
        ({}, "missing required field 'scheme.support'"),
        (["proposed"], "'scheme' must be one of ('proposed', 'optimal', 'sparse_2x4'"),
        ("best", "'scheme' must be one of ('proposed', 'optimal', 'sparse_2x4'"),
    ])
    def test_bad_scheme_names_the_field(self, tmp_path, capsys, scheme, message):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps({"kind": "power", "scheme": scheme}))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_support_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_full_los())
        spec = {"kind": "power", "scheme": {"support": [5.7]}}
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert "'scheme.support[0]' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, message", [
        (None, "'scheme.support[1]' must be a number"),
        ("abc", "'scheme.support[1]' must be a number"),
        ([3], "'scheme.support[1]' must be a number"),
        (10**30, "placement support indices must be integers in [0, 100)"),
        (1e308, "placement support indices must be integers in [0, 100)"),
    ])
    def test_support_entry_that_is_no_index_names_it(self, tmp_path, capsys, entry, message):
        cfg = write_config(tmp_path, desk_full_los())
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps({"kind": "power", "scheme": {"support": [5, entry]}}))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, field", [
        ("resolution", 2.7, "resolution"),
        ("resolution", "abc", "resolution"),
        ("resolution", None, "resolution"),
        ("z_plane", "top", "z_plane"),
        ("z_plane", math.nan, "z_plane"),
        ("probe_point", [30.0], "probe_point"),
        ("probe_point", [30.0, 0.0, 0.0, 1.0], "probe_point"),
        ("probe_point", 30.0, "probe_point"),
        ("probe_point", [30.0, "a"], "probe_point[1]"),
        ("blocked_placeholder_dbm", "low", "blocked_placeholder_dbm"),
        ("blocked_placeholder_dbm", math.inf, "blocked_placeholder_dbm"),
    ])
    def test_bad_spec_field_names_the_field(self, tmp_path, capsys, key, value, field):
        cfg = write_config(tmp_path, desk_single_grid())
        spec = {"kind": "correlation", "scheme": {"support": [5]}, "resolution": 4,
                "probe_point": [30.0, 0.0], key: value}
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_spec_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_single_grid())
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps({"kind": "power", "scheme": {"support": [5]},
                                     "resoluton": 4}))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert "unknown field 'resoluton'; did you mean 'resolution'?" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, desk_single_grid())
        spath = tmp_path / "map.json"
        spath.write_text(json.dumps([{"kind": "power", "scheme": {"support": [5]}}]))
        out = tmp_path / "m.csv"
        assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                     "--out", str(out)]) == 1
        assert "map spec must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_three_coordinate_probe_point(self, tmp_path):
        cfg = write_config(tmp_path, desk_single_grid())
        outs = []
        for probe in ([30.0, 0.0], [30.0, 0.0, 0.0]):
            spec = {"kind": "correlation", "scheme": {"support": [5, 25]}, "resolution": 5,
                    "probe_point": probe, "z_plane": 0.0}
            spath = tmp_path / "map.json"
            spath.write_text(json.dumps(spec))
            outs.append(tmp_path / f"m{len(probe)}.csv")
            assert main(["map", "--config", str(cfg), "--map-spec", str(spath),
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def fresh_interpreter_env():
    """The environment for a fresh interpreter that imports this xlma."""
    src = str(Path(xlma.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_perfbench_documents_load(monkeypatch):
    """The benchmark's scenario and sweep documents hold only accepted fields."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    from xlma.cli import SWEEP_FIELDS

    for seed in (7, 11):
        load_scenario(workloads.dense_scenario(seed))
        load_scenario(workloads.sweep_scenario(seed))
    assert set(workloads.SWEEP_SPEC) <= set(SWEEP_FIELDS)


def test_import_leaves_scipy_unloaded():
    """The package and its CLI run on numpy alone; scipy is a test dependency."""
    code = ("import sys, xlma, xlma.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# The other arguments each command needs, with its inputs from write_specs.
COMMAND_ARGS = {
    "plan": ["--out", "plan.json"],
    "sweep": ["--sweep", "sweep.json", "--out-dir", "o"],
    "map": ["--map-spec", "map.json", "--out", "map.csv"],
    "validate": ["--draws", "1000"],
    "benchmark": ["--out-dir", "o"],
}


def write_specs(directory):
    (directory / "sweep.json").write_text(json.dumps(
        {"parameter": "m_h", "values": [2, 4], "schemes": ["proposed", "dense_ula"],
         "evaluators": ["approx_mrc", "sim_mrc"], "trials": 20}))
    (directory / "map.json").write_text(json.dumps({"kind": "power", "resolution": 6}))


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_config_and_preset_together_rejected(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_specs(tmp_path)
    cfg = write_config(tmp_path, desk_full_los())
    assert main([command, "--preset", "desk_single_grid", "--config", str(cfg),
                 *COMMAND_ARGS[command]]) == 1
    captured = capsys.readouterr()
    assert "--config" in captured.err and "--preset" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "map.json",
                                                          "sweep.json"]


@pytest.mark.parametrize("command, extra, loaded", [
    ("plan", [], []),
    ("sweep", ["--threads", "1"], ["numpy.random"]),
    ("sweep", ["--threads", "2"], ["concurrent.futures", "numpy.random"]),
    ("benchmark", [], []),
    ("validate", [], ["numpy.random"]),
    ("map", [], []),
])
def test_commands_load_only_modules_they_use(tmp_path, command, extra, loaded):
    """numpy.ma (which plain np.unique imports on numpy 2.x) is never
    loaded, the thread pool only for a sweep on more than one thread, and
    numpy.random only where Monte Carlo (the sweep's ``sim_mrc``) or
    ``validate`` draws from numpy Generators."""
    write_specs(tmp_path)
    code = ("import contextlib, io, json, sys\n"
            "from xlma.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "lazy = ('numpy.ma', 'concurrent.futures', 'numpy.random')\n"
            "print(json.dumps([code, [m for m in lazy if m in sys.modules]]))")
    argv = [command, "--preset", "desk_partial_los", *COMMAND_ARGS[command], *extra]
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          env=fresh_interpreter_env(), capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == [0, loaded]


class TestValidate:
    def test_default_config_passes(self, capsys):
        assert main(["validate", "--preset", "desk_single_grid",
                     "--draws", "4000"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_rejected(self, capsys, draws):
        assert main(["validate", "--preset", "desk_single_grid", "--draws", draws]) == 1
        captured = capsys.readouterr()
        assert "--draws" in captured.err
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out

    def test_corrupted_kernels_fail_moment_check(self, monkeypatch):
        sc = load_scenario(desk_single_grid())
        weights = validation.rician_weights

        def corrupted(kappa, m):
            a, f = weights(kappa, m)
            return a, 3.0 * f + 0.05

        monkeypatch.setattr(validation, "rician_weights", corrupted)
        checks = validate_scenario(sc, draws=4000)
        by_name = {c.name: c for c in checks}
        assert not by_name["moment-identities"].passed
        assert by_name["pure-los-exactness"].passed

    def test_exactness_reported_tight(self):
        sc = load_scenario(desk_single_grid())
        checks = validate_scenario(sc, draws=2000)
        by_name = {c.name: c for c in checks}
        assert by_name["pure-los-exactness"].passed
        assert all(c.passed for c in checks)


class TestBenchmarkCommand:
    def test_benchmark_outputs(self, tmp_path):
        cfg = write_config(tmp_path, desk_full_los_2d())
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        rows = read_sweep(out_dir / "benchmarks.csv")
        schemes = [r["scheme"] for r in rows]
        assert schemes[0] == "proposed"
        assert set(schemes) >= {"proposed", "dense_ula", "dense_upa",
                                "horizontal_sparse", "vertical_sparse", "sparse_2x4"}
        assert (out_dir / "layout_dense_upa.json").exists()
        layout = json.loads((out_dir / "layout_dense_upa.json").read_text())
        assert len(layout["subarrays"]) == 1
