"""The byte comparison and the command set of ``scripts/same_outputs.py``."""

import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

# The scripts import their shared worktree helper by module name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import same_outputs  # noqa: E402

from xlma.presets import PRESETS  # noqa: E402


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_identical_trees_have_no_differing_files(tmp_path):
    files = {"plan_a/plan.json": b"{}\n", "plan_a/stdout.txt": b"ok\n", "exit_code.txt": b"0\n"}
    left, right = _tree(tmp_path / "l", files), _tree(tmp_path / "r", files)
    assert same_outputs.differing_files(left, right) == []


def test_changed_bytes_and_one_sided_files_are_listed_sorted(tmp_path):
    left = _tree(tmp_path / "l", {"b/out.csv": b"1.0\n", "a/same.txt": b"x",
                                  "c/only_left.txt": b""})
    right = _tree(tmp_path / "r", {"b/out.csv": b"1.0000000000000002\n", "a/same.txt": b"x",
                                   "a/only_right.txt": b"y"})
    assert same_outputs.differing_files(left, right) == [
        "a/only_right.txt", "b/out.csv", "c/only_left.txt"]


def test_a_trailing_newline_is_a_difference(tmp_path):
    left = _tree(tmp_path / "l", {"plan.json": b"{}"})
    right = _tree(tmp_path / "r", {"plan.json": b"{}\n"})
    assert same_outputs.differing_files(left, right) == ["plan.json"]


def test_commands_cover_the_gated_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    argvs = same_outputs.commands(tmp_path)
    for preset in PRESETS:  # the trace is compared inside plan.json
        assert argvs[f"plan_{preset}"] == ["plan", "--preset", preset, "--out", "plan.json"]
    assert {f"dense_plan_{seed}" for seed in (7, 11, 23)} <= set(argvs)
    all_active = argvs["plan_full_scale_all_active"]  # every grid of the paper's scale
    expected = PRESETS["paper_full_scale_3d_type1"]()
    expected["distribution"]["regular_ratio"] = 0.2
    assert json.loads(Path(all_active[all_active.index("--config") + 1]).read_text()) == expected
    sweeps = [argv for name, argv in argvs.items() if name.startswith("sweep_oracle_")]
    assert sorted(argv[-1] for argv in sweeps) == ["1", "1", "4", "4"]
    users = argvs["sweep_expected_users"]  # the document-to-rho path, at two user counts
    preset = users[users.index("--preset") + 1]
    assert PRESETS[preset]()["obstacles"]
    users_spec = json.loads(Path(users[users.index("--sweep") + 1]).read_text())
    assert users_spec["parameter"] == "expected_users" and len(users_spec["values"]) == 2
    assert set(users_spec["evaluators"]) == {"approx_mrc", "upper_bound"}
    widths = argvs["sweep_ma_width"]  # the region-rescaling path, closed form and simulated
    assert widths[widths.index("--preset") + 1] == "desk_partial_los"
    widths_spec = json.loads(Path(widths[widths.index("--sweep") + 1]).read_text())
    assert widths_spec["parameter"] == "ma_width" and widths_spec["values"] == [20.2, 40.4]
    assert widths_spec["schemes"] == ["proposed", "dense_ula"]
    assert widths_spec["evaluators"] == ["approx_mrc", "sim_mrc"]
    for n_select in (2, 3):  # the exhaustive oracle with empty and one-column heads
        oracle = argvs[f"sweep_optimal_n{n_select}"]
        doc = json.loads(Path(oracle[oracle.index("--config") + 1]).read_text())
        assert doc["n_subarrays"] == n_select
        oracle_spec = json.loads(Path(oracle[oracle.index("--sweep") + 1]).read_text())
        assert "optimal" in oracle_spec["schemes"]
    # validate, benchmark and the maps run the Rician weights at a finite kappa too
    rician = "desk_partial_los_3d_type1"
    assert rician in same_outputs.COMMAND_PRESETS
    doc = PRESETS[rician]()
    assert doc["rician_kappa_db"] == 20.0 and doc["obstacles"] and doc["m_v"] == 2
    for command in ("validate", "benchmark"):
        assert len([name for name in argvs if name.startswith(command + "_")]) == 4
        assert f"{command}_{rician}" in argvs
    maps = []
    for name, argv in argvs.items():
        if name.startswith("map_"):
            spec = json.loads(Path(argv[argv.index("--map-spec") + 1]).read_text())
            scheme = spec.get("scheme", "proposed")
            if isinstance(scheme, dict):  # a candidate support given by hand
                scheme = ("support", *scheme["support"])
            maps.append((spec["kind"], argv[argv.index("--preset") + 1], scheme))
    layouts = [(preset, "proposed") for preset in same_outputs.COMMAND_PRESETS] + [
        ("desk_full_los_2d", "dense_upa"), ("desk_full_los_2d", "sparse_2x4"),
        ("paper_partial_los_1d", "dense_ula"), ("desk_partial_los", ("support", 58, 3, 96, 41))]
    assert sorted(maps, key=repr) == sorted(((kind, *layout) for kind in ("power", "correlation")
                                             for layout in layouts), key=repr)
    for argv in argvs.values():  # every input document was written
        for arg in argv:
            if arg.endswith(".json") and arg.startswith(str(tmp_path)):
                assert Path(arg).is_file()


def test_a_difference_is_described_as_floats_only_or_not(tmp_path):
    left = _tree(tmp_path / "l", {
        "ulp.csv": b"scheme,rate,n\nproposed,4.745282747061081,4\n",
        "int.json": b'{"n_mu": [2, 3, 4, 39], "objective": 12.5}\n',
        "only_left.txt": b""})
    right = _tree(tmp_path / "r", {
        "ulp.csv": b"scheme,rate,n\nproposed,4.745282747061082,4\n",
        "int.json": b'{"n_mu": [2, 3, 4, 36], "objective": 12.5}\n'})
    ulp = np.spacing(4.745282747061081) / 4.745282747061082
    assert same_outputs.how_files_differ(left / "ulp.csv", right / "ulp.csv") == (
        f"floats only, largest relative float difference {ulp:.3g}")
    assert same_outputs.how_files_differ(left / "int.json", right / "int.json") == (
        "not only floats, largest relative float difference 0")
    assert same_outputs.how_files_differ(left / "only_left.txt",
                                         right / "only_left.txt") == "only in parent"


def _exit_status(monkeypatch, parent_files, change_files, *flags):
    """``main``'s exit status when the parent and the change write these
    files, with no checkout made and no command run."""
    monkeypatch.setattr(same_outputs, "commands", lambda inputs: {"plan_x": ["plan"]})
    monkeypatch.setattr(same_outputs, "revision_checkout",
                        lambda rev: contextlib.nullcontext(Path("parent")))

    def run_side(checkout, argvs, out_root):
        _tree(out_root, parent_files if checkout == Path("parent") else change_files)
        return []

    monkeypatch.setattr(same_outputs, "run_side", run_side)
    return same_outputs.main(["--parent", "HEAD", *flags])


@pytest.mark.parametrize("change, flags, status", [
    (b"[2, 4.745282747061081]\n", (), 0),
    (b"[2, 4.745282747061082]\n", (), 1),
    (b"[2, 4.745282747061082]\n", ("--float-rtol", "1e-13"), 0),
    (b"[2, 4.745282747061082]\n", ("--float-rtol", "1e-16"), 1),
    (b"[2, 4.74528274706]\n", ("--float-rtol", "1e-13"), 1),
    (b"[3, 4.745282747061081]\n", ("--float-rtol", "1e-13"), 1),
    (b"[2.0, 4.745282747061081]\n", ("--float-rtol", "1e-13"), 1),
])
def test_float_rtol_accepts_only_small_float_differences(monkeypatch, change, flags, status):
    parent = {"plan_x/plan.json": b"[2, 4.745282747061081]\n"}
    assert _exit_status(monkeypatch, parent, {"plan_x/plan.json": change}, *flags) == status


def test_float_rtol_does_not_accept_a_one_sided_file(monkeypatch):
    parent = {"plan_x/plan.json": b"1.0\n"}
    change = {**parent, "plan_x/extra.json": b"1.0\n"}
    assert _exit_status(monkeypatch, parent, change, "--float-rtol", "1") == 1
