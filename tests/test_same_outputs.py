"""The byte comparison and the command set of ``scripts/same_outputs.py``."""

import json
import sys
from pathlib import Path

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
    for preset in PRESETS:
        assert "--trace-jsonl" in argvs[f"plan_{preset}"]
    assert {f"dense_plan_{seed}" for seed in (7, 11, 23)} <= set(argvs)
    all_active = argvs["plan_full_scale_all_active"]  # every grid of the paper's scale
    expected = PRESETS["paper_full_scale_3d_type1"]()
    expected["distribution"]["regular_ratio"] = 0.2
    assert json.loads(Path(all_active[all_active.index("--config") + 1]).read_text()) == expected
    sweeps = [argv for name, argv in argvs.items() if name.startswith("sweep_oracle_")]
    assert sorted(argv[-1] for argv in sweeps) == ["1", "1", "4", "4"]
    for command in ("validate", "benchmark"):
        assert len([name for name in argvs if name.startswith(command + "_")]) == 3
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
