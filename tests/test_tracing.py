"""The benchmark tracer (``perfbench/tracing.py``) wraps xlma entry points by
name and reads their arguments by parameter name. A refactor that drops or
renames one must fail here rather than in the benchmark's traced pass."""

import json
from pathlib import Path

import pytest

from xlma import cli
from xlma.presets import desk_partial_los

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_install_wraps_and_restore_puts_back_every_original(tracing):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, raw in patches:
            assert owner.__dict__[attr] is not raw, attr
    finally:
        tracer.restore()
    for owner, attr, raw in patches:
        assert owner.__dict__[attr] is raw, attr


def test_traced_sweep_reaches_every_layer(tracing, tmp_path):
    doc = desk_partial_los()
    doc["ma_region"]["n_y"] = 12  # 495 subsets for the exhaustive oracle
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "parameter": "m_h",
        "values": [2],
        "schemes": ["proposed", "optimal", "horizontal_sparse"],
        "evaluators": ["approx_mrc", "upper_bound", "sim_mrc", "sim_mmse"],
        "trials": 3,
    }))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("cli"):
            code = cli.main(["sweep", "--config", str(config), "--sweep", str(spec),
                             "--out-dir", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    names = {span["name"] for span in tracer.spans}
    assert names >= {
        "cli", "pipeline.context", "scenario.visibility", "channel.gain_tables",
        "channel.layout_stats", "channel.draw", "rate.assemble", "optimizer.lp",
        "optimizer.replacement", "optimizer.exhaustive", "montecarlo.mrc", "montecarlo.mmse",
    }
    layers = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert layers["montecarlo.trials"]["value"] == 3 * 3 * 2
    for name in ("scenario.visibility_rows", "scenario.segment_tests", "channel.gain_entries",
                 "rate.pair_columns", "lp.iterations", "optimizer.replacement_evals",
                 "optimizer.combinations", "montecarlo.active_users"):
        assert layers[name]["value"] > 0, name
