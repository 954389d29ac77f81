"""No input ends the command line in a runtime failure.

Preset documents, sweep specs and map specs are mutated at one or two nodes
(deleted, or set to null, a string, NaN, +-inf, 0, a negative, 1e308,
10**30, a fraction or a list of the wrong length) and run through
``cli.main``: it must exit 0, or 1 with an ``error:`` line on stderr, never
2, and raise no warning (the test suite's filter makes each an error): a
number whose square or power overflows is refused, not run with infinities.
Scenes are kept small (at most ``MAX_N_Y`` candidates per row), so that each
run takes milliseconds.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from xlma.cli import main
from xlma.presets import PRESETS

MAX_N_Y = 12
DELETE = object()
MUTATIONS = ("delete", "null", "string", "nan", "inf", "-inf", "zero", "negative", "1e308",
             "10**30", "fraction", "wrong length")


def small_preset(name: str) -> dict:
    doc = PRESETS[name]()
    doc["ma_region"]["n_y"] = min(doc["ma_region"]["n_y"], MAX_N_Y)
    return doc


def mutated(value, mutation: str):
    """What ``mutation`` makes of the node ``value`` (``DELETE``: remove it)."""
    number = value if isinstance(value, (int, float)) and not isinstance(value, bool) else 1
    if mutation == "wrong length":
        return value[:-1] if isinstance(value, list) and value else [value, value]
    return {"delete": DELETE, "null": None, "string": "abc", "nan": math.nan,
            "inf": math.inf, "-inf": -math.inf, "zero": 0, "negative": -abs(number) or -1,
            "1e308": 1e308, "10**30": 10**30, "fraction": number + 0.5}[mutation]


def node_paths(node, prefix=()):
    """The path of every node below ``node``, a tree of dicts and lists."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def apply(doc, path, mutation) -> None:
    """Mutate ``doc`` in place at ``path``, if an earlier mutation left it."""
    parent = doc
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if not (key in parent if isinstance(parent, dict) else
            isinstance(parent, list) and isinstance(key, int) and key < len(parent)):
        return
    value = mutated(parent[key], mutation)
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value


@st.composite
def mutations_of(draw, doc):
    """A copy of ``doc`` with one or two of its nodes mutated."""
    doc = copy.deepcopy(doc)
    paths = list(node_paths(doc))
    for _ in range(draw(st.integers(1, 2))):
        apply(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(MUTATIONS)))
    return doc


def run_cli(argv_for, files: dict) -> None:
    """Write ``files`` (name: JSON document) to a fresh directory, run
    ``cli.main(argv_for(directory))`` there and check how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, doc in files.items():
            (tmp / name).write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv_for(tmp))
    message = err.getvalue()
    assert code in (0, 1), (code, message, files)
    if code == 1:
        assert any(line.startswith("error: ") for line in message.splitlines()), message


@given(st.sampled_from(sorted(PRESETS)).flatmap(lambda name: mutations_of(small_preset(name))))
@settings(max_examples=200, deadline=None)
def test_mutated_scenarios_plan(doc):
    run_cli(lambda tmp: ["plan", "--config", str(tmp / "doc.json"),
                         "--out", str(tmp / "plan.json")], {"doc.json": doc})


def sweep_specs():
    step = 101.0 / MAX_N_Y  # desk_partial_los's candidate step, kept small
    common = {"schemes": ["proposed", "optimal", "dense_ula"],
              "evaluators": ["approx_mrc", "sim_mrc", "upper_bound"], "trials": 8}
    return [{"parameter": "m_h", "values": [2, 3], **common},
            {"parameter": "ma_width", "values": [4 * step, 8 * step], **common},
            {"parameter": "expected_users", "values": [6.0, 11.0], **common},
            {"parameter": "rician_db", "values": [10.0, "infinite"], **common}]


@given(st.sampled_from(sweep_specs()).flatmap(mutations_of))
@settings(max_examples=100, deadline=None)
def test_mutated_sweep_specs(spec):
    run_cli(lambda tmp: ["sweep", "--config", str(tmp / "doc.json"), "--sweep",
                         str(tmp / "spec.json"), "--out-dir", str(tmp / "out")],
            {"doc.json": small_preset("desk_partial_los"), "spec.json": spec})


def map_specs():
    common = {"resolution": 6, "probe_point": [30.0, 0.0], "z_plane": 0.0,
              "blocked_placeholder_dbm": -150.0}
    return [{"kind": kind, "scheme": scheme, **common}
            for kind in ("power", "correlation")
            for scheme in ("proposed", "dense_ula", {"support": [0, 3, 6, 9]})]


@given(st.sampled_from(map_specs()).flatmap(mutations_of))
@settings(max_examples=100, deadline=None)
def test_mutated_map_specs(spec):
    run_cli(lambda tmp: ["map", "--config", str(tmp / "doc.json"), "--map-spec",
                         str(tmp / "spec.json"), "--out", str(tmp / "map.csv")],
            {"doc.json": small_preset("desk_partial_los"), "spec.json": spec})
