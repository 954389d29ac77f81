"""Every accepted document plans to the objective that an independent
reference computes from the document alone.

``perfbench/reference.py`` evaluates the closed-form weighted sum rate of a
support without importing xlma: its own candidate and grid geometry,
activation probabilities, slab test and pairwise moments. Documents are
drawn as a user writes them, so the path from a document to a score is
checked from outside, not only the presets the acceptance tests fix.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlma.errors import ConfigurationError, DomainError
from xlma.pipeline import context_from_document
from xlma.presets import desk_partial_los

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """(reference, workloads), imported from ``perfbench/``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import reference
        import workloads

    return reference, workloads


@st.composite
def documents(draw) -> dict:
    """A scenario document on desk_partial_los's carrier and powers: its
    element grid, Rician factor, placement region, coverage, boxes, user
    distribution, subarray count, visibility samples and seed all drawn."""
    doc = desk_partial_los()
    n_y, n_z = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    half_width = draw(st.floats(0.5, 60.0))
    z_min = draw(st.floats(10.0, 30.0))
    z_span = draw(st.floats(0.0 if n_z == 1 else 0.5, 25.0))
    k_x, k_y, k_z = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 2))
    n_grids = k_x * k_y * k_z
    order = draw(st.permutations(range(n_grids)))
    n2 = draw(st.integers(0, n_grids))
    n1 = draw(st.integers(0, n_grids - n2))
    regular_ratio = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3, 1.0])) if n1 + n2 else 1.0
    # The hotspot mass as a share of what the hotspot grids can hold. Past
    # about 0.9, rho2 clamps at 1 and rho1 takes up the rest.
    share = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.9, 1.0)))
    expected_users = (share * (n1 + n2) / (1.0 - regular_ratio) if regular_ratio < 1.0
                      else share * n_grids)
    box = st.fixed_dictionaries({
        "center": st.tuples(st.floats(0.5, 8.0), st.floats(-50.0, 50.0),
                            st.floats(0.0, 20.0)).map(list),
        "dims": st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 20.0),
                          st.floats(0.5, 30.0)).map(list)})
    doc.update({
        "m_h": draw(st.integers(1, 4)),
        "m_v": draw(st.integers(1, 3)),
        "rician_kappa_db": draw(st.one_of(st.floats(-10.0, 30.0), st.just("infinite"))),
        "n_subarrays": draw(st.integers(1, 3)),
        "visibility_samples": draw(st.integers(1, 30)),
        "rng_seed": draw(st.integers(0, 99)),
        "ma_region": {"y_min": -half_width, "y_max": half_width, "z_min": z_min,
                      "z_max": z_min + z_span, "n_y": n_y, "n_z": n_z},
        "coverage": {"x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
                     "z_min": 0.0, "z_max": 0.0 if k_z == 1 else 10.0,
                     "k_x": k_x, "k_y": k_y, "k_z": k_z},
        "obstacles": draw(st.lists(box, max_size=3)),
        "distribution": {"expected_users": expected_users, "regular_ratio": regular_ratio,
                         "hotspot_k1": list(order[n2:n2 + n1]),
                         "hotspot_k2": list(order[:n2])},
    })
    return doc


def assert_reference_rate(perfbench, doc, support, value) -> None:
    reference, workloads = perfbench
    expected = reference.weighted_rate(doc, support)
    assert abs(value - expected) <= workloads.REFERENCE_RTOL * abs(expected), (
        support, value, expected, doc)


@given(documents(), st.data())
@settings(max_examples=120, deadline=None)
def test_every_accepted_document_plans_to_the_reference(perfbench, doc, data):
    try:
        ctx = context_from_document(doc)
        plan = ctx.plan()
    except (ConfigurationError, DomainError):
        return
    assert_reference_rate(perfbench, doc, plan.n_mu, plan.objective)
    n_cols = ctx.model.n_cols
    for _ in range(data.draw(st.integers(1, 3))):
        size = data.draw(st.integers(1, min(3, n_cols)))
        support = data.draw(st.permutations(range(n_cols)))[:size]
        assert_reference_rate(perfbench, doc, support, ctx.model.weighted_sum(np.array(support)))
