"""The claim rule of ``scripts/bench_pairs.py`` on fixed runs."""

import sys
from pathlib import Path

import pytest

# The scripts import their shared checkout helper by module name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402

claim_verdict = bench_pairs.claim_verdict

# Parent runs with median 1.0 and quartiles [0.95, 1.05], an IQR of 0.1.
PARENT = [0.9, 0.92, 0.95, 0.95, 0.99, 1.01, 1.05, 1.05, 1.08, 1.1]


def test_quartiles_interpolate_the_sorted_runs():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((0.95, 1.0, 1.05))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_ten_wins_and_a_gap_past_the_iqr_meet_the_claim():
    change = [p - 0.2 for p in PARENT]
    assert claim_verdict(PARENT, change, "lower") == (10, True)


def test_nine_wins_of_ten_are_enough():
    change = [p - 0.2 for p in PARENT]
    change[3] = PARENT[3]
    assert claim_verdict(PARENT, change, "lower") == (9, True)


def test_eight_wins_of_ten_are_not():
    change = [p - 0.2 for p in PARENT]
    change[3], change[6] = PARENT[3], PARENT[6] + 0.01
    assert claim_verdict(PARENT, change, "lower") == (8, False)


def test_every_pair_won_by_less_than_the_iqr_is_not():
    change = [p - 0.05 for p in PARENT]
    assert claim_verdict(PARENT, change, "lower") == (10, False)


def test_higher_is_better_counts_the_other_way():
    change = [p + 0.2 for p in PARENT]
    assert claim_verdict(PARENT, change, "higher") == (10, True)
    assert claim_verdict(PARENT, change, "lower") == (0, False)


def test_ties_are_no_wins():
    assert claim_verdict(PARENT, list(PARENT), "lower") == (0, False)


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError):
        claim_verdict(PARENT, PARENT[:-1], "lower")


def test_pair_differences_are_relative_to_each_pairs_parent():
    assert bench_pairs.pair_differences([2.0, 4.0], [1.0, 5.0]) == [-0.5, 0.25]
    assert bench_pairs.pair_differences([0.0, 4.0], [1.0, 5.0]) is None
    with pytest.raises(ValueError):
        bench_pairs.pair_differences([1.0], [1.0, 2.0])


def test_a_drifting_parent_shows_a_steady_effect_per_pair(capsys):
    """The host slows by 10% a pair, so the parent's quartiles span about
    40% of its median and hide the change's steady 5% gain, which every
    pair shows. The verdict stays that of the claim rule."""
    parent = [1.1**i for i in range(10)]
    change = [p * 0.95 for p in parent]
    bench_pairs.report("w", [{"name": "wall_s", "better": "lower"}],
                       [{"wall_s": v} for v in parent], [{"wall_s": v} for v in change])
    line = capsys.readouterr().out.strip()
    assert line.startswith("w wall_s: parent 1.537 [1.24, 1.904]  change 1.46 [1.178, 1.809]  -5.0%")
    assert "per pair -5.0% [-5.0%, -5.0%]  wins 10/10  claim not met" in line
