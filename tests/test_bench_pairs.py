"""The summary of tools/bench_pairs.py on fixed numbers."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs
    return bench_pairs


def test_quartiles_are_inclusive(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_on_ten_pairs(bench_pairs):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 1.05, 0.79]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert (s["pairs"], s["wins"]) == (10, 9)
    assert s["parent"] == pytest.approx((0.9825, 1.0, 1.0175))
    assert s["change"][1] == pytest.approx(0.80)
    assert s["relative_change"] == pytest.approx(-0.2)
    assert s["gain"] and s["within_bound"]


def test_eight_wins_of_ten_claim_no_gain(bench_pairs):
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.5]  # a tie counts for neither side
    s = bench_pairs.summarize(parent, change)
    assert s["wins"] == 8
    assert not s["gain"]
    assert s["within_bound"] is None


def test_a_gap_inside_the_parents_spread_claims_no_gain(bench_pairs):
    parent = [0.8, 1.2] * 5  # interquartile range 0.4
    change = [0.75, 1.15] * 5  # wins every pair, medians 0.05 apart
    s = bench_pairs.summarize(parent, change)
    assert s["wins"] == 10
    assert not s["gain"]


def test_a_worse_median_is_checked_against_the_bound(bench_pairs):
    parent = [1.0, 1.0, 1.0, 1.0]
    assert bench_pairs.summarize(parent, [1.2] * 4, "lower", 0.25)["within_bound"]
    assert not bench_pairs.summarize(parent, [1.3] * 4, "lower", 0.25)["within_bound"]
    higher = bench_pairs.summarize(parent, [0.7] * 4, "higher", 0.25)
    assert not higher["within_bound"] and higher["wins"] == 0


def test_a_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    parent = [0.8, 1.0, 1.2, 1.0, 0.8, 1.2]  # interquartile range 0.3 of median 1.0
    change = [1.1, 0.9, 1.1, 0.9, 1.1, 0.9]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["within_bound"] and s["status"] == "unresolved"


def test_a_wide_parent_spread_is_resolved_when_every_change_run_is_better(bench_pairs):
    parent = [0.8, 1.0, 1.2, 1.0, 0.8, 1.2]
    change = [0.7, 0.75, 0.7, 0.75, 0.7, 0.75]  # below the parent's least run
    assert bench_pairs.summarize(parent, change, "lower", 0.25)["status"] == "ok"


def test_a_narrow_parent_spread_is_ok_within_the_bound(bench_pairs):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03]
    change = [1.05, 1.06, 1.04, 1.05, 1.07, 1.03]  # 5 % worse, inside 0.25
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["status"] == "ok" and s["wins"] == 0
    assert bench_pairs.summarize(parent, change)["status"] is None


def test_unequal_sides_are_rejected(bench_pairs):
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])


def test_failed_share_is_failed_over_attempted(bench_pairs):
    runs = [{"failed": 1, "attempted": 40}, {"failed": 0, "attempted": 60}]
    assert bench_pairs.failed_share(runs) == pytest.approx(0.01)
    assert bench_pairs.failed_share([{"failed": 0, "attempted": 0}]) == 0.0
    assert bench_pairs.failed_share([{"failed": 2, "attempted": 0}]) == 1.0


def _fixed_runs(monkeypatch, bench_pairs, failed):
    """Replace the benchmark runs by fixed results: the change halves every
    metric on every pair and fails failed[side] operations per run."""
    def run_once(checkout, workload, seed, seconds):
        value = 1.0 if checkout == "parent" else 0.5
        return {"failed": failed[checkout], "attempted": 100,
                "metrics": {name: {"value": value}
                            for name in ("setup_s", "peak_rss_mb", "pass_s")}}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)


def _gains(out):
    """The gain column of each metric line of the printed summary."""
    return [line.split()[-1] for line in out.splitlines()
            if line.startswith("verify-mix ")]


def test_a_clear_gain_without_failures_exits_0(bench_pairs, monkeypatch, capsys):
    _fixed_runs(monkeypatch, bench_pairs, {"parent": 0, "change": 0})
    code = bench_pairs.main(["parent", "change", "--workload", "verify-mix",
                             "--seeds", *map(str, range(10))])
    out = capsys.readouterr().out
    assert code == 0
    assert "failed share: parent 0, change 0" in out
    assert _gains(out) == ["yes"] * 3


def test_a_change_that_fails_more_claims_no_gain_and_exits_1(bench_pairs, monkeypatch,
                                                            capsys):
    _fixed_runs(monkeypatch, bench_pairs, {"parent": 0, "change": 1})
    code = bench_pairs.main(["parent", "change", "--workload", "verify-mix",
                             "--seeds", *map(str, range(10))])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed share: parent 0, change 0.01" in out
    assert _gains(out) == ["no"] * 3


def test_a_failing_parent_alone_still_exits_1(bench_pairs, monkeypatch, capsys):
    _fixed_runs(monkeypatch, bench_pairs, {"parent": 2, "change": 0})
    code = bench_pairs.main(["parent", "change", "--workload", "verify-mix",
                             "--seeds", *map(str, range(10))])
    out = capsys.readouterr().out
    assert code == 1
    assert _gains(out) == ["yes"] * 3  # the change fails no larger a share
