"""The BENCH writer's summary arithmetic, on made-up runs (no benchmark run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
br = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(br)


def test_compare_counts_pair_wins_and_claims_by_the_parent_spread():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98]
    change = [p - 0.2 for p in parent]
    c = br.compare(parent, change, "lower")
    assert (c["change_won"], c["pairs"], c["gain"]) == (10, 10, True)
    assert c["change"]["median"] == pytest.approx(0.8)
    # one pair lost and one tied: 8 of 10 won, no gain whatever the medians
    change[0], change[1] = 1.2, 1.1
    c = br.compare(parent, change, "lower")
    assert (c["change_won"], c["gain"]) == (8, False)
    # higher is better: the same runs are all lost
    assert br.compare(parent, [p - 0.2 for p in parent], "higher")["change_won"] == 0


def test_compare_needs_the_medians_apart_by_more_than_the_quartiles():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [p - 0.1 for p in parent]
    c = br.compare(parent, change, "lower")
    assert c["change_won"] == 10 and not c["gain"]


def test_layer_directions_and_derived_scan_numbers():
    assert br.direction("linalg.rref.calls") == "lower"
    assert br.direction("addcodes.scan.words_examined") == "lower"
    assert br.direction("addcodes.scan.self_s") == "lower"
    assert br.direction("addcodes.scan.words_avoided") == "higher"
    assert br.direction("addcodes.scan.words_required_per_scan_s") == "higher"
    for name in ("addcodes.scan.words_per_s", "addcodes.scan.words_per_s.q3",
                 "addcodes.scan.examined_ratio", "addcodes.scan.early_exits",
                 "addcodes.scan.words_required"):
        assert br.direction(name) is None
    m = br.layer_metrics({"metrics": {
        "addcodes.scan.words_required": {"value": 1000.0},
        "addcodes.scan.words_examined": {"value": 250.0},
        "addcodes.scan.words_per_s": {"value": 500.0}}})
    # 250 words at 500 words/s is 0.5 s of scanning for 1000 required words
    assert m["addcodes.scan.words_avoided"] == 750.0
    assert m["addcodes.scan.words_required_per_scan_s"] == 2000.0
