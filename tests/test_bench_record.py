"""The BENCH writer's summary arithmetic, on made-up runs, and how it copies
the checkout and names its file (no benchmark run)."""

import datetime
import importlib.util
import subprocess
import sys
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


def test_verdict_against_the_bound():
    """worse: the median worse by more than the bound of the parent's;
    unresolved: the parent spread wider than the bound and not every change
    run better than every parent run; within otherwise."""
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
    c = br.compare(parent, [p * 1.3 for p in parent], "lower", 0.25)
    assert (c["bound"], c["verdict"]) == (0.25, "worse")
    assert br.compare(parent, [p * 1.2 for p in parent], "lower", 0.25)["verdict"] == "within"
    assert br.compare(parent, [p * 1.3 for p in parent], "higher", 0.25)["verdict"] == "within"
    assert br.compare(parent, [p * 0.7 for p in parent], "higher", 0.25)["verdict"] == "worse"
    # quartiles 0.5 and 1.5 around a median of 1: spread 1.0 > 0.25
    wide = [0.5, 1.5, 0.5, 1.5, 1.0, 1.0, 0.5, 1.5, 1.0, 1.0]
    assert br.compare(wide, wide, "lower", 0.25)["verdict"] == "unresolved"
    assert br.compare(wide, [0.4] * 10, "lower", 0.25)["verdict"] == "within"
    assert br.compare(wide, [1.6] * 10, "higher", 0.25)["verdict"] == "within"
    assert br.compare(wide, [0.6] + [0.4] * 9, "lower", 0.25)["verdict"] == "unresolved"
    assert br.compare(wide, [1.6] * 10, "lower", 0.25)["verdict"] == "worse"
    assert br.compare(parent, parent, "lower")["verdict"] is None


def test_layer_directions_and_derived_scan_numbers():
    """Work done is lower-is-better; no traced number is higher-is-better."""
    assert br.direction("linalg.rref.calls") == "lower"
    assert br.direction("addcodes.scan.words_examined") == "lower"
    assert br.direction("addcodes.scan.self_s") == "lower"
    for name in ("addcodes.scan.words_per_s", "addcodes.scan.words_per_s.q3",
                 "addcodes.scan.examined_ratio", "addcodes.scan.early_exits",
                 "addcodes.scan.words_required"):
        assert br.direction(name) is None
    assert {br.direction(m["name"]) for m in br.BENCHMARK["per_layer"]} == {"lower", None}


def test_cold_summary_in_milliseconds():
    parent = [0.200, 0.190, 0.210, 0.205, 0.195]
    times = {"import": {"parent": parent, "change": [t - 0.150 for t in parent]},
             "analyze": {"parent": parent, "change": [0.210, 0.180, 0.220, 0.190, 0.200]}}
    s = br.cold_summary(times)
    assert set(s) == {"import", "analyze"}
    c = s["import"]
    assert c["parent"]["median"] == pytest.approx(200.0)
    assert c["change"]["median"] == pytest.approx(50.0)
    assert (c["parent"]["q1"], c["parent"]["q3"]) == pytest.approx((192.5, 207.5))
    assert (c["change_won"], c["pairs"], c["gain"]) == (5, 5, True)
    # 2 of 5 pairs won and both medians 200: no gain
    c = s["analyze"]
    assert (c["change_won"], c["change"]["median"], c["gain"]) == (
        2, pytest.approx(200.0), False)


def test_cold_summary_resolves_by_the_pair_rule():
    """A cold command is resolved when the change wins at least 9 of 10
    pairs with the medians further apart than the parent's quartile spread,
    or loses by that rule; a median moved past the spread on 7 of 21 pairs
    won is not."""
    parent = [0.130 + 0.001 * (k % 3) for k in range(21)]  # spread 2 ms
    runs = {
        "faster": [t - 0.020 for t in parent],
        "slower": [t + 0.020 for t in parent],
        "inside": [t - 0.0015 for t in parent],
        "seven-of-21": [t - 0.001 if k % 3 == 0 else t + 0.020
                        for k, t in enumerate(parent)],
    }
    s = br.cold_summary({name: {"parent": parent, "change": change}
                         for name, change in runs.items()})
    assert s["faster"]["parent"]["q3"] - s["faster"]["parent"]["q1"] == pytest.approx(2.0)
    c = s["seven-of-21"]
    assert c["change_won"] == 7
    assert c["change"]["median"] - c["parent"]["median"] > c["parent"]["q3"] - c["parent"]["q1"]
    assert {name: c["resolved"] for name, c in s.items()} == {
        "faster": True, "slower": True, "inside": False, "seven-of-21": False}
    assert (s["faster"]["gain"], s["slower"]["gain"]) == (True, False)


def test_cold_time_runs_the_package_of_the_checkout(tmp_path):
    """A cold run imports the checkout's own src/, ahead of any PYTHONPATH,
    from inside the checkout."""
    pkg = tmp_path / "src" / "eaqecne"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "import pathlib\npathlib.Path('seen').write_text(__file__)\n")
    assert br.cold_time(tmp_path, ["-c", "import eaqecne"]) > 0
    assert (tmp_path / "seen").read_text() == str(pkg / "__init__.py")


def test_every_cold_command_exits_0_on_this_checkout(tmp_path):
    """Each timed command, with its argv and input files read from its case
    of golden_cli.json, exits 0 on this checkout's src/ and prints that
    case's stdout; a case renamed away fails here."""
    (tmp_path / "src").symlink_to(_PATH.parents[1] / "src")
    commands = br.cold_commands()
    assert list(commands) == ["import", "fidelity", "match", "print-field",
                              "analyze", "mindist", "combine"]
    for argv, files, stdout in commands.values():
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode())
        proc = subprocess.run([sys.executable, *argv], cwd=tmp_path,
                              env=br.source_env(tmp_path), capture_output=True)
        assert (proc.returncode, proc.stdout.decode()) == (0, stdout)


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                    *args], cwd=repo, check=True, capture_output=True)


def test_snapshot_copies_the_tree_as_it_stands(tmp_path):
    """The change side runs from a copy of the working tree: committed files,
    uncommitted edits and untracked files, but no ignored or deleted file."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    git(repo, "init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "src" / "kept.py").write_text("a = 1\n")
    (repo / "src" / "edited.py").write_text("b = 1\n")
    (repo / "gone.txt").write_text("deleted after the commit\n")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "edited.py").write_text("b = 2\nc = 3\n")
    (repo / "src" / "new.py").write_text("d = 4\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    tree = br.snapshot(repo, tmp_path / "tmp")
    files = sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/edited.py", "src/kept.py", "src/new.py"]
    assert (tree / "src" / "edited.py").read_text() == "b = 2\nc = 3\n"
    assert br.src_lines(tree) == 4


def test_record_path_never_overwrites_a_record_of_the_day(tmp_path):
    day = datetime.date(2026, 10, 19)
    for name in ("BENCH_20261019.json", "BENCH_20261019_2.json", "BENCH_20261019_3.json"):
        assert br.record_path(tmp_path, day) == tmp_path / name
        (tmp_path / name).write_text("{}\n")
    (tmp_path / "BENCH_20261019_5.json").write_text("{}\n")
    assert br.record_path(tmp_path, day).name == "BENCH_20261019_4.json"
    next_day = br.record_path(tmp_path, day + datetime.timedelta(days=1))
    assert next_day.name == "BENCH_20261020.json"


def test_record_traces_distance_and_structure(tmp_path, monkeypatch):
    """The record holds the end-to-end pairs of every workload and, for
    every workload (distance, structure and fidelity among them), one
    traced run per side whose per-layer metrics (rref and parse_matrix self
    time among them) sit beside them."""
    calls = []

    def fake_run(checkout, workload, seed, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        layer = 0.02 if checkout.name == "parent" else 0.01
        metrics = {name: {"value": 0.1} for name in br.END_TO_END}
        if trace:
            metrics = {"linalg.rref.self_s": {"value": layer},
                       "linalg.parse_matrix.self_s": {"value": layer / 2},
                       "linalg.rref.calls": {"value": 84.0}}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(br, "run_bench", fake_run)
    monkeypatch.setattr(br, "cold_start", lambda parent, change: {})
    sides = {}
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
        sides[side] = tmp_path / side
    report = br.record(sides["parent"], sides["change"], "note")
    traced = [c for c in calls if c[3]]
    assert sorted(traced) == sorted((side, w, br.SEEDS[0], 1) for side in sides
                                    for w in br.WORKLOADS)
    assert {"distance", "structure", "fidelity"} <= set(br.WORKLOADS)
    assert len(calls) - len(traced) == 2 * len(br.SEEDS) * len(br.WORKLOADS)
    assert set(report["end_to_end"]) == set(br.WORKLOADS)
    for metrics in report["end_to_end"].values():
        assert {name: (c["bound"], c["verdict"]) for name, c in metrics.items()} == {
            m["name"]: (m["bound"], "within") for m in br.BENCHMARK["end_to_end"]}
    assert report["traced_correct"] == {w: {"parent": True, "change": True}
                                        for w in br.WORKLOADS}
    for w in br.WORKLOADS:
        layers = report[f"per_layer_{w}_traced"]
        # exactly the traced run's metrics: nothing derived is added
        assert set(layers) == {"linalg.rref.self_s", "linalg.parse_matrix.self_s",
                               "linalg.rref.calls"}
        assert layers["linalg.rref.self_s"] == {
            "better": "lower", "parent": 0.02, "change": 0.01}
        assert layers["linalg.parse_matrix.self_s"] == {
            "better": "lower", "parent": 0.01, "change": 0.005}
        assert layers["linalg.rref.calls"]["better"] == "lower"
