#!/usr/bin/env python3
"""Record a BENCH file: the benchmark of a parent checkout against this one.

    python3 tools/bench_record.py --base HEAD

Runs ``bench/run.py`` of the parent (``--base``: a git revision of this
repository, exported with ``git archive`` into a temporary directory) and of
the checkout this script sits in as it stands (its tracked files with their
uncommitted edits and its untracked files that git does not ignore, copied
into a temporary directory too, so that both sides run from alike fresh
trees), in ten alternating pairs for every
workload of ``BENCHMARK.json``, each run as long as its ``run_seconds``:
pair k runs both sides on seed 21 + k, the parent first on even k and the
change first on odd k.  Then it runs one traced (``--trace 1``) run per
side of every workload on seed 21, so a workload added to ``BENCHMARK.json``
is traced with no edit here.  Every run is a fresh process.  The settings are
fixed so that every record is taken the same way as the benchmark.

A cold-start section times what a user waits for on each CLI call: fresh
processes of ``import eaqecne`` and of the CLI cases of
``tests/golden_cli.json`` named in ``COLD_CASES``, with their argv and input
files, each run ``COLD_RUNS`` times per side, the sides alternating as in the
pairs.  They run in the environment the script was started in and set no
thread count, whereas ``bench/run.py`` pins one BLAS thread and imports
numpy before it times anything.  The benchmark's own ops each call
``cli.main`` and so already time the CLI's per-invocation work (building the
parser) in ``wall_s``.

It writes ``BENCH_<yyyymmdd>.json`` into this checkout, or, when a record of
the day exists, the first free ``BENCH_<yyyymmdd>_2.json``, ``_3``, ...; it
never overwrites one.  The record holds, for each workload and
end-to-end metric the median and quartiles of each side, the pairs the
change won (ties count for neither), whether a gain may be claimed (at
least nine tenths of the pairs won and the medians further apart than the
parent's quartiles) and a no-regression ``verdict`` against the metric's
``bound`` in ``BENCHMARK.json``; the same summary, in milliseconds, of each
cold-start command, with a ``resolved`` flag that is true when the change
wins by that claim rule or loses by it (the rule with the sides swapped);
for each workload, as ``per_layer_<workload>_traced``, exactly the metrics
its traced run prints, for both sides with the direction that is better, to
read beside the untraced ``wall_s``; the ``src/`` line counts of the two
copies; and a host note.

Direction of the per-layer numbers.  Call counts, self times and words
examined are work done, so lower is better (the benchmark's own declaration
calls ``.calls`` higher-is-better).  ``words_required`` is set by the
inputs, and ``words_per_s`` (overall and per q), ``examined_ratio`` and
``early_exits`` count examined words, whose meaning a change to what the
scan examines alters; they are recorded without a direction.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
SEEDS = tuple(range(21, 31))        # one per pair; the traced runs use the first
UNDIRECTED = ("addcodes.scan.words_per_s", "addcodes.scan.examined_ratio",
              "addcodes.scan.early_exits")
COLD_RUNS = 21
GOLDEN_CLI = ROOT / "tests" / "golden_cli.json"
# cold-start name -> the case of GOLDEN_CLI it runs
COLD_CASES = {"fidelity": "fidelity-lambda-0.01", "match": "match",
              "print-field": "print-field-order-9", "analyze": "analyze-rs2",
              "mindist": "mindist-rs2", "combine": "combine-witness"}


def run_bench(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``bench/run.py`` process; its last stdout line, or a failure."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], sign: int,
            bound: float) -> str:
    """``worse`` if the change's median is worse than the parent's by more
    than `bound` of the parent's median; else ``unresolved`` if the parent's
    quartile spread exceeds `bound` of its median and not every change run
    beats every parent run; else ``within``."""
    p1, pm, p3 = quartiles(parent)
    if sign * (quartiles(change)[1] - pm) > bound * abs(pm):
        return "worse"
    all_beat = max(sign * c for c in change) < min(sign * p for p in parent)
    if p3 - p1 > bound * abs(pm) and not all_beat:
        return "unresolved"
    return "within"


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """Medians, quartiles and pair wins of one lower- or higher-is-better
    metric measured in pairs (parent[k], change[k]), and, given the
    metric's no-regression `bound`, its ``verdict``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "better": better,
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "change_vs_parent": cm / pm - 1 if pm else None,
        "pairs": len(parent),
        "change_won": wins,
        "gain": wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1,
        "bound": bound,
        "verdict": None if bound is None else verdict(parent, change, sign, bound),
    }


def source_env(checkout: Path) -> dict:
    """The environment with `checkout`'s sources ahead of any PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])))


def cold_time(checkout: Path, argv: list[str]) -> float:
    """Wall seconds of one fresh interpreter running `argv` in `checkout`
    on its sources."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=checkout, env=source_env(checkout),
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cold_summary(times: dict[str, dict[str, list[float]]]) -> dict:
    """Per command, the pair summary of `compare` over its runs in
    milliseconds and whether it is ``resolved``: the change wins by the
    claim rule (``gain``) or loses by it (``gain`` with the sides swapped)."""
    out = {}
    for name, sides in times.items():
        parent, change = ([t * 1e3 for t in sides[s]] for s in ("parent", "change"))
        c = compare(parent, change, "lower")
        c["resolved"] = c["gain"] or compare(change, parent, "lower")["gain"]
        out[name] = c
    return out


def cold_commands() -> dict[str, tuple[list[str], dict[str, str], str]]:
    """Each cold-start command by its name in the record: the interpreter's
    arguments, the input files and the stdout it prints; ``import eaqecne``
    and then the cases of ``COLD_CASES``, read from ``GOLDEN_CLI``."""
    cases = {case["id"]: case
             for case in json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))}
    commands = {"import": (["-c", "import eaqecne"], {}, "")}
    for name, case_id in COLD_CASES.items():
        case = cases[case_id]
        commands[name] = (["-m", "eaqecne.cli", *case["argv"]], case["files"],
                          case["stdout"])
    return commands


def cold_start(parent: Path, change: Path) -> dict:
    commands = cold_commands()
    for checkout in (parent, change):
        for _, files, _ in commands.values():
            for name, text in files.items():
                (checkout / name).write_bytes(text.encode())
    times = {name: {"parent": [], "change": []} for name in commands}
    for k in range(COLD_RUNS):
        sides = [("parent", parent), ("change", change)]
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            for name, (argv, _, _) in commands.items():
                times[name][side].append(cold_time(checkout, argv))
    return cold_summary(times)


def direction(name: str) -> str | None:
    """The better direction of a traced per-layer metric."""
    if name.startswith(UNDIRECTED):
        return None
    if name.endswith((".calls", ".words_examined", "_s", ".wall_share",
                      ".overhead")):
        return "lower"
    return None


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((checkout / "src").rglob("*.py")))


def snapshot(repo: Path, into: Path) -> Path:
    """The working tree of `repo` as it stands, copied to ``into/change``:
    tracked files with their uncommitted edits and untracked files that git
    does not ignore.  A tracked file deleted from the tree is left out."""
    tree = into / "change"
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                           cwd=repo, check=True, capture_output=True).stdout
    for name in filter(None, os.fsdecode(names).split("\0")):
        if (repo / name).is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, tree / name)
    return tree


def record_path(directory: Path, day: datetime.date) -> Path:
    """The first BENCH file name of the day that `directory` does not hold."""
    out, k = directory / f"BENCH_{day:%Y%m%d}.json", 1
    while out.exists():
        k += 1
        out = directory / f"BENCH_{day:%Y%m%d}_{k}.json"
    return out


def export(rev: str, into: Path) -> Path:
    """The tree of a git revision of this repository, unpacked under `into`."""
    archive, tree = into / "base.tar", into / "base"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev],
                   cwd=ROOT, check=True)
    tree.mkdir()
    subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(tree)], check=True)
    return tree


def host_note(extra: str) -> dict:
    import numpy
    return {
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": extra,
    }


def record(parent: Path, change: Path, note: str) -> dict:
    host = host_note(note)
    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for w in WORKLOADS:
        for k, seed in enumerate(SEEDS):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if k % 2 == 0 else sides[::-1]:
                res = run_bench(checkout, w, seed)
                runs[w][side].append(res)
                print(f"{w} pair {k} {side}: correct={res.get('correct')} "
                      f"wall_s={res.get('metrics', {}).get('wall_s', {}).get('value')}",
                      file=sys.stderr)
    traced = {w: {side: run_bench(checkout, w, SEEDS[0], 1)
                  for side, checkout in (("parent", parent), ("change", change))}
              for w in WORKLOADS}
    cold = cold_start(parent, change)
    host["loadavg_at_end"] = os.getloadavg()

    end_to_end, correct = {}, {}
    for w, sides in runs.items():
        correct[w] = {side: {"all_correct": all(r.get("correct") for r in rs),
                             "failed_ops": sum(r.get("failed", 0) for r in rs),
                             "attempted_ops": sum(r.get("attempted", 0) for r in rs)}
                      for side, rs in sides.items()}
        if not all(r.get("correct") for rs in sides.values() for r in rs):
            continue
        end_to_end[w] = {
            name: compare([r["metrics"][name]["value"] for r in sides["parent"]],
                          [r["metrics"][name]["value"] for r in sides["change"]],
                          m["better"], m["bound"])
            for name, m in END_TO_END.items()}

    per_layer = {}
    for w, sides in traced.items():
        layers = {side: {k: v["value"] for k, v in res.get("metrics", {}).items()}
                  for side, res in sides.items()}
        per_layer[f"per_layer_{w}_traced"] = {
            name: {"better": direction(name), "parent": layers["parent"].get(name),
                   "change": layers["change"].get(name)}
            for name in sorted(set(layers["parent"]) | set(layers["change"]))}
    return {
        "date": datetime.date.today().isoformat(),
        "host": host,
        "settings": {"pairs": len(SEEDS), "seconds": SECONDS,
                     "seeds": list(SEEDS), "traced_seed": SEEDS[0],
                     "cold_runs": COLD_RUNS},
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "correct": correct,
        "end_to_end": end_to_end,
        "cold_start_ms": cold,
        **per_layer,
        "traced_correct": {w: {side: res.get("correct") for side, res in sides.items()}
                           for w, sides in traced.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="the parent: a git revision of this repository")
    parser.add_argument("--note", default="", help="free text for the host note")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        report = record(export(args.base, Path(tmp)), snapshot(ROOT, Path(tmp)),
                        args.note)
    report["command"] = f"python3 tools/bench_record.py --base {args.base}"
    out = record_path(ROOT, datetime.date.today())
    with open(out, "x", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")
    for w, metrics in report["end_to_end"].items():
        for name, c in metrics.items():
            print(f"{w:10s} {name:12s} parent {c['parent']['median']:.6g} "
                  f"change {c['change']['median']:.6g} "
                  f"won {c['change_won']}/{c['pairs']} gain={c['gain']} "
                  f"{c['verdict']} (bound {c['bound']})")
    for name, c in report["cold_start_ms"].items():
        print(f"cold {name:12s} parent {c['parent']['median']:.1f} ms "
              f"change {c['change']['median']:.1f} ms "
              f"won {c['change_won']}/{c['pairs']} gain={c['gain']} "
              f"resolved={c['resolved']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
