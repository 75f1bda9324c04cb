#!/usr/bin/env python3
"""Benchmark of the eaqecne CLI: one workload, one seed, one process.

    python3 bench/run.py --workload distance --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  The workload's ops are generated
from the seed into ``.bench_work/`` and run in a closed loop with one client:
each op calls ``eaqecne.cli.main(argv)`` in-process (``crossover_degradation``,
which has no command, through the API), captures stdout, and is checked.
Passes of the workload's fixed schedule, each with fresh inputs generated
untimed before it, repeat until ``--seconds`` have passed and, untraced, at
least ``MIN_SAMPLES`` op latencies are in hand.

Times are reported at a reference machine speed.  The shared host this was
built on changes speed, by up to about 1.5x, within fractions of a second,
which moves raw times of whole runs by up to 35%.  A fixed reference kernel
(``calibrate``) runs before every op, outside the op's timing; each op's
latency is scaled by ``CAL_REF_S`` over the median kernel time of the
``2 * CAL_WINDOW + 1`` ops around it.  Raw times are printed beside the
scaled ones.

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from
spans wrapped around the package's public functions.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS pools would otherwise start threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EAQECNE_THREADS", None)

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 100          # so that at least ten op latencies lie beyond p90
SETUP_LAUNCHES = 9
SETUP_PHASE = -1          # op id of spans recorded before any op
CAL_REF_S = 1.25e-3        # calibrate() on the reference machine, fast state
CAL_WINDOW = 2             # ops on each side whose kernel times set a scale

SCAN_QS = (2, 3, 4, 5, 7, 8, 9)
LAYER_METRICS = (
    ("gf.field.calls", "count"), ("gf.field.build_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.kernel.calls", "count"), ("linalg.kernel.self_s", "s"),
    ("linalg.parse_matrix.self_s", "s"), ("cli.main.self_s", "s"),
    ("symplectic.decompose.calls", "count"), ("symplectic.decompose.self_s", "s"),
    ("symplectic.symp_inner.calls", "count"), ("symplectic.symp_inner.self_s", "s"),
    ("symplectic.symp_dual.self_s", "s"),
    ("addcodes.dual.calls", "count"), ("addcodes.dual.self_s", "s"),
    ("addcodes.inner.calls", "count"), ("addcodes.inner.self_s", "s"),
    ("addcodes.radical_decompose.self_s", "s"),
    ("addcodes.scan.calls", "count"), ("addcodes.scan.self_s", "s"),
    ("addcodes.scan.words_required", "count"),
    ("addcodes.scan.words_examined", "count"),
    ("addcodes.scan.examined_ratio", "ratio"),
    ("addcodes.scan.early_exits", "count"),
    ("addcodes.scan.wall_share", "ratio"),
    ("addcodes.scan.words_per_s", "1/s"),
    *((f"addcodes.scan.words_per_s.q{q}", "1/s") for q in SCAN_QS),
    ("eaqec.eaqec_params.self_s", "s"), ("eaqec.combine_construct.self_s", "s"),
    ("fidelity.approx_fidelity.calls", "count"),
    ("fidelity.approx_fidelity.self_s", "s"),
    ("fidelity.sweep.self_s", "s"),
    ("fidelity.crossover_degradation.calls", "count"),
    ("fidelity.crossover_degradation.self_s", "s"),
    ("fidelity.curve_csv.self_s", "s"),
    ("trace.overhead", "ratio"),
)

_CAL_TABLE = np.random.default_rng(0).integers(0, 81, size=(81, 81)).astype(np.int16)
_CAL_INDEX = np.random.default_rng(1).integers(0, 81, size=(4096, 16))
_CAL_MATRIX = np.random.default_rng(2).integers(0, 7, size=(20, 40))
_INV7 = np.array([0, 1, 4, 5, 2, 3, 6])        # inverses mod 7


def calibrate() -> float:
    """Seconds for a fixed mix of table lookups, interpreted arithmetic and
    row reduction of a small matrix, the kinds of work the package does."""
    t0 = time.perf_counter()
    looked = _CAL_TABLE[_CAL_INDEX, _CAL_INDEX[::-1]]
    acc = int(looked[0, 0])
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
    M, r = _CAL_MATRIX.copy(), 0
    others = np.ones(len(M), dtype=bool)
    for c in range(M.shape[1]):
        nz = np.flatnonzero(M[r:, c])
        if len(nz) == 0:
            continue
        M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        M[r] = M[r] * _INV7[M[r, c]] % 7
        others[r] = False
        M[others] = (M[others] - np.outer(M[others, c], M[r])) % 7
        others[r] = True
        r += 1
        if r == len(M):
            break
    return time.perf_counter() - t0


def scales(kernel_times) -> np.ndarray:
    """Per-op factor CAL_REF_S / (median kernel time of the ops around it)."""
    k = np.asarray(kernel_times)
    local = [np.median(k[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
             for i in range(len(k))]
    return CAL_REF_S / np.array(local)


def import_package():
    """Import eaqecne from this checkout's src/, never from elsewhere."""
    if not (SRC / "eaqecne" / "__init__.py").is_file():
        raise SystemExit(f"error: no eaqecne sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eaqecne
    if Path(eaqecne.__file__).resolve().parent != SRC / "eaqecne":
        raise SystemExit(f"error: imported eaqecne from {eaqecne.__file__}")
    return eaqecne


def measure_setup(orders) -> tuple[float, list[float]]:
    """Median time of fresh interpreters that import eaqecne and build the
    field tables the workload uses, each scaled by kernel runs around it."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eaqecne; "
            "[eaqecne.field(int(o)) for o in sys.argv[2:]]")
    scaled, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        before = [calibrate() for _ in range(5)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), *map(str, orders)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = [calibrate() for _ in range(5)]
        scaled.append(raw[-1] * CAL_REF_S / statistics.median(before + after))
    return statistics.median(scaled), raw


def call(op):
    """Run one op; returns (exit code or failure text, output)."""
    from eaqecne import cli, fidelity
    try:
        if op.argv is None:
            return 0, fidelity.crossover_degradation(*op.call)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
        return (rc if rc == 0 else f"exit {rc}: {err.getvalue().strip()}",
                out.getvalue())
    except SystemExit as exc:
        return f"exit {exc.code}", None
    except Exception as exc:           # an op that raises is a failed op
        return f"raised {exc!r}", None


class Pass:
    """One pass over a fresh op list: per op its latency, kernel time, scan
    words required and field.  The ops themselves are not kept, so memory
    does not grow with the number of passes."""

    def __init__(self, traced: bool, ops, latencies, kernel_times):
        self.traced = traced
        self.lat = np.array(latencies)
        self.kern = np.array(kernel_times)
        self.words = np.array([op.words for op in ops], dtype=float)
        self.qs = np.array([op.q for op in ops])


class Run:
    """Passes over fresh op lists: per-op latencies, kernel times, verdicts.

    ``make_ops(p)`` generates the ops of pass p; it is timed by no metric.
    A run makes at most ``max_passes`` passes, so that no input repeats.
    """

    def __init__(self, make_ops, tracer=None, max_passes=None):
        self.make_ops = make_ops
        self.max_passes = max_passes
        self.tracer = tracer
        self.passes = []
        self.attempted = 0
        self.failures = []

    def one_pass(self, traced: bool):
        from checks import verify
        ops = self.make_ops(len(self.passes) + 1)
        first = sum(len(p.lat) for p in self.passes)   # op id of ops[0]
        results, lat, kern = [], [], []
        if traced:
            self.tracer.install()
        try:
            for i, op in enumerate(ops):
                if traced:
                    self.tracer.op = first + i
                kern.append(calibrate())
                t0 = time.perf_counter()
                results.append(call(op))
                lat.append(time.perf_counter() - t0)
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes.append(Pass(traced, ops, lat, kern))
        for op, (rc, out) in zip(ops, results):
            self.attempted += 1
            verdict = verify(op, rc, out)
            if verdict is not None:
                self.failures.append((op, verdict))

    def until(self, seconds: float):
        t0 = time.perf_counter()
        traced = False
        while True:
            self.one_pass(traced)
            if self.tracer is not None:
                traced = not traced
            untraced = [p for p in self.passes if not p.traced]
            if self.tracer is None:
                enough = sum(len(p.lat) for p in untraced) >= MIN_SAMPLES
            else:
                enough = len(untraced) < len(self.passes)
            if enough and (time.perf_counter() - t0 >= seconds
                           or len(self.passes) == self.max_passes):
                return

    def latencies(self, traced: bool, scaled: bool = True) -> list[np.ndarray]:
        """Per pass of the given kind: op latencies, scaled or raw."""
        return [p.lat * scales(p.kern) if scaled else p.lat
                for p in self.passes if p.traced == traced]


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    passes = run.latencies(False)
    lat = np.concatenate(passes)
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.sum() for p in passes), "s"),
        "op_p50_s": (float(np.median(lat)), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    raw_passes = run.latencies(False, scaled=False)
    raw = np.concatenate(raw_passes)
    info = {
        "samples": len(lat), "beyond_p90": int((lat > p90).sum()),
        "raw_wall_s": statistics.median(p.sum() for p in raw_passes),
        "raw_op_p50_s": float(np.median(raw)),
        "raw_op_p90_s": statistics.quantiles(raw, n=10)[8],
        "kernel_median_s": float(np.median(np.concatenate(
            [p.kern for p in run.passes if not p.traced]))),
    }
    return metrics, info


def per_layer(run: Run, tracer, build_s: float) -> tuple[dict, dict]:
    nid, op, _, dur, self_t = tracer.arrays()
    traced = np.concatenate([[p.traced] * len(p.lat) for p in run.passes])
    factor = np.concatenate([scales(p.kern) for p in run.passes])
    passes = sum(p.traced for p in run.passes)
    timed = op >= 0
    dur = np.where(timed, dur * factor[np.maximum(op, 0)], dur)
    self_t = np.where(timed, self_t * factor[np.maximum(op, 0)], self_t)
    out = {}
    for i, name in enumerate(tracer.names):
        sel = timed & (nid == i)
        out[f"{name}.calls"] = sel.sum() / passes
        out[f"{name}.self_s"] = self_t[sel].sum() / passes
    out["gf.field.build_s"] = build_s
    # scan work per op of the traced passes; words required come from inputs
    scan = timed & (nid == tracer.names.index("addcodes.scan"))
    examined = np.zeros(len(traced))            # per op id
    seconds = np.zeros(len(traced))
    for k in np.flatnonzero(scan):
        examined[op[k]] += tracer.count.get(int(k), 0)
        seconds[op[k]] += dur[k]
    required = np.concatenate([p.words for p in run.passes])[traced]
    qs = np.concatenate([p.qs for p in run.passes])[traced]
    examined, seconds = examined[traced], seconds[traced]
    out["addcodes.scan.words_required"] = required.sum() / passes
    out["addcodes.scan.words_examined"] = examined.sum() / passes
    out["addcodes.scan.examined_ratio"] = (
        examined.sum() / required.sum() if required.sum() else 0.0)
    out["addcodes.scan.early_exits"] = (
        (examined < required) & (seconds > 0)).sum() / passes
    traced_wall = sum(p.sum() for p in run.latencies(True))
    out["addcodes.scan.wall_share"] = seconds.sum() / traced_wall
    out["addcodes.scan.words_per_s"] = (
        examined.sum() / seconds.sum() if seconds.sum() else 0.0)
    for q in SCAN_QS:
        sel = qs == q
        total = seconds[sel].sum()
        out[f"addcodes.scan.words_per_s.q{q}"] = (
            examined[sel].sum() / total if total else 0.0)
    out["trace.overhead"] = (
        statistics.median(p.sum() for p in run.latencies(True))
        / statistics.median(p.sum() for p in run.latencies(False)) - 1)
    # self time of every span, named metric or not, for the reader
    extra = {f"{name}.self_s": out[f"{name}.self_s"] for name in tracer.names}
    return {name: (float(out[name]), unit) for name, unit in LAYER_METRICS}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import eaqecne
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    orders = workloads.field_orders(args.workload)
    setup_s, setup_raw = measure_setup(orders)

    tracer = Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    build_s = 0.0
    try:
        if tracer is not None:
            tracer.install()
            tracer.op = SETUP_PHASE
        for order in orders:
            eaqecne.field(order)
        if tracer is not None:
            tracer.uninstall()
            nid, op, parent, dur, _ = tracer.arrays()
            top = (op == SETUP_PHASE) & (parent == -1)
            build_s = float(dur[top & (nid == tracer.names.index("gf.field"))].sum())

        def make_ops(pass_no):
            return workloads.build(args.workload, args.seed, pass_no, workdir)

        # warm-up: one op of each kind from pass 0, which is not measured
        seen = set()
        for op in make_ops(0):
            if op.kind not in seen:
                seen.add(op.kind)
                call(op)
        run = Run(make_ops, tracer, workloads.distinct_passes(args.workload))
        run.until(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    traced_passes = sum(p.traced for p in run.passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={len(run.passes[0].lat)} "
          f"untraced_passes={len(run.passes) - traced_passes} "
          f"traced_passes={traced_passes}")
    for op, reason in run.failures[:5]:
        print(f"FAILED {op.kind} {op.argv or op.call}: {reason}", file=sys.stderr)
    failed = len(run.failures)
    if args.trace:
        metrics, extra = per_layer(run, tracer, build_s)
        print(f"spans={len(tracer.start)} missing={tracer.missing or 'none'}")
        for name, value in sorted(extra.items(), key=lambda kv: -kv[1]):
            print(f"  {name:44s} {value:12.6f} s/pass")
    else:
        metrics, info = end_to_end(run, setup_s)
        print(f"setup launches, raw s: {' '.join(f'{t:.3f}' for t in setup_raw)}")
        print(" ".join(f"{k}={v:.6g}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    if not args.trace:
        print(f"{'fail_rate':44s} {failed / run.attempted:.6g} ratio "
              f"({failed} failed / {run.attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
