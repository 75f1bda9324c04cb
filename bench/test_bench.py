"""Tiny-size tests of the benchmark itself: generator, checks and tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on the path)

run.import_package()

from eaqecne import addcodes as ac, eaqec, symplectic as sp  # noqa: E402

import fields  # noqa: E402
import workloads as wl  # noqa: E402
from checks import verify  # noqa: E402
from run import call  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("q", wl.QS)
def test_generator_yields_valid_inputs_for_every_q(q):
    F, Q = wl.field_pair(q)
    rng = np.random.default_rng(q)
    P = wl.random_code(F, 4, 5, rng)
    assert np.array_equal(fields.phi(Q, P), sp.phi(Q, P))
    code = ac.AdditiveCode.from_generators(Q, fields.phi(Q, P))
    dec = ac.radical_decompose(code)
    assert code.m == 5 and fields.radical_split(F, P) == (dec.l, dec.c)

    S = wl.isotropic_code(F, 5, 4, rng)
    so = ac.AdditiveCode.from_generators(Q, fields.phi(Q, S))
    assert so.m == 4 and ac.is_self_orthogonal(so)

    G, G2, E, (l, c, N) = wl.combine_inputs(F, Q, 5, rng)
    _, report = eaqec.combine_construct(Q, G, G2, E, compute_d=False)
    assert (report.l, report.c, report.params.n) == (l, c, N)
    assert report.radical_is_top_block


def test_distance_inputs_match_the_recorded_variants(tmp_path):
    ops = wl.distance_ops(0, 1, tmp_path)
    assert len(ops) == len(wl.distance_slots())
    assert all(op.expect["digest"] == op.expect["ref_digest"] for op in ops)
    assert wl.distance_ops(0, 1, tmp_path)[0].argv == ops[0].argv


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_pass_gets_fresh_inputs(workload, tmp_path):
    def inputs(pass_no):
        ops = wl.build(workload, 3, pass_no, tmp_path)
        return [(op.argv and [Path(a).read_text() if Path(a).is_file() else a
                              for a in op.argv], op.call) for op in ops]
    first = inputs(1)
    assert inputs(1) == first
    assert inputs(2) != first

def _smallest(ops, kind):
    return min((op for op in ops if op.kind == kind), key=lambda op: op.words)


def test_corrupted_distance_outputs_fail(tmp_path):
    ops = wl.distance_ops(0, 1, tmp_path)
    analyze = _smallest(ops, "analyze")
    rc, out = call(analyze)
    assert verify(analyze, rc, out) is None
    wrong = re.sub(r"^(\[\[\d+,\d+,)(\d+)",
                   lambda m: f"{m.group(1)}{int(m.group(2)) + 1}", out)
    assert wrong != out and verify(analyze, rc, wrong) is not None
    assert verify(analyze, 1, out) is not None

    mindist = _smallest(ops, "mindist")
    rc, out = call(mindist)
    assert verify(mindist, rc, out) is None
    # the work counter is never compared; the distance is
    assert verify(mindist, rc, out.replace("enumerated=", "enumerated=1")) is None
    assert verify(mindist, rc, out.replace("d=", "d=9")) is not None


def test_corrupted_structure_outputs_fail(tmp_path):
    F, Q = wl.field_pair(3)
    rng = np.random.default_rng(5)
    P = wl.random_code(F, 5, 5, rng)
    l, c = fields.radical_split(F, P)
    path = tmp_path / "c.pre"
    path.write_text(wl.preimage_text(F, P))
    op = wl.Op("decompose-symp", 3, ["decompose", str(path), "--symplectic"],
               expect=dict(q=3, n=5, m=5, l=l, c=c, pre=P))
    rc, out = call(op)
    assert verify(op, rc, out) is None
    lines = out.splitlines()
    last = lines[-1].split()
    last[0] = str((int(last[0]) + 1) % 3)
    assert verify(op, rc, "\n".join(lines[:-1] + [" ".join(last)])) is not None

    G, G2, E, (l, c, N) = wl.combine_inputs(F, Q, 6, rng)
    paths = []
    for name, M in (("G", G), ("G2", G2), ("E", E)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(fields.dump(Q.order, M))
    op = wl.Op("combine", 3, ["combine", *paths, "--no-distance"],
               expect=dict(q=3, n=N, l=l, c=c))
    rc, out = call(op)
    assert verify(op, rc, out) is None
    bad = out.replace("radical_is_top_block=true", "radical_is_top_block=false")
    assert verify(op, rc, bad) is not None


def test_corrupted_fidelity_outputs_fail(tmp_path):
    ops = wl.fidelity_ops(0, 1, tmp_path)
    sweep = min((op for op in ops if op.kind == "sweep"),
                key=lambda op: len(op.expect["rows"]))
    rc, out = call(sweep)
    assert verify(sweep, rc, out) is None
    lines = out.splitlines()
    p_a, pc, pd, diff = lines[1].split(",")
    pd = f"{float(pd) * (1 - 1e-9):.15g}"    # off by 1e-9, tolerance 1e-12
    assert verify(sweep, rc, "\n".join([lines[0], f"{p_a},{pc},{pd},{diff}"]
                                       + lines[2:])) is not None

    cross = next(op for op in ops if op.kind == "crossover")
    rc, lam = call(cross)
    assert verify(cross, rc, lam) is None
    assert verify(cross, rc, lam + Fraction(1, 10 ** 6)) is not None
    assert verify(cross, rc, None) is not None


def test_tracer_spans_nest_and_uninstall(tmp_path):
    import eaqecne.linalg
    original = eaqecne.linalg.rref
    tracer = Tracer(targets={
        "cli.main": ("cli", "main"),
        "linalg.rref": ("linalg", "rref"),
        "gone.function": ("addcodes", "no_such_function"),
    })
    F, Q = wl.field_pair(2)
    path = tmp_path / "c.code"
    path.write_text(wl.code_text(Q, wl.random_code(F, 4, 4, np.random.default_rng(1))))
    tracer.install()
    try:
        assert eaqecne.linalg.rref is not original
        tracer.op = 0
        op = wl.Op("analyze", 2, ["analyze", str(path), "--no-distance"])
        assert call(op)[0] == 0
    finally:
        tracer.uninstall()
    assert eaqecne.linalg.rref is original
    assert tracer.missing == ["gone.function"]
    nid, op_ids, parent, dur, self_t = tracer.arrays()
    names = [tracer.names[i] for i in nid]
    assert names[0] == "cli.main" and parent[0] == -1
    assert names.count("linalg.rref") > 0 and (parent[1:] >= 0).all()
    assert (op_ids == 0).all() and (self_t <= dur + 1e-12).all()
    assert self_t[0] < dur[0]
    assert "gone.function" not in names


def test_traced_fidelity_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "fidelity", "--seed", "0", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fidelity.approx_fidelity.calls"] > 0
    assert all(v == 0 for k, v in metrics.items()
               if k.startswith(("addcodes.", "symplectic.")))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "distance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
