"""Verification of every op's output.

Checked: the laws k = n - c - l, m = l + 2c and 1 <= d <= n; l and c
against ranks of Gram matrices the benchmark computes itself; each d against
the distance recorded for the variant at the seed commit; that decompose's
blocks span the code, its radical is orthogonal to the code and its
complement is nondegenerate; combine's c_identity_holds and
radical_is_top_block; fidelity values against the benchmark's exact
binomial tails to 1e-12 relative.  Work counters such as ``enumerated=``
are never compared: early termination changes them legitimately.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from fields import phi_inv, rank, symp_gram
from workloads import Op, pair_gap

REL_TOL = 1e-12
_PARAMS = re.compile(
    r"^\[\[(\d+),(\d+)(?:,(\d+))?(?:;(\d+))?\]\]_(\d+)"
    r"(?: c=0)? l=(\d+) m=(\d+)$")
_COMBINE_PARAMS = re.compile(r"^params=\[\[(\d+),(\d+)(?:,(\d+))?(?:;(\d+))?\]\]_(\d+)$")


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _laws(e: dict, n: int, k: int, c: int, q: int, l: int, m: int | None):
    _require(q == e["q"] and n == e["n"], f"q={q} n={n}, input q={e['q']} n={e['n']}")
    _require(k == n - c - l, f"k={k} breaks k = n - c - l ({n} - {c} - {l})")
    if m is not None:
        _require(m == e["m"] and m == l + 2 * c, f"m={m} breaks m = l + 2c")
    _require((l, c) == (e["l"], e["c"]), f"(l, c)=({l}, {c}), expected "
             f"({e['l']}, {e['c']})")


def _distance(e: dict, d: int):
    _require(1 <= d <= e["n"], f"d={d} outside [1, {e['n']}]")
    _require(e["digest"] == e["ref_digest"], "input differs from the recorded "
             "variant; regenerate reference.json")
    _require(d == e["d"], f"d={d}, reference d={e['d']}")


def check_analyze(op: Op, out: str):
    line = out.strip()
    match = _PARAMS.match(line)
    _require(match is not None, f"unparsed analyze line {line!r}")
    n, k, d, c, q, l, m = match.groups()
    c = int(c or 0)
    _laws(op.expect, int(n), int(k), c, int(q), int(l), int(m))
    if "--no-distance" in op.argv:
        _require(d is None, "distance printed under --no-distance")
    else:
        _require(d is not None, "no distance printed")
        _distance(op.expect, int(d))


def check_mindist(op: Op, out: str):
    match = re.match(r"^d=(\d+) enumerated=\d+$", out.strip())
    _require(match is not None, f"unparsed mindist line {out.strip()!r}")
    _distance(op.expect, int(match.group(1)))


def _matrices(text: str) -> list[tuple[int, np.ndarray]]:
    """Matrices in the shared format, one after another."""
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    out, i = [], 0
    while i < len(data):
        order, rows, cols = (int(t) for t in data[i].split())
        body = [[int(t) for t in ln.split()] for ln in data[i + 1:i + 1 + rows]]
        _require(len(body) == rows and all(len(r) == cols for r in body),
                 "malformed matrix block")
        out.append((order, np.array(body, dtype=np.int64).reshape(rows, cols)))
        i += 1 + rows
    return out


def check_decompose(op: Op, out: str):
    import eaqecne
    e = op.expect
    head, _, rest = out.partition("\n")
    match = re.match(r"^q2=(\d+) n=(\d+) m=(\d+) l=(\d+) c=(\d+)$", head.strip())
    _require(match is not None, f"unparsed decompose header {head!r}")
    q2, n, m, l, c = (int(t) for t in match.groups())
    _require(q2 == e["q"] ** 2, f"q2={q2}")
    _laws(e, n, n - c - l, c, e["q"], l, m)
    blocks = _matrices(rest)
    _require(len(blocks) == 2, f"{len(blocks)} matrix blocks, expected 2")
    (o1, R), (o2, C) = blocks
    F = eaqecne.field(e["q"])
    if op.kind == "decompose-symp":
        _require(o1 == o2 == e["q"] and R.shape[1] == C.shape[1] == 2 * n,
                 "preimage blocks have the wrong field or width")
    else:
        Q = eaqecne.field(q2)
        _require(o1 == o2 == q2 and R.shape[1] == C.shape[1] == n,
                 "generator blocks have the wrong field or width")
        R, C = phi_inv(Q, R), phi_inv(Q, C)
    _require(R.shape[0] == l and C.shape[0] == 2 * c,
             f"blocks of {R.shape[0]} and {C.shape[0]} rows for l={l}, c={c}")
    _require(((R >= 0) & (R < F.order)).all() and ((C >= 0) & (C < F.order)).all(),
             "entry outside the field")
    both = np.vstack([R, C])
    _require(rank(F, both) == m == rank(F, np.vstack([e["pre"], both])),
             "radical and complement do not span the code")
    if l:
        _require(not symp_gram(F, R, both).any(), "radical is not orthogonal "
                 "to the code")
    if c:
        _require(rank(F, symp_gram(F, C)) == 2 * c, "complement is degenerate")


def check_combine(op: Op, out: str):
    e = op.expect
    fields = dict(ln.split("=", 1) for ln in out.strip().splitlines()[1:])
    match = _COMBINE_PARAMS.match(out.strip().splitlines()[0])
    _require(match is not None, "unparsed combine params line")
    n, k, d, c, q = match.groups()
    _require(d is None, "distance printed under --no-distance")
    _require(fields.get("radical_is_top_block") == "true", "radical_is_top_block")
    _require(fields.get("c_identity_holds") == "true", "c_identity_holds")
    l, c = int(fields["l"]), int(c or 0)
    _require(int(fields["c"]) == c, "c line disagrees with params")
    _laws(dict(e, m=None), int(n), int(k), c, int(q), l, None)


def _close(got: str, want: Fraction) -> bool:
    x = float(got)
    w = float(want)
    return abs(x - w) <= REL_TOL * abs(w) + (1e-300 if w == 0 else 0.0)


def check_sweep(op: Op, out: str):
    lines = out.strip().splitlines()
    _require(lines[0] == "p_a,P_C,P_D,diff", "missing CSV header")
    rows = op.expect["rows"]
    _require(len(lines) - 1 == len(rows), f"{len(lines) - 1} rows, expected {len(rows)}")
    for line, want in zip(lines[1:], rows):
        got = line.split(",")
        _require(len(got) == 4 and all(_close(g, w) for g, w in zip(got, want)),
                 f"row {line!r} differs from the exact tail")


def check_crossover(op: Op, lam):
    e = op.expect
    _require(isinstance(lam, Fraction) and 0 <= lam <= 1,
             f"crossover {lam!r} is not a rational in [0, 1]")
    eps = Fraction(1, 10 ** 9)
    below = pair_gap(e["pair"], e["pa"], max(lam - eps, Fraction(0)))
    above = pair_gap(e["pair"], e["pa"], min(lam + eps, Fraction(1)))
    _require(below == 0 or (below > 0) == e["lo_positive"],
             "gap just below the crossover has the wrong sign")
    _require(above == 0 or (above > 0) != e["lo_positive"],
             "gap just above the crossover has the wrong sign")


CHECKS = {
    "analyze": check_analyze,
    "mindist": check_mindist,
    "decompose": check_decompose,
    "decompose-symp": check_decompose,
    "combine": check_combine,
    "sweep": check_sweep,
    "crossover": check_crossover,
}


def verify(op: Op, rc, out) -> str | None:
    """None when the op succeeded, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        CHECKS[op.kind](op, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None
