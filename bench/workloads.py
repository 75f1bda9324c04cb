"""Seeded inputs for the three workloads, written as files in the shared text
format, and the facts each op's output is checked against.

Every workload has a fixed schedule of slots (field, kind, size), so the
work in one pass hardly depends on the seed; the seed and the pass number
draw the content.  Every pass gets fresh inputs, so a cache kept across
calls in one process, which a fresh CLI process would never hit, cannot
pass for a speed-up.

* ``distance``: the seed picks one of ``VARIANTS`` pre-drawn codes per slot,
  and pass p takes the variant after it by p (mod ``VARIANTS``).  Each
  variant's distance was recorded at the seed commit in ``reference.json``
  (``record_reference.py`` rewrites it), so every d of every pass of every
  seed is checked.
* ``structure`` and ``fidelity``: the seed and the pass number draw fresh
  codes and sweeps; their outputs are checked against facts the benchmark
  derives itself (ranks of Gram matrices, exact binomial tails).

The generator draws only from its own ``numpy`` generators and uses nothing
of the package but the element tables of ``eaqecne.field``, which define
the file encoding, so the inputs of a seed stay the same across commits.  ``eaqecne.pauli`` is a dense-matrix certification oracle whose
speed no roadmap aim asks for, so no workload runs it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

import numpy as np

from fields import dump, phi, radical_split, rank, symp_gram, symplectic_image

WORKLOADS = ("distance", "structure", "fidelity")
QS = (2, 3, 4, 5, 7, 8, 9)
VARIANTS = 64
REFERENCE = Path(__file__).with_name("reference.json")

# Keys that separate the random streams of the workloads.
_DIST_KEY, _STRUCT_KEY, _FID_KEY = 7101, 7202, 7303

# log2 of the largest dual scanned per field.  The range starts at 2^10 for
# every q; the tops differ so that each field gets a similar share of scan
# time at the seed commit (slow q=2 words, fast q=7 words).
_DIST_TOP = {2: 18.2, 3: 19.6, 4: 20.3, 5: 20.6, 7: 21.5, 8: 20.5, 9: 21.2}
_DIST_ANALYZE = 12      # analyze slots per field, a quarter self-orthogonal
_DIST_MINDIST = (14.0, 17.0)   # log2 code sizes of the mindist slots

_STRUCT_KINDS = (
    ("analyze", False), ("analyze", True),
    ("decompose", False), ("decompose", True),
    ("decompose-symp", False), ("decompose-symp", True),
    ("combine", None),
)

# (n, d, m, db) of the pair D = EA [[n,.,d;c]] + Bob [[m,.,db]] from the
# paper's tables; the single code compared with it is C = (n + m, d).
_BINARY_FAMILY = (
    lambda s: (4 * s, 2 * s + 1, 5, 3),
    lambda s: (4 * s + 1, 2 * s + 3, 10, 3),
    lambda s: (4 * s + 2, 2 * s + 3, 8, 3),
    lambda s: (4 * s + 3, 2 * s + 3, 8, 3),
)
_FIXED_PAIRS = (
    (7, 5, 11, 3), (8, 5, 10, 3), (9, 5, 8, 3), (10, 6, 10, 3), (9, 6, 12, 3),
    (13, 9, 16, 3), (12, 7, 14, 3), (11, 7, 6, 3), (26, 11, 6, 3),
    (28, 11, 8, 3), (14, 9, 10, 3), (28, 13, 10, 3),
)
_MAX_N = 255
_SWEEP_SLOTS = 12
_CROSS_SLOTS = 8
# Rates are k / _P and degradations k / _L with prime _P and _L, so every
# grid point, rate and p_b = lam * p_a has a denominator of the same size
# and the cost of a slot's exact arithmetic does not depend on the seed.
_P, _L = 10007, 101


@dataclass
class Op:
    """One closed-loop request: CLI arguments or an API call, plus what its
    output must satisfy."""

    kind: str
    q: int
    argv: list[str] | None = None
    call: tuple | None = None
    expect: dict = dc_field(default_factory=dict)
    words: int = 0           # scan words the op requires (distance ops)


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def field_pair(q):
    import eaqecne
    return eaqecne.field(q), eaqecne.field(q * q)


def random_code(F, n: int, m: int, rng) -> np.ndarray:
    """Preimage rows of a random additive (n, q^m) code (independent rows)."""
    while True:
        P = rng.integers(0, F.order, size=(m, 2 * n))
        if rank(F, P) == m:
            return P


def nondegenerate_code(F, n: int, m: int, rng) -> np.ndarray:
    """Preimage rows of a random (n, q^m) code with trivial radical, m even."""
    while True:
        P = random_code(F, n, m, rng)
        if radical_split(F, P)[0] == 0:
            return P


def isotropic_code(F, n: int, m: int, rng) -> np.ndarray:
    """Preimage rows of a random self-orthogonal (n, q^m) code, m <= n."""
    X = np.zeros((m, 2 * n), dtype=np.int64)
    X[np.arange(m), np.arange(m)] = 1
    return symplectic_image(F, X, rng, 2 * n + 4)


def code_text(Q, P) -> str:
    n = P.shape[1] // 2
    return dump(Q.order, phi(Q, P), (f"code q2={Q.order} n={n} m={len(P)}",))


def preimage_text(F, P) -> str:
    return dump(F.order, P, (f"ambient n={P.shape[1] // 2}",))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def distance_slots() -> list[dict]:
    """Fixed (q, kind, n, m) per slot; dual sizes log-uniform from 2^10."""
    slots = []
    for q in QS:
        lg = math.log2(q)
        top = _DIST_TOP[q]
        offsets = iter((-1, 0, 1, 2) * _DIST_ANALYZE)
        for j in range(_DIST_ANALYZE):
            t = 10 + (top - 10) * (j + 0.5) / _DIST_ANALYZE
            D = max(3, round(t / lg))            # dimension of the dual
            if j % 4 == 1:
                # self-orthogonal, k = 1: dual dim n + 1, code excluded
                slots.append(dict(q=q, kind="analyze-so", n=D - 1, m=D - 2))
            else:
                o = next(offsets)
                slots.append(dict(q=q, kind="analyze", n=D + o, m=D + 2 * o))
        for t in _DIST_MINDIST:
            m = max(2, round(t / lg))
            slots.append(dict(q=q, kind="mindist", n=m, m=m))
    return slots


def distance_variant(slot_index: int, slot: dict, variant: int):
    """Preimage rows of one pre-drawn variant of a slot."""
    F, _ = field_pair(slot["q"])
    rng = np.random.default_rng([_DIST_KEY, slot_index, variant])
    n, m = slot["n"], slot["m"]
    if slot["kind"] == "analyze-so":
        return isotropic_code(F, n, m, rng)
    while True:
        P = random_code(F, n, m, rng)
        l, _ = radical_split(F, P)
        if slot["kind"] == "mindist" or l < 2 * n - m:
            return P                 # the dual minus the radical is nonempty


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def distance_ops(seed: int, pass_no: int, workdir: Path,
                 reference: dict | None = None) -> list[Op]:
    reference = load_reference() if reference is None else reference
    slots = distance_slots()
    if reference.get("slots") != slots:
        raise RuntimeError("reference.json does not match the slot schedule")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, VARIANTS, size=len(slots))
    ops = []
    for i in rng.permutation(len(slots)):
        slot, v = slots[i], (int(picks[i]) + pass_no) % VARIANTS
        q, n, m = slot["q"], slot["n"], slot["m"]
        F, Q = field_pair(q)
        P = distance_variant(i, slot, v)
        text = code_text(Q, P)
        path = _write(workdir, f"d{i}.code", text)
        l, c = (m, 0) if slot["kind"] == "analyze-so" else radical_split(F, P)
        ref = reference["d"][i][v]
        expect = dict(q=q, n=n, m=m, l=l, c=c, d=ref, digest=digest(text),
                      ref_digest=reference["digest"][i][v])
        if slot["kind"] == "mindist":
            ops.append(Op("mindist", q, ["mindist", path], expect=expect,
                          words=q ** m - 1))
        else:
            ops.append(Op("analyze", q, ["analyze", path], expect=expect,
                          words=q ** (2 * n - m) - q ** l))
    return ops


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def _struct_n(qi: int, ki: int) -> int:
    """Latin-square sizes: every kind and every field sees n from 18 to 58.

    Each of the 49 slots has its own rank on a log scale, so op costs are
    spread without gaps and p50 and p90 do not fall between two clusters.
    The top stays below 64 so that a pass takes a few seconds; ops at
    n = 64 take 0.4 to 1.3 s each at the seed commit.
    """
    rank = 7 * ((qi + 3 * ki) % 7) + ki
    return round(18 * (58 / 18) ** (rank / 48))


def combine_inputs(F, Q, n: int, rng):
    """G, G2, E meeting combine's preconditions, and the (l, c) they give.

    G = (0 | M 0) with M invertible is isotropic; G2 = (0 A | B) with random
    A and B is orthogonal to it.  E is redrawn until the Gram matrix of
    (G2|E) is nonsingular, i.e. (G2|E) is complementary-dual.  With G's
    support in the second half, the radical rows come last in echelon
    order, so decompose's pair search costs the same for every draw.
    """
    g = max(1, n // 4)
    r = 2 * max(1, n // 8)
    mb = r // 2 + 2
    G = np.zeros((g, 2 * n), dtype=np.int64)
    while rank(F, G) < g:
        G[:, n:n + g] = rng.integers(0, F.order, size=(g, g))
    G2 = np.zeros((r, 2 * n), dtype=np.int64)
    while rank(F, G2[:, g:n]) < r:
        G2[:, g:n] = rng.integers(0, F.order, size=(r, n - g))
    G2[:, n:] = rng.integers(0, F.order, size=(r, n))
    while True:
        E = rng.integers(0, F.order, size=(r, 2 * mb))
        joined = np.hstack([G2[:, :n], E[:, :mb], G2[:, n:], E[:, mb:]])
        if rank(F, symp_gram(F, joined)) == r:
            break
    return phi(Q, G), phi(Q, G2), phi(Q, E), (g, r // 2, n + mb)


def structure_ops(seed: int, pass_no: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([_STRUCT_KEY, seed, pass_no])
    ops = []
    for qi, q in enumerate(QS):
        F, Q = field_pair(q)
        for ki, (kind, so) in enumerate(_STRUCT_KINDS):
            n = _struct_n(qi, ki)
            tag = f"s{qi}_{ki}"
            if kind == "combine":
                G, G2, E, (l, c, N) = combine_inputs(F, Q, n, rng)
                paths = [_write(workdir, f"{tag}_{name}.mat", dump(Q.order, M))
                         for name, M in (("G", G), ("G2", G2), ("E", E))]
                ops.append(Op("combine", q, ["combine", *paths, "--no-distance"],
                              expect=dict(q=q, n=N, l=l, c=c)))
                continue
            if so:
                m = n - 1
                P = isotropic_code(F, n, m, rng)
            else:
                # nondegenerate (l = 0): a radical row's place in the pair
                # search would otherwise change the op's cost from draw to draw
                m = n - n % 2
                P = nondegenerate_code(F, n, m, rng)
            l, c = (m, 0) if so else radical_split(F, P)
            expect = dict(q=q, n=n, m=m, l=l, c=c, pre=P)
            if kind == "decompose-symp":
                path = _write(workdir, f"{tag}.pre", preimage_text(F, P))
                ops.append(Op(kind, q, ["decompose", path, "--symplectic"],
                              expect=expect))
            else:
                path = _write(workdir, f"{tag}.code", code_text(Q, P))
                argv = (["analyze", path, "--no-distance"] if kind == "analyze"
                        else ["decompose", path])
                ops.append(Op(kind, q, argv, expect=expect))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def paper_pairs() -> list[tuple[int, int, int, int]]:
    """(n, d, m, db) pairs of the paper's tables with n + m <= 255."""
    out = list(_FIXED_PAIRS)
    for s in range(2, 64):
        for make in _BINARY_FAMILY:
            row = make(s)
            if row[0] + row[2] <= _MAX_N:
                out.append(row)
    return sorted(set(out), key=lambda r: (r[0] + r[2], r))


def tail(N: int, d: int, p: Fraction) -> Fraction:
    """P(at most (d-1)//2 of N qudits hit), exactly: sum over one integer."""
    t = (d - 1) // 2
    a, b = p.numerator, p.denominator
    return Fraction(sum(math.comb(N, i) * a ** i * (b - a) ** (N - i)
                        for i in range(t + 1)), b ** N)


def pair_gap(pair, pa: Fraction, lam: Fraction) -> Fraction:
    """P_D - P_C at p_a and p_b = lam * p_a."""
    n, d, m, db = pair
    return tail(n, d, pa) * tail(m, db, lam * pa) - tail(n + m, d, pa)


def _nearest(pairs, target_N: float, rng, width: int = 4):
    ranked = sorted(pairs, key=lambda r: abs(math.log((r[0] + r[2]) / target_N)))
    return ranked[int(rng.integers(0, width))]


def fidelity_ops(seed: int, pass_no: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([_FID_KEY, seed, pass_no])
    pairs = paper_pairs()
    ops = []
    for j in range(_SWEEP_SLOTS):
        target = 17 * (255 / 17) ** ((j + 0.5) / _SWEEP_SLOTS)
        pair = _nearest(pairs, target, rng)
        n, d, m, db = pair
        # long codes get short grids, so that no single sweep dominates a pass
        steps = 100 - (80 * j) // (_SWEEP_SLOTS - 1)
        # p_a from about 0.001 to at most 0.05
        a = int(rng.integers(10, 50))
        u = int(rng.integers(1, 450 // (steps - 1) + 1))
        lam = Fraction(int(rng.integers(1, _L)), _L)
        rows = []
        for i in range(steps):
            pa = Fraction(a + i * u, _P)
            pc = tail(n + m, d, pa)
            pd = tail(n, d, pa) * tail(m, db, lam * pa)
            rows.append((pa, pc, pd, pd - pc))
        argv = ["fidelity", "--c", f"{n + m},{d}", "--ea", f"{n},{d}",
                "--b", f"{m},{db}", "--lambda", str(lam),
                "--grid", f"{a}/{_P}:{a + (steps - 1) * u}/{_P}:{steps}"]
        ops.append(Op("sweep", 0, argv, expect=dict(rows=rows)))
    for j in range(_CROSS_SLOTS):
        target = 17 * (255 / 17) ** ((j + 0.5) / _CROSS_SLOTS)
        while True:
            pair = _nearest(pairs, target, rng, width=6)
            pa = Fraction(int(rng.integers(10, 500)), _P)
            lo, hi = pair_gap(pair, pa, Fraction(0)), pair_gap(pair, pa, Fraction(1))
            if lo != 0 and hi != 0 and (lo > 0) != (hi > 0):
                break
        n, d, m, db = pair
        call = ((n + m, d), ((n, d), (m, db)), pa)
        ops.append(Op("crossover", 0, call=call,
                      expect=dict(pair=pair, pa=pa, lo_positive=lo > 0)))
    return [ops[i] for i in rng.permutation(len(ops))]


def build(workload: str, seed: int, pass_no: int, workdir: Path) -> list[Op]:
    """The ops of one pass.  File names depend only on the slot, so each
    pass overwrites the files of the one before."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "distance":
        return distance_ops(seed, pass_no, workdir)
    if workload == "structure":
        return structure_ops(seed, pass_no, workdir)
    if workload == "fidelity":
        return fidelity_ops(seed, pass_no, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def distinct_passes(workload: str) -> int | None:
    """Passes after pass 0 before an input repeats; None if never."""
    return VARIANTS - 1 if workload == "distance" else None


def field_orders(workload: str) -> tuple[int, ...]:
    """Field tables a workload's ops use; fidelity uses none."""
    if workload == "fidelity":
        return ()
    return tuple(sorted(set(QS) | {q * q for q in QS}))
