"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance and sample count is pinned here, not configurable.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from eaqecne.gf import field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import eaqec, fidelity as fid, linalg, pauli, symplectic as sp

from oracles import (pascal_fidelity, preimage_min_weight, random_additive_code,
                     random_matrix, subspace_eq)


def announce(ident: str, limit_s: float, started: float, extra: str = ""):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {ident}: PASS ({elapsed:.1f}s{', ' + extra if extra else ''})")
    assert elapsed < limit_s, f"{ident} exceeded its {limit_s}s runtime budget"


class _Fail:
    def __init__(self, ident):
        self.ident = ident

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"\nACCEPTANCE {self.ident}: FAIL ({exc})")
        return False


def test_criterion_1_commutation_certification():
    started = time.monotonic()
    with _Fail("1 commutation-law"):
        checked = 0
        for p in (2, 3):
            F = field(p)
            classes = list(itertools.product(range(p), repeat=2))
            assert len(classes) ** 2 == (16 if p == 2 else 81)
            for (x, z), (x2, z2) in itertools.product(classes, repeat=2):
                g = pauli.PauliLabel(p, 1, 0, (x,), (z,))
                h = pauli.PauliLabel(p, 1, 0, (x2,), (z2,))
                assert pauli.commutation_phase(g, h) == sp.symp_inner(
                    F, g.symplectic_image(), h.symplectic_image())
                checked += 1
        rng = np.random.default_rng(101)
        for p, n in ((2, 2), (3, 2), (5, 1)):
            F = field(p)
            for _ in range(500):
                g = pauli.random_label(p, n, rng)
                h = pauli.random_label(p, n, rng)
                assert pauli.commutation_phase(g, h) == sp.symp_inner(
                    F, g.symplectic_image(), h.symplectic_image())
                checked += 1
    announce("1 commutation-law", 60, started, f"pairs={checked}")


def test_criterion_2_projector_rank_law():
    started = time.monotonic()
    with _Fail("2 projector-rank"):
        rng = np.random.default_rng(202)
        for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
            for _ in range(50):
                m = int(rng.integers(1, n + 1))
                labels = pauli.random_stabilizer_labels(p, n, m, rng)
                assert pauli.codespace_dim(labels) == p ** (n - m)
    announce("2 projector-rank", 120, started, "sets=200")


def test_criterion_3_duality_laws():
    started = time.monotonic()
    with _Fail("3 duality-laws"):
        rng = np.random.default_rng(303)
        for q in (2, 3, 4, 5):
            F = field(q)
            Q = quadratic_field(F)
            for _ in range(200):
                n = int(rng.integers(1, 7))
                dim = int(rng.integers(0, 2 * n + 1))
                S = linalg.row_basis(F, random_matrix(F, dim, 2 * n, rng))
                D = sp.symp_dual(F, S)
                assert S.shape[0] + D.shape[0] == 2 * n
                assert subspace_eq(F, sp.symp_dual(F, D), S)
                code = ac.AdditiveCode(Q, S)
                assert subspace_eq(F, ac.dual(code).preimage, D)
    announce("3 duality-laws", 60, started, "subspaces=800")


def test_criterion_4_decomposition_laws():
    started = time.monotonic()
    with _Fail("4 radical-decomposition"):
        rng = np.random.default_rng(404)
        for q in (2, 3):
            Q = quadratic_field(field(q))
            F = field(q)
            for _ in range(200):
                n = int(rng.integers(1, 6))
                m = int(rng.integers(0, 2 * n + 1))
                gens_raw = random_matrix(Q.base, m, 2 * n, rng)
                code = ac.AdditiveCode(Q, gens_raw)
                dec = ac.radical_decompose(code)
                assert (code.m - dec.l) % 2 == 0
                joined = np.vstack([dec.radical.preimage,
                                    dec.complement.preimage])
                assert linalg.rref(F, joined)[1] == code.m
                assert subspace_eq(F, joined, code.preimage)
                assert ac.is_acd(dec.complement)
                # l, c invariant under permutation of the input generators
                perm = rng.permutation(m)
                code2 = ac.AdditiveCode(Q, gens_raw[perm])
                dec2 = ac.radical_decompose(code2)
                assert (dec2.l, dec2.c) == (dec.l, dec.c)
    announce("4 radical-decomposition", 60, started, "codes=400")


EXPECTED_TABLES_CSV = """q,n,k,d,c,m,kb,db,match
2,8,1,5,1,5,1,3,properly-matching+faithful
2,9,1,7,4,10,4,3,properly-matching+faithful
2,10,1,7,3,8,3,3,properly-matching+faithful
2,11,1,7,2,8,2,3,properly-matching+faithful
2,12,1,7,1,5,1,3,properly-matching+faithful
2,13,1,9,4,10,4,3,properly-matching+faithful
2,14,1,9,3,8,3,3,properly-matching+faithful
2,15,1,9,2,8,2,3,properly-matching+faithful
2,16,1,9,1,5,1,3,properly-matching+faithful
2,17,1,11,4,10,4,3,properly-matching+faithful
2,18,1,11,3,8,3,3,properly-matching+faithful
2,19,1,11,2,8,2,3,properly-matching+faithful
2,7,2,5,5,11,5,3,properly-matching+faithful
2,8,2,5,4,10,4,3,properly-matching+faithful
2,9,2,5,3,8,3,3,properly-matching+faithful
2,10,2,6,4,10,4,3,properly-matching+faithful
2,9,3,6,6,12,6,3,properly-matching+faithful
2,13,3,9,10,16,10,3,properly-matching+faithful
2,12,4,7,8,14,8,3,properly-matching+faithful
3,11,1,7,2,6,2,3,properly-matching+faithful
3,26,2,11,2,6,2,3,properly-matching+faithful
3,28,2,11,4,8,4,3,properly-matching+faithful
3,14,2,9,6,10,6,3,properly-matching+faithful
3,28,2,13,6,10,6,3,properly-matching+faithful
"""


def test_criterion_5_parameter_tables():
    started = time.monotonic()
    with _Fail("5 parameter-tables"):
        assert eaqec.tables_csv((2, 3, 4)) == EXPECTED_TABLES_CSV
        entries = eaqec.known_tables((2, 3, 4))
        for e in entries:
            assert e.properly_matching and e.faithful
            # k = n - c - l with a nonnegative integral l
            assert e.alice.l == e.alice.n - e.alice.c - e.alice.k >= 0
        eleven = [e for e in entries if str(e.alice) == "[[11,1,7;2]]_3"]
        assert len(eleven) == 1 and eleven[0].alice.l == 8
    announce("5 parameter-tables", 60, started, "entries=24")


# Frozen witness from a seeded random search over GF(4): n=4, m=3, l=1, c=1.
WITNESS_G = [[3, 0, 1, 2]]
WITNESS_G2 = [[0, 2, 3, 3], [2, 3, 1, 1]]
WITNESS_E = [[0, 2, 1], [3, 1, 3]]


def test_criterion_6_block_construction_witness():
    started = time.monotonic()
    with _Fail("6 block-construction"):
        Q = field(4)
        M, rep = eaqec.combine_construct(Q, WITNESS_G, WITNESS_G2, WITNESS_E,
                                         budget=1 << 20)
        n, m = 4, 3
        l, c = rep.params.l, rep.params.c
        assert n + m <= 10 and (l, c, rep.params.k) == (1, 1, 5)
        assert rep.radical_is_top_block
        assert M.m == l + 2 * c
        assert rep.complement_min_weight >= rep.d1 + rep.d2
        print(f"\n  c={c} vs statement identity (n+m)-l-k="
              f"{rep.c_identity_value} -> "
              f"{'equal' if rep.c_identity_value == c else 'DIFFERENT'}")
        print(f"  measured d={rep.params.d}, d1+d2={rep.d1 + rep.d2}, "
              f"claim d>=d1+d2 holds: {rep.params.d >= rep.d1 + rep.d2}")
        assert rep.params.d < rep.d1 + rep.d2
        assert "distance_claim_d_ge_d1_plus_d2=false" in rep.lines()
        assert rep.c_identity_value == c
    announce("6 block-construction", 60, started,
             f"enumerated={rep.enumerated}")


def test_criterion_7_fidelity_oracle_agreement():
    started = time.monotonic()
    with _Fail("7 fidelity-formulas"):
        rnd = random.Random(707)
        for _ in range(1000):
            N = rnd.randint(1, 64)
            d = rnd.randint(1, N)
            p = Fraction(rnd.randint(0, 997), 997)
            assert fid.approx_fidelity(N, d, p) == pascal_fidelity(N, d, p)
        for _ in range(50):
            N = rnd.randint(1, 40)
            d = rnd.randint(1, N)
            # endpoints: p = 0 gives 1; d = 1 gives (1-p)^N
            assert fid.approx_fidelity(N, d, 0) == 1
            p = Fraction(rnd.randint(1, 99), 100)
            assert fid.approx_fidelity(N, 1, p) == (1 - p) ** N
            # product law
            m, db = rnd.randint(1, 20), 1 + 2 * rnd.randint(0, 4)
            db = min(db, m)
            [(_, _, pd)] = fid.sweep((N, d), ((N, d), (m, db)), Fraction(1, 2), [p])
            assert pd == fid.approx_fidelity(N, d, p) * fid.approx_fidelity(m, db, p / 2)
    announce("7 fidelity-formulas", 60, started, "triples=1000")


def test_criterion_8_example_comparison():
    started = time.monotonic()
    with _Fail("8 fidelity-comparison"):
        c_params = (17, 7)
        d_params = ((11, 7), (6, 3))
        grid = [Fraction(i, 1000) for i in range(1, 51)]
        lams = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 2),
                Fraction(99, 100)]
        sweeps = [fid.sweep(c_params, d_params, lam, grid) for lam in lams]
        for rows in zip(*sweeps):
            diffs = [pd - pc for _, pc, pd in rows]
            # the pair beats the monolithic code at lambda = 0.01 everywhere
            assert diffs[0] > 0
            # and the advantage shrinks monotonically with the degradation
            assert all(a >= b for a, b in zip(diffs, diffs[1:]))
    announce("8 fidelity-comparison", 60, started, "grid=50x4")


def test_criterion_9_enumeration_strategies_agree():
    started = time.monotonic()
    with _Fail("9 enumeration-strategies"):
        rng = np.random.default_rng(909)
        checked = 0
        for i in range(50):
            q = (2, 3)[i % 2]
            Q = quadratic_field(field(q))
            max_m = 18 if q == 2 else 11
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, min(2 * n, max_m) + 1))
            assert q ** m <= 1 << 18
            code = random_additive_code(Q, n, m, rng)
            # the scan over GF(q^2) words against brute force over the
            # preimage with symplectic weights: two independent routes
            assert (ac.min_weight_excluding_detail(code).d
                    == preimage_min_weight(code))
            checked += 1
        assert checked == 50
    announce("9 enumeration-strategies", 60, started, "codes=50")
