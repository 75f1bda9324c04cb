"""Symplectic form, duals, hyperbolic decomposition, and the phi bijection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecne.errors import DimensionMismatch, EaqecneError, NotQuadraticExtension
from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac, linalg, symplectic as sp

from oracles import (ORDERS, loop_decompose, loop_field, random_matrix,
                     subspace_eq, subspace_intersect)

def all_vectors(q, length):
    return itertools.product(range(q), repeat=length)


def test_inner_alternating_exhaustive():
    F = field(3)
    for u in all_vectors(3, 4):
        assert sp.symp_inner(F, np.array(u), np.array(u)) == 0


def test_inner_examples():
    F2 = field(2)
    assert sp.symp_inner(F2, np.array([1, 0]), np.array([0, 1])) == 1
    F3 = field(3)
    u = np.array([1, 0, 2, 0])
    v = np.array([0, 1, 1, 1])
    # (1,0).(1,1) - (2,0).(0,1) = 1 - 0
    assert sp.symp_inner(F3, u, v) == 1


def test_inner_bilinear_antisymmetric_gf3():
    F = field(3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        u, v = rng.integers(0, 3, size=(2, 6))
        assert sp.symp_inner(F, u, v) == F.neg(sp.symp_inner(F, v, u))


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sp.symp_inner(field(2), np.array([1, 0]), np.array([1, 0, 0, 0]))


def test_dual_trivial_and_full():
    F = field(3)
    zero = linalg.empty_matrix(4)
    assert sp.symp_dual(F, zero).shape == (4, 4)
    full = linalg.identity_matrix(4)
    assert sp.symp_dual(F, full).shape == (0, 4)


def test_dual_self_dual_example():
    F = field(2)
    S = linalg.row_basis(F, [[1, 0, 0, 0], [0, 1, 0, 0]])
    D = sp.symp_dual(F, S)
    assert D.shape[0] == 2
    assert subspace_eq(F, D, S)
    # oracle over all 16 vectors
    expect = {v for v in all_vectors(2, 4)
              if all(sp.symp_inner(F, np.array(v), s) == 0 for s in S)}
    got = {tuple(int(x) for x in r) for r in D}
    spanned = set()
    for c1, c2 in itertools.product(range(2), repeat=2):
        w = (c1 * D[0] + c2 * D[1]) % 2
        spanned.add(tuple(int(x) for x in w))
    assert spanned == expect


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_dual_dimension_and_involution(q):
    F = field(q)
    rng = np.random.default_rng(q)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(0, 2 * n + 1))
        S = linalg.row_basis(F, random_matrix(F, dim, 2 * n, rng))
        D = sp.symp_dual(F, S)
        assert S.shape[0] + D.shape[0] == 2 * n
        assert subspace_eq(F, sp.symp_dual(F, D), S)


def test_weight():
    assert sp.symp_weight(np.zeros(6, dtype=int)) == 0
    assert sp.symp_weight(np.array([1, 1, 0, 0])) == 2
    assert sp.symp_weight(np.array([1, 0, 1, 0])) == 1


def test_decompose_isotropic_input():
    F = field(2)
    S = linalg.row_basis(F, [[1, 0, 0, 0], [0, 1, 0, 0]])
    radical, pairs = sp.decompose(F, S)
    assert pairs.shape == (0, 4) and len(radical) == 2
    assert subspace_eq(F, radical, S)


def test_decompose_single_pair():
    F = field(2)
    radical, (e, f) = sp.decompose(F, [[1, 0], [0, 1]])
    assert radical.shape == (0, 2)
    assert sp.symp_inner(F, e, f) == 1


@pytest.mark.parametrize("q", [2, 9, 16])
def test_decompose_raises_when_a_row_update_fails(q, monkeypatch):
    """With the row update a no-op the Gram matrix never vanishes: decompose
    raises a RuntimeError, no domain error, after len(rows) // 2 pairs
    instead of pairing forever."""
    F = field(q)
    rows = random_matrix(F, 7, 8, np.random.default_rng(q))
    assert sp.symp_gram(F, rows).any()
    calls = []

    def noop(T, M, coeffs, row, t):
        calls.append(1)
        if len(calls) > 100:
            pytest.fail("decompose kept pairing")
        return M

    monkeypatch.setattr(linalg, "_sub_multiples", noop)
    with pytest.raises(RuntimeError) as info:
        sp.decompose(F, rows)
    assert not isinstance(info.value, EaqecneError)
    assert len(calls) == 2 * (7 // 2)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_decompose_redundant_generators_match_canonical(q):
    """decompose on redundant shuffled rows leaves rows spanning the radical
    (some of them dependent) and as many pairs as on the canonical basis,
    which is where radical_decompose starts."""
    F, Q = field(q), quadratic_field(field(q))
    rng = np.random.default_rng(37 + q)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        S = random_matrix(F, int(rng.integers(0, 2 * n + 1)), 2 * n, rng)
        extra = linalg.gram(F, random_matrix(F, int(rng.integers(0, 4)), S.shape[0], rng),
                            S.T)
        gens = np.vstack([S, extra])[rng.permutation(S.shape[0] + extra.shape[0])]
        radical, pairs = sp.decompose(F, gens)
        canon = sp.decompose(F, linalg.row_basis(F, gens))
        split = ac.radical_decompose(ac.AdditiveCode(Q, gens))
        l = linalg.rref(F, radical)[1]
        assert (l, len(pairs)) == (len(canon[0]), len(canon[1]))
        assert (l, len(pairs)) == (split.l, 2 * split.c)
        assert subspace_eq(F, radical, canon[0])
        assert subspace_eq(F, radical, split.radical.preimage)


@st.composite
def decompose_inputs(draw):
    """Shuffled rows over one of the 12 fields, 2n = 0 to 8 columns: an
    isotropic block, random rows, combinations of those and zero rows, each
    part possibly empty, so r = 0, 2n = 0, radicals and dependent rows all
    occur."""
    F = field(draw(st.sampled_from(ORDERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 4))
    S = np.vstack([sp.random_isotropic_basis(F, n, draw(st.integers(0, n)), rng),
                   random_matrix(F, draw(st.integers(0, 4)), 2 * n, rng)])
    combos = random_matrix(F, draw(st.integers(0, 3)), len(S), rng)
    zeros = np.zeros((draw(st.integers(0, 1)), 2 * n), dtype=np.int16)
    rows = np.vstack([S, linalg.gram(F, combos, S.T), zeros])
    return F, rows[rng.permutation(len(rows))]


@settings(max_examples=300, deadline=None)
@given(decompose_inputs())
def test_decompose_is_the_scalar_gram_schmidt(case):
    """decompose returns exactly the arrays of the scalar Gram-Schmidt with
    the same pivot rule: rows, order, shapes and int16."""
    F, rows = case
    for got, want in zip(sp.decompose(F, rows), loop_decompose(F, rows), strict=True):
        assert got.dtype == want.dtype == np.int16
        assert got.shape == want.shape and np.array_equal(got, want)


def check_gram(F, radical, pairs):
    pairs = list(zip(pairs[::2], pairs[1::2]))
    for i, (e, f) in enumerate(pairs):
        assert sp.symp_inner(F, e, f) == 1
        for j, (e2, f2) in enumerate(pairs):
            if i != j:
                for u in (e, f):
                    for v in (e2, f2):
                        assert sp.symp_inner(F, u, v) == 0
        for r in radical:
            assert sp.symp_inner(F, r, e) == 0
            assert sp.symp_inner(F, r, f) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_decompose_random_properties(q):
    F = field(q)
    rng = np.random.default_rng(23 + q)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 2 * n + 1))
        S = linalg.row_basis(F, random_matrix(F, m, 2 * n, rng))
        radical, pairs = sp.decompose(F, S)
        assert len(radical) + len(pairs) == S.shape[0]
        check_gram(F, radical, pairs)
        # radical spans S intersect S-perp
        expect = subspace_intersect(F, S, sp.symp_dual(F, S))
        assert subspace_eq(F, radical, expect)
        # internal direct sum reassembles S
        both = np.vstack([radical, pairs])
        assert linalg.rref(F, both)[1] == S.shape[0]
        assert subspace_eq(F, both, S)
        # c = 0 exactly when totally isotropic
        assert (len(pairs) == 0) == (not sp.symp_gram(F, S).any())


def test_phi_examples_gf4():
    Q = field(4)
    assert sp.phi(Q, np.array([0, 0])).tolist() == [0]
    assert sp.phi(Q, np.array([1, 0])).tolist() == [2]   # beta = omega
    assert sp.phi(Q, np.array([0, 1])).tolist() == [3]   # omega^2
    assert sp.phi(Q, np.array([1, 1])).tolist() == [1]   # omega + omega^2 = 1
    with pytest.raises(NotQuadraticExtension):
        sp.phi(field(2), np.array([1, 0]))


@pytest.mark.parametrize("q", [2, 3])
def test_phi_round_trip_exhaustive(q):
    Q = quadratic_field(field(q))
    for n in (1, 2, 3):
        for v in itertools.islice(all_vectors(q, 2 * n), 0, None):
            arr = np.array(v)
            assert np.array_equal(sp.phi_inv(Q, sp.phi(Q, arr)), arr)


@pytest.mark.parametrize("q", [2, 3])
def test_phi_weight_preserving(q):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.integers(0, q, size=8)
        assert int((sp.phi(Q, v) != 0).sum()) == sp.symp_weight(v)


def hermitian_dot(Q, u, v):
    L = loop_field(Q.order)
    acc = 0
    for a, b in zip(u, v):
        acc = L.add(acc, L.mul(int(a), L.conjugate(int(b))))
    return acc


@pytest.mark.parametrize("q", [2, 3])
def test_phi_pullback_identity_exhaustive(q):
    # h(phi u, phi v) - h(phi v, phi u) = (beta^2 - beta^2q) * <u, v>
    F = field(q)
    Q = quadratic_field(F)
    for n in (1, 2):
        vecs = list(all_vectors(q, 2 * n)) if q ** (2 * n) <= 81 else []
        for u in vecs:
            for v in vecs:
                pu, pv = sp.phi(Q, np.array(u)), sp.phi(Q, np.array(v))
                lhs = Q.add(hermitian_dot(Q, pu, pv), Q.neg(hermitian_dot(Q, pv, pu)))
                rhs = Q.mul(Q.alt_normalizer, sp.symp_inner(F, np.array(u), np.array(v)))
                assert lhs == rhs


@pytest.mark.parametrize("q", [4, 5])
def test_phi_pullback_identity_random(q):
    F = field(q)
    Q = quadratic_field(F)
    rng = np.random.default_rng(31)
    for _ in range(200):
        u, v = rng.integers(0, q, size=(2, 6))
        pu, pv = sp.phi(Q, u), sp.phi(Q, v)
        lhs = Q.add(hermitian_dot(Q, pu, pv), Q.neg(hermitian_dot(Q, pv, pu)))
        rhs = Q.mul(Q.alt_normalizer, sp.symp_inner(F, u, v))
        assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3, 5])
def test_random_isotropic_basis(q):
    F = field(q)
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n + 1))
        B = sp.random_isotropic_basis(F, n, m, rng)
        assert B.shape == (m, 2 * n)
        assert not sp.symp_gram(F, B).any()
