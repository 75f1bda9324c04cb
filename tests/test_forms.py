"""Laws of the symplectic Gram engine over every supported q.

Each fast route (``linalg.gram``, ``symp_gram`` on the preimage, the
Gram-updated symplectic Gram-Schmidt, the Hermitian questions of
GF(q^2)-linear codes answered on ``from_linear`` codes) is checked against
a scalar oracle; ``decompose`` output is pinned in golden_cli.json.  The
Hermitian and trace forms have no path of their own: their values and duals
are read off symplectic ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import eaqec, linalg, symplectic as sp

from oracles import (hermitian_dual, hermitian_gram, hermitian_radical,
                     kernel_radical, loop_field, random_additive_code,
                     random_matrix, random_subspace, scalar_inner, subspace_eq,
                     subspace_intersect, trace_dual)


def random_code(Q, rng, max_n=4):
    n = int(rng.integers(1, max_n + 1))
    return random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)


def scalar_witness(Q, G, form):
    for i in range(G.shape[0]):
        for j in range(i, G.shape[0]):
            if scalar_inner(Q, G[i], G[j], form) != 0:
                return (i, j)
    return None


def cross_gram(Q, U, V):
    """Symplectic values <phi^-1(U_i), phi^-1(V_j)>: the off-diagonal block
    of one symp_gram of the stacked preimages."""
    P = sp.phi_inv(Q, np.vstack([U, V]))
    return sp.symp_gram(Q.base, P)[:len(U), len(U):]


def form_gram(Q, G, form):
    """Gram matrix of the rows of G under `form`, from symplectic values
    only.  With delta = beta^2 - beta^(2q), alt(u, v) = rel_trace(h / delta),
    so trace(u, v) = alt(u, -delta v), and solving the pair alt(u, v),
    alt(u, beta v) gives h = delta (alt(u, beta v) - beta alt(u, v)) /
    (beta^q - beta)."""
    MUL, SUB = Q.mul_table, Q.sub_table
    delta, beta = Q.alt_normalizer, Q.beta
    if form == "alternating":
        return sp.symp_gram(Q.base, sp.phi_inv(Q, G))
    if form == "trace":
        return cross_gram(Q, G, MUL[Q.neg(delta), G])
    t1, t2 = cross_gram(Q, G, G), cross_gram(Q, G, MUL[beta, G])
    scale = Q.mul(delta, Q.inv(Q.add(Q.beta_conj, Q.neg(beta))))
    return MUL[scale, SUB[t2, MUL[beta, t1]]]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("form", ("hermitian", "trace", "alternating"))
def test_code_gram_matches_scalar_oracle(q, form):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([31, q])
    for _ in range(8):
        code = random_code(Q, rng)
        G = code.generators
        gram = form_gram(Q, G, form)
        assert gram.shape == (code.m, code.m)
        for i in range(code.m):
            for j in range(code.m):
                expect = scalar_inner(Q, G[i], G[j], form)
                assert gram[i, j] == expect
                if form == "alternating":
                    assert sp.symp_inner(Q.base, code.preimage[i],
                                         code.preimage[j]) == expect


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_form_blocks(q):
    """On the unit vectors of F_q^4 the symplectic Gram matrix is
    ((0, I), (-I, 0)): the block ((0, 1), (-1, 0)) on each coordinate."""
    F = field(q)
    I = np.eye(2, dtype=np.int16)
    expect = np.block([[0 * I, I], [F.neg(1) * I, 0 * I]])
    assert np.array_equal(sp.symp_gram(F, np.eye(4, dtype=np.int16)), expect)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("form", ("trace", "alternating"))
def test_dual_laws(q, form):
    """The alternating dual, and the trace dual as -1/delta times it."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([37, q])
    lam = Q.neg(Q.inv(Q.alt_normalizer)) if form == "trace" else 1

    def dual(code):
        gens = Q.mul_table[lam, ac.dual(code).generators]
        return ac.AdditiveCode.from_generators(Q, gens)

    for _ in range(8):
        code = random_code(Q, rng)
        d = dual(code)
        assert code.m + d.m == 2 * code.n
        assert dual(d) == code
        # every dual word is orthogonal to every code word
        for u in code.generators:
            for v in d.generators:
                assert scalar_inner(Q, u, v, form) == 0
        if form == "alternating":
            assert np.array_equal(d.preimage, sp.symp_dual(Q.base, code.preimage))
        else:
            assert np.array_equal(d.preimage, trace_dual(code))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_witnesses_match_scalar_scan(q):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([41, q])
    for trial in range(10):
        n = int(rng.integers(1, 5))
        if trial % 2:
            pre = sp.random_isotropic_basis(Q.base, n, int(rng.integers(0, n + 1)), rng)
            code = ac.AdditiveCode(Q, pre)
        else:
            code = random_code(Q, rng)
        assert (ac.self_orthogonality_witness(code)
                == scalar_witness(Q, code.generators, "alternating"))
        G = random_matrix(Q, int(rng.integers(0, 3)), n, rng)
        assert (ac.is_self_orthogonal(ac.AdditiveCode.from_linear(Q, G))
                == (scalar_witness(Q, G, "hermitian") is None))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_decompose_gram_laws(q):
    F = field(q)
    rng = np.random.default_rng([43, q])
    for _ in range(10):
        n = int(rng.integers(1, 5))
        S = random_subspace(F, int(rng.integers(0, 2 * n + 1)), 2 * n, rng)
        radical, pairs = sp.decompose(F, S)
        l, c = len(radical), len(pairs) // 2
        assert l + 2 * c == S.shape[0]
        rows = np.vstack([radical, pairs])
        assert subspace_eq(F, rows, S)
        G = sp.symp_gram(F, rows)
        expect = np.zeros_like(G)
        for k in range(c):
            e, f = l + 2 * k, l + 2 * k + 1
            expect[e, f], expect[f, e] = 1, F.neg(1)
        assert np.array_equal(G, expect)


@st.composite
def spanning_rows(draw):
    """Shuffled rows over one of the seven q: an isotropic part, a few random
    rows, zero rows and combinations of the others, so the radical is often
    nontrivial and the rows are often dependent."""
    Q = quadratic_field(field(draw(st.sampled_from(SUPPORTED_ORDERS))))
    F = Q.base
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4))
    S = np.vstack([sp.random_isotropic_basis(F, n, draw(st.integers(0, n)), rng),
                   random_matrix(F, draw(st.integers(0, 3)), 2 * n, rng)])
    combos = random_matrix(F, draw(st.integers(0, 3)), len(S), rng)
    zeros = np.zeros((draw(st.integers(0, 1)), 2 * n), dtype=np.int16)
    rows = np.vstack([S, linalg.gram(F, combos, S.T), zeros])
    return Q, rows[rng.permutation(len(rows))]


@settings(max_examples=150, deadline=None)
@given(spanning_rows())
def test_decompose_law_on_spanning_rows(case):
    """On any spanning rows the leftover rows span the radical and the pairs
    are standard hyperbolic blocks orthogonal to it: l + 2c is the rank,
    and the pairs span a complementary-dual code."""
    Q, rows = case
    F, n = Q.base, rows.shape[1] // 2
    radical, pairs = sp.decompose(F, rows)
    assert np.array_equal(linalg.row_basis(F, radical), kernel_radical(F, rows))
    l, c = linalg.rref(F, radical)[1], len(pairs) // 2
    expect = np.zeros((len(radical) + 2 * c,) * 2, dtype=np.int16)
    for k in range(len(radical), len(expect), 2):
        expect[k, k + 1], expect[k + 1, k] = 1, F.neg(1)
    assert np.array_equal(sp.symp_gram(F, np.vstack([radical, pairs])), expect)
    assert subspace_eq(F, np.vstack([radical, pairs]), rows)
    assert l + 2 * c == linalg.rref(F, rows)[1]
    dec = ac.CodeDecomposition(ac.AdditiveCode(Q, radical), pairs)
    assert (dec.l, dec.c) == (l, c)
    assert dec.complement.m == 2 * c
    assert kernel_radical(F, dec.complement.preimage).shape[0] == 0
    split = ac.radical_decompose(ac.AdditiveCode(Q, rows))
    assert (split.l, split.c) == (l, c) and split.radical == dec.radical


@st.composite
def codes_with_isotropic_part(draw):
    """An additive code spanned by a random isotropic subspace and a few more
    random vectors, so that its radical is often nontrivial."""
    Q = quadratic_field(field(draw(st.sampled_from(SUPPORTED_ORDERS))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4))
    iso = sp.random_isotropic_basis(Q.base, n, draw(st.integers(0, n)), rng)
    extra = random_matrix(Q.base, draw(st.integers(0, 2)), 2 * n, rng)
    return ac.AdditiveCode(Q, np.vstack([iso, extra]))


@settings(max_examples=150, deadline=None)
@given(codes_with_isotropic_part())
def test_radical_matches_intersection_oracle(code):
    expect = subspace_intersect(code.base_field, code.preimage,
                                ac.dual(code).preimage)
    assert np.array_equal(ac.radical(code).preimage, expect)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_hermitian_radical_matches_intersection_oracle(q, seed, isotropic):
    """With `isotropic`, the code holds v = (1, x, 0, ...), x^(q+1) = -1, and
    otherwise rows of v's Hermitian dual, so v lies in its radical."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    rows = random_matrix(Q, int(rng.integers(0, n + 1)), n, rng)
    if isotropic:
        v = np.zeros((1, n), dtype=np.int16)
        L = loop_field(Q.order)
        v[0, :2] = 1, next(x for x in range(Q.order)
                           if L.add(L.pow(x, q + 1), 1) == 0)
        perp = hermitian_dual(Q, v)
        rows = np.vstack([v, linalg.gram(Q, rows[:, :perp.shape[0]], perp.T)])
    code = ac.AdditiveCode.from_linear(Q, rows)
    rad = ac.radical(code)
    assert not isotropic or rad.m >= 2
    expect = subspace_intersect(Q, linalg.as_matrix(rows, cols=n),
                                ac.dual(code).generators)
    assert rad == ac.AdditiveCode.from_linear(Q, expect)


@st.composite
def linear_codes(draw):
    """A GF(q^2)-linear code of length 2..5.  Its first j rows carry
    (1, x), x^(q+1) = -1, on disjoint coordinate pairs, so they are
    Hermitian self-orthogonal; the other rows are drawn from their Hermitian
    dual, so the first rows lie in the radical.  With no other rows the
    code is self-orthogonal."""
    q = draw(st.sampled_from(SUPPORTED_ORDERS))
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 5))
    planted = draw(st.integers(0, n // 2))
    L = loop_field(Q.order)
    x = next(x for x in range(Q.order) if L.add(L.pow(x, q + 1), 1) == 0)
    V = np.zeros((planted, n), dtype=np.int16)
    for i in range(planted):
        V[i, 2 * i:2 * i + 2] = 1, x
    perp = hermitian_dual(Q, V)
    coeffs = random_matrix(Q, draw(st.integers(0, perp.shape[0])), perp.shape[0], rng)
    return ac.AdditiveCode.from_linear(
        Q, np.vstack([V, linalg.gram(Q, coeffs, perp.T)]))


@settings(max_examples=200, deadline=None)
@given(linear_codes())
def test_hermitian_route_matches_oracle(code):
    """Dual, radical, self-orthogonality and ACD of a from_linear code equal
    the GF(q^2) Hermitian route, and combine_neb spends c = u - r ebits for
    the Hermitian radical dimension r."""
    Q, n, G = code.field, code.n, code.generators
    rad = hermitian_radical(Q, G)
    assert ac.dual(code) == ac.AdditiveCode.from_linear(Q, hermitian_dual(Q, G))
    assert ac.radical(code) == ac.AdditiveCode.from_linear(Q, rad)
    assert ac.is_self_orthogonal(code) == (not hermitian_gram(Q, G).any())
    assert ac.is_acd(code) == (rad.shape[0] == 0)
    bob = ac.AdditiveCode.zero(Q, max(code.m // 2, 1))
    alice = eaqec.combine_neb(code, bob, compute_d=False).alice
    assert alice.c == code.m // 2 - rad.shape[0]
    assert alice.l == 2 * rad.shape[0]
