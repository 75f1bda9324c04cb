"""Additive codes: forms, duals, decomposition, min weight, puncturing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecne.errors import (AmbientMismatch, BudgetExceeded, FormatError,
                            IndexOutOfRange, PreconditionFailed)
from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import linalg, symplectic as sp

from oracles import (count_rref, loop_field, odometer_scan, phi_puncture,
                     preimage_min_weight, random_additive_code, random_matrix,
                     scalar_inner, subspace_contains, subspace_eq, trace_dual)


def enumerate_codewords(code):
    """Oracle: all words via scalar arithmetic on coefficient tuples."""
    Q = code.field
    q = Q.base.order
    out = set()
    G = code.generators
    for coeffs in itertools.product(range(q), repeat=G.shape[0]):
        w = [0] * code.n
        for c, row in zip(coeffs, G):
            for j in range(code.n):
                w[j] = Q.add(w[j], Q.mul(c, int(row[j])))
        out.add(tuple(w))
    return out


def oracle_min_weight(code, excluded=None):
    skip = enumerate_codewords(excluded) if excluded else {tuple([0] * code.n)}
    weights = [sum(1 for x in w if x) for w in enumerate_codewords(code) - skip]
    return min(weights) if weights else code.n + 1


def symp_value(Q, u, v):
    """The package's form on two GF(q^2) words: symp_inner on their preimages."""
    return sp.symp_inner(Q.base, sp.phi_inv(Q, np.asarray(u)),
                         sp.phi_inv(Q, np.asarray(v)))


def test_inner_examples():
    Q = field(4)
    assert scalar_inner(Q, [1, 0], [1, 0], "hermitian") == 1
    assert scalar_inner(Q, [2], [2], "hermitian") == 1  # w * w^2 = w^3 = 1
    for u in itertools.product(range(4), repeat=2):
        assert symp_value(Q, u, u) == 0
        for v in itertools.product(range(4), repeat=2):
            assert symp_value(Q, u, v) == scalar_inner(Q, u, v, "alternating")


def test_inner_trace_is_rel_trace_of_hermitian():
    """The trace-alternating form is rel_trace(h / (beta^2 - beta^(2q)))."""
    Q, L = field(9), loop_field(9)
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v = rng.integers(0, 9, size=(2, 3))
        h = scalar_inner(Q, u, v, "hermitian")
        assert symp_value(Q, u, v) == L.rel_trace(L.div(h, Q.alt_normalizer))


def test_alternating_form_antisymmetric_base_valued():
    Q = field(9)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u, v = rng.integers(0, 9, size=(2, 3))
        a = symp_value(Q, u, v)
        b = symp_value(Q, v, u)
        assert a < 3 and b < 3
        assert a == field(3).neg(b)


def test_dual_of_zero_is_full():
    Q = field(4)
    D = ac.dual(ac.AdditiveCode.zero(Q, 2))
    assert D.m == 4  # exponent 2n


def test_dual_gf4_span_one():
    # alternating-orthogonal to 1 means x = conj(x), i.e. the base subfield
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1]])
    D = ac.dual(C)
    assert D.m == 1
    expect = {x for x in range(4)
              if scalar_inner(Q, [x], [1], "alternating") == 0}
    assert {w[0] for w in enumerate_codewords(D)} == expect == {0, 1}


def trace_route_dual(code):
    """The trace dual without a trace path: h(u, -v/delta) has relative
    trace alt(u, v) for delta = beta^2 - beta^(2q), so the trace dual is
    -1/delta times the alternating dual."""
    Q = code.field
    lam = Q.neg(Q.inv(Q.alt_normalizer))
    return ac.AdditiveCode.from_generators(
        Q, Q.mul_table[lam, ac.dual(code).generators], n=code.n)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("form", ["trace", "alternating"])
def test_dual_size_law(q, form):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(q * 7)
    dual = trace_route_dual if form == "trace" else ac.dual
    for _ in range(50):
        n = int(rng.integers(1, 5))
        C = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
        D = dual(C)
        assert C.m + D.m == 2 * n
        assert dual(D) == C
        if form == "trace":
            assert np.array_equal(D.preimage, trace_dual(C))


@pytest.mark.parametrize("q", [2, 3])
def test_duality_correspondence_with_symplectic(q):
    Q = quadratic_field(field(q))
    F = field(q)
    rng = np.random.default_rng(q * 13)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        C = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
        D = ac.dual(C)
        assert subspace_eq(F, D.preimage, sp.symp_dual(F, C.preimage))


def test_char2_trace_equals_alternating_dual():
    """In characteristic 2, beta^2 - beta^(2q) = (beta + beta^q)^2 lies in
    the base field, so the trace dual is the alternating dual itself."""
    Q = field(4)
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        C = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
        assert np.array_equal(ac.dual(C).preimage, trace_dual(C))


def test_radical_cases():
    Q = field(4)
    # self-orthogonal: one generator is always alternating-self-orthogonal
    C = ac.AdditiveCode.from_generators(Q, [[1, 1]])
    assert ac.radical(C) == C
    assert ac.is_self_orthogonal(C)
    # ACD: GF(4) itself at n=1
    A = ac.AdditiveCode.from_generators(Q, [[1], [2]])
    assert ac.radical(A).m == 0
    assert ac.is_acd(A)


def test_decompose_examples():
    Q = field(4)
    A = ac.AdditiveCode.from_generators(Q, [[1], [2]])
    dec = ac.radical_decompose(A)
    assert dec.l == 0 and dec.c == 1 and dec.complement == A
    S = ac.AdditiveCode.from_generators(Q, [[1, 1]])
    dec = ac.radical_decompose(S)
    assert dec.c == 0 and dec.radical == S and dec.complement.m == 0


def test_constructor_canonicalizes_preimage():
    """Three rows, two equal: the constructor row-reduces them to the code
    from_preimage builds, so m, equality, hashing and the split agree."""
    Q = field(4)
    P = [[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    code, canon = ac.AdditiveCode(Q, 2, P), ac.AdditiveCode.from_preimage(Q, P)
    assert code.m == 2 and code == canon and hash(code) == hash(canon)
    assert code.preimage.dtype == np.int16
    dec, ref = ac.radical_decompose(code), ac.radical_decompose(canon)
    assert (dec.l, dec.c) == (ref.l, ref.c) == (0, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_radical_complement_reconstruction(q):
    Q = quadratic_field(field(q))
    F = field(q)
    rng = np.random.default_rng(29 + q)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        C = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
        dec = ac.radical_decompose(C)
        assert dec.radical == ac.radical(C)
        joined = np.vstack([dec.radical.preimage, dec.complement.preimage])
        assert linalg.rank(F, joined) == C.m
        assert subspace_eq(F, joined, C.preimage)
        assert ac.radical(dec.complement).m == 0
        assert dec.l + 2 * dec.c == C.m


def test_dual_containing_predicate():
    Q = field(4)
    full = ac.AdditiveCode.full(Q, 2)
    assert ac.is_dual_containing(full)
    zero = ac.AdditiveCode.zero(Q, 2)
    assert ac.is_self_orthogonal(zero)


def test_min_weight_single_word():
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 1, 1]])
    assert ac.min_weight(C) == 3


def test_min_weight_excluding_sentinel():
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 1]])
    r = ac.min_weight_excluding_detail(C, C)
    assert r.weight == C.n + 1 and r.distance(C.n) is None and r.examined == 0


def test_min_weight_budget():
    Q = field(4)
    C = ac.AdditiveCode.full(Q, 3)
    with pytest.raises(BudgetExceeded) as exc:
        ac.min_weight(C, budget=10)
    assert exc.value.required == 2 ** 6 - 1  # q^m - 1 with q = 2, m = 2n = 6


def test_min_weight_noncontained_exclusion():
    Q = field(4)
    A = ac.AdditiveCode.from_generators(Q, [[1, 0]])
    B = ac.AdditiveCode.from_generators(Q, [[0, 1]])
    with pytest.raises(PreconditionFailed):
        ac.min_weight_excluding(A, B)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("random", "subcode", "zero", "equal")))
def test_exclusion_precondition_is_containment(q, seed, kind):
    """The scan setup rejects `excluded` exactly when `outer` does not
    contain it; budget 0 stops every contained case before the scan."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    outer = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
    if kind == "zero" or (kind == "subcode" and outer.m == 0):
        excluded = ac.AdditiveCode.zero(Q, n)
    elif kind == "subcode":
        coeffs = random_matrix(Q.base, int(rng.integers(1, outer.m + 1)), outer.m, rng)
        excluded = ac.AdditiveCode.from_preimage(
            Q, linalg.gram(Q.base, coeffs, outer.preimage.T))
    elif kind == "equal":
        excluded = outer
    else:
        excluded = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
    try:
        ac.min_weight_excluding_detail(outer, excluded, budget=0)
    except PreconditionFailed:
        raised = True
    except BudgetExceeded:
        raised = False
    else:
        raised = False
    assert raised == (not outer.contains(excluded))


@pytest.mark.parametrize("q", [2, 3])
def test_min_weight_matches_oracle(q):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(41 + q)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        C = random_additive_code(Q, n, int(rng.integers(0, min(2 * n, 6) + 1)), rng)
        expect = oracle_min_weight(C)
        assert ac.min_weight(C) == expect
        assert preimage_min_weight(C) == expect
        # exclusion against a random subcode
        rows = C.preimage[: int(rng.integers(0, C.m + 1))]
        B = ac.AdditiveCode.from_preimage(Q, linalg.as_matrix(rows, cols=2 * n))
        assert ac.min_weight_excluding(C, B) == oracle_min_weight(C, B)


@pytest.mark.parametrize("q", [2, 3])
def test_min_weight_exclusion_monotone(q):
    # excluding a larger subcode cannot decrease the minimum
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(61 + q)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = random_additive_code(Q, n, int(rng.integers(2, 2 * n + 1)), rng)
        cut1 = int(rng.integers(0, A.m))
        cut2 = int(rng.integers(cut1, A.m))
        small = ac.AdditiveCode.from_preimage(
            Q, linalg.as_matrix(A.preimage[:cut1], cols=2 * n))
        big = ac.AdditiveCode.from_preimage(
            Q, linalg.as_matrix(A.preimage[:cut2], cols=2 * n))
        assert (ac.min_weight_excluding(A, big)
                >= ac.min_weight_excluding(A, small))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_min_weight_chunked_scan_boundaries(q, monkeypatch):
    # force multi-block scans so skip offsets cross chunk boundaries; at
    # most ~1000 words per code keeps the scalar oracle fast for large q
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(71 + q)
    monkeypatch.setattr(ac, "_CHUNK", 4)
    cap = int(math.log(1000) / math.log(q))
    for _ in range(15):
        n = int(rng.integers(1, 4))
        A = random_additive_code(Q, n, int(rng.integers(1, min(2 * n, cap) + 1)), rng)
        rows = A.preimage[: int(rng.integers(0, A.m + 1))]
        B = ac.AdditiveCode.from_preimage(Q, linalg.as_matrix(rows, cols=2 * n))
        expect = oracle_min_weight(A, B)
        assert ac.min_weight_excluding(A, B) == expect


def chunks(q):
    return [1, 2, q - 1, q, q + 1, q * q, 100, ac._CHUNK]


def planted_rows(F, n, m, weight1, rng):
    """m random preimage rows over F.  With `weight1`, one row is solved for
    so that a random coefficient vector gives a weight-1 word: the word
    then sits at an odometer index with many nonzero digits."""
    rows = random_matrix(F, m, 2 * n, rng)
    if weight1 and m:
        coeffs = rng.integers(0, F.order, size=m)
        r = int(rng.integers(0, m))
        coeffs[r] = rng.integers(1, F.order)
        target = np.zeros(2 * n, dtype=np.int16)
        j = int(rng.integers(0, n))
        target[[j, n + j]] = rng.integers(0, F.order, size=2)
        target[j] = max(target[j], 1)
        rest = linalg.gram(F, np.delete(coeffs, r)[None], np.delete(rows, r, axis=0).T)[0]
        rows[r] = F.mul_table[F.inv(int(coeffs[r])), F.sub_table[target, rest]]
    return rows


def assert_kernel_matches_oracle(Q, rows, skip, chunk):
    """(weight, examined) of the packed kernel equal the GF(q^2) odometer
    scan over the same rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac, "_CHUNK", chunk)
        got = ac._scan_preimage(Q.base, rows, skip)
    assert got == odometer_scan(Q, sp.phi(Q, rows), skip, chunk)


def scan_case(Q, n, m, k, rng):
    """An outer code of dimension m and its subcode spanned by k of its
    canonical rows; half the codes hold a weight-1 word."""
    pre = linalg.row_basis(Q.base, planted_rows(Q.base, n, m, rng.random() < 0.5, rng))
    A = ac.AdditiveCode.from_preimage(Q, linalg.as_matrix(pre, cols=2 * n))
    B = ac.AdditiveCode.from_preimage(Q, linalg.as_matrix(A.preimage[:k], cols=2 * n))
    return A, B


def assert_min_weight_matches_oracle(A, B, chunk):
    """min_weight_excluding_detail equals the odometer scan over the
    exclusion basis, which skips the q^dim(B) words of B."""
    Q = A.field
    rows = ac._exclusion_basis(A, B)
    expect = odometer_scan(Q, sp.phi(Q, rows), Q.base.order ** B.m, chunk)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac, "_CHUNK", chunk)
        r = ac.min_weight_excluding_detail(A, B)
    assert (r.weight, r.examined) == expect
    if A.m == B.m:
        assert expect == (A.n + 1, 0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(1, 24), st.data())
def test_scan_matches_odometer_oracle(q, n, data):
    # any rows, dependent ones included, and any skip offset
    Q = quadratic_field(field(q))
    m = data.draw(st.integers(0, min(2 * n, int(math.log(3000) / math.log(q)))))
    skip = data.draw(st.integers(0, q ** m))
    chunk = data.draw(st.sampled_from(chunks(q)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = planted_rows(Q.base, n, m, data.draw(st.booleans()), rng)
    assert_kernel_matches_oracle(Q, rows, skip, chunk)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(1, 24), st.data())
def test_min_weight_detail_matches_odometer_oracle(q, n, data):
    Q = quadratic_field(field(q))
    m = data.draw(st.integers(0, min(2 * n, int(math.log(3000) / math.log(q)))))
    k = data.draw(st.integers(0, m))
    chunk = data.draw(st.sampled_from(chunks(q)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    assert_min_weight_matches_oracle(*scan_case(Q, n, m, k, rng), chunk)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_scan_multi_limb_words(q):
    # 22 coordinates need two limbs for every q; the chunk sizes and skips
    # give partial first blocks, whole skipped blocks and weight-1 exits
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(90 + q)
    m = int(math.log(2000) / math.log(q))
    assert ac._Limbs(Q.base, linalg.empty_matrix(44)).limbs >= 2
    for k, chunk in itertools.product(range(m), (q, q * q)):
        assert_min_weight_matches_oracle(*scan_case(Q, 22, m, k, rng), chunk)
        rows = planted_rows(Q.base, 22, m, True, rng)
        assert_kernel_matches_oracle(Q, rows, int(rng.integers(0, q ** m)), chunk)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_scan_zero_outer_code(q):
    Q = quadratic_field(field(q))
    zero = ac.AdditiveCode.zero(Q, 3)
    assert_min_weight_matches_oracle(zero, zero, 4)
    assert ac._scan_preimage(Q.base, zero.preimage, 1) == (4, 0)
    assert_kernel_matches_oracle(Q, zero.preimage, 0, 4)


def test_min_weight_generator_bound():
    Q = field(9)
    rng = np.random.default_rng(55)
    for _ in range(20):
        C = random_additive_code(Q, 4, int(rng.integers(1, 5)), rng)
        bound = min(int((row != 0).sum()) for row in C.generators)
        assert ac.min_weight(C) <= bound


def test_puncture():
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 1]])
    assert ac.puncture(C, []) == C
    P = ac.puncture(C, [1])
    assert P.n == 1 and P.generators.tolist() == [[1]]
    drop = ac.AdditiveCode.from_generators(Q, [[1, 0], [1, 1]])
    assert ac.puncture(drop, [1]).m == 1
    with pytest.raises(IndexOutOfRange):
        ac.puncture(C, [5])


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_puncture_matches_phi_oracle(q):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(q)
    for n in (1, 2, 3):
        codes = [ac.AdditiveCode.zero(Q, n), ac.AdditiveCode.full(Q, n)]
        codes += [random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
                  for _ in range(6)]
        for C in codes:
            for coords in itertools.chain.from_iterable(
                    itertools.combinations(range(n), r) for r in range(n + 1)):
                assert ac.puncture(C, coords) == phi_puncture(C, coords)


def test_generator_entries_range_checked():
    Q = field(4)
    for bad in ([[-1, 0]], [[4, 0]], [[1, 40000]]):
        with pytest.raises(FormatError, match=r"outside GF\(4\)"):
            ac.AdditiveCode.from_generators(Q, bad)
        with pytest.raises(FormatError, match=r"outside GF\(4\)"):
            ac.AdditiveCode.from_linear(Q, bad)
    C = ac.AdditiveCode.from_generators(Q, [[1, 3]])
    assert C.contains_word([1, 3]) and not C.contains_word([1, 2])
    for word in ([1, 99], [1, -1]):
        with pytest.raises(FormatError, match=r"outside GF\(4\)"):
            C.contains_word(word)
    with pytest.raises(AmbientMismatch):
        C.contains_word([1, 3, 0])


def test_linear_code_hermitian():
    Q = field(9)
    D = ac.AdditiveCode.from_linear(Q, [[1]])
    assert D.m // 2 == 1
    assert ac.is_acd(D)
    assert ac.dual(D).m == 0
    # closure under GF(9)-scalars
    for lam in range(9):
        assert D.contains_word(np.array([Q.mul(lam, 1)]))


def test_linear_hermitian_self_orthogonal():
    Q = field(4)
    D = ac.AdditiveCode.from_linear(Q, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert ac.is_self_orthogonal(D)
    assert not ac.is_acd(D)
    assert ac.radical(D).m // 2 == 2
    assert ac.dual(D).m // 2 == 2


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_contains_is_one_elimination(q, monkeypatch):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([61, q])
    outer, inner = (random_additive_code(Q, 3, m, rng) for m in (4, 2))
    fields = count_rref(monkeypatch)
    outer.contains(inner)
    assert fields == [Q.base]
    outer.contains_word(inner.generators[0])
    assert fields == [Q.base, Q.base]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_contains_matches_sum_oracle(q, seed, subcode):
    """C contains D, or a word w, exactly when C + D, or C + <w>, is C."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    outer = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
    if subcode and outer.m:
        coeffs = random_matrix(Q.base, int(rng.integers(1, outer.m + 1)), outer.m, rng)
        inner = ac.AdditiveCode.from_preimage(
            Q, linalg.gram(Q.base, coeffs, outer.preimage.T))
    else:
        inner = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
    assert outer.contains(inner) == subspace_contains(
        Q.base, outer.preimage, inner.preimage)
    word = random_matrix(Q, 1, n, rng)
    assert outer.contains_word(word) == subspace_contains(
        Q.base, outer.preimage, sp.phi_inv(Q, word))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_from_linear_fixes_exactly_linear_codes(q, seed, linear):
    """from_linear(Q, C.generators) == C exactly when beta * g lies in C for
    every generator g; a from_linear code always passes."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    if linear:
        C = ac.AdditiveCode.from_linear(
            Q, random_matrix(Q, int(rng.integers(0, n + 1)), n, rng), n=n)
    else:
        C = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
    closed = all(C.contains_word(Q.mul_table[Q.beta, g]) for g in C.generators)
    assert (ac.AdditiveCode.from_linear(Q, C.generators, n=n) == C) == closed
    assert closed or not linear


def test_code_file_round_trip(tmp_path):
    Q = field(9)
    rng = np.random.default_rng(3)
    C = random_additive_code(Q, 3, 4, rng)
    text = ac.dump_code(C)
    assert text.startswith("#code q2=9 n=3 m=4")
    assert ac.parse_code(text) == C
    p = tmp_path / "c.code"
    p.write_text(text)
    assert ac.load_code(p) == C


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_symplectic_code_file_round_trip(q, tmp_path):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(q)
    for m in (0, 2, 5):
        C = random_additive_code(Q, 3, m, rng)
        text = sp.dump_preimage(Q.base, C.preimage)
        assert ac.parse_code(text, symplectic=True) == C
        p = tmp_path / f"c{m}.sym"
        p.write_text(text)
        assert ac.load_code(p, symplectic=True) == C


def test_symplectic_code_file_rejections():
    with pytest.raises(FormatError, match="base-field order"):
        ac.parse_code("16 1 2\n1 1\n", symplectic=True)
    with pytest.raises(FormatError, match="even column count"):
        ac.parse_code("2 1 3\n1 0 1\n", symplectic=True)


def test_code_file_requires_quadratic_order():
    with pytest.raises(FormatError):
        ac.parse_code("2 1 2\n1 1\n")
