"""Additive codes: forms, duals, decomposition, min weight, puncturing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecne.errors import (AmbientMismatch, BudgetExceeded, DimensionMismatch,
                            FormatError, IndexOutOfRange, PreconditionFailed)
from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac, cli
from eaqecne import linalg, symplectic as sp

from oracles import (count_rref, loop_field, odometer_scan, orbit_scan,
                     phi_puncture, preimage_min_weight, random_additive_code,
                     random_matrix, scalar_inner, subspace_contains,
                     subspace_eq, trace_dual)


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
    return min(weights) if weights else None


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
        Q, Q.mul_table[lam, ac.dual(code).generators])


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
    of their canonical basis, so n, m, equality, hashing and the split agree."""
    Q = field(4)
    P = [[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    basis = linalg.row_basis(Q.base, P)
    code, canon = ac.AdditiveCode(Q, P), ac.AdditiveCode(Q, basis)
    assert (code.n, code.m) == (canon.n, canon.m) == (2, 2)
    assert code == canon and hash(code) == hash(canon)
    assert np.array_equal(code.preimage, basis)
    assert code.preimage.dtype == np.int16
    dec, ref = ac.radical_decompose(code), ac.radical_decompose(canon)
    assert (dec.l, dec.c) == (ref.l, ref.c) == (0, 1)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_preimage_states_the_length(q):
    """n is half the preimage's column count, an odd count is refused, and a
    (0, n) generator matrix is the zero code of length n."""
    Q = quadratic_field(field(q))
    for cols in (1, 3, 5):
        for rows in (0, 1, 2):
            with pytest.raises(DimensionMismatch):
                ac.AdditiveCode(Q, np.zeros((rows, cols), dtype=np.int16))
    for n in range(4):
        zero = ac.AdditiveCode.zero(Q, n)
        none = np.zeros((0, n), dtype=np.int16)
        assert ac.AdditiveCode(Q, linalg.empty_matrix(2 * n)) == zero
        assert ac.AdditiveCode.from_generators(Q, none) == zero
        assert ac.AdditiveCode.from_linear(Q, none) == zero
        assert (zero.n, zero.m, ac.AdditiveCode.full(Q, n).n) == (n, 0, n)
    with pytest.raises(FormatError):
        ac.AdditiveCode.from_generators(Q, [])


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
    assert ac.min_weight_excluding_detail(C).d == 3


def test_min_weight_excluding_sentinel():
    """d is None and nothing is weighed when no word is left: the excluded
    code is the outer code, or the outer code is zero.  No budget is spent."""
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 1]])
    r = ac.min_weight_excluding_detail(C, C)
    assert r == ac.MinWeightResult(d=None, examined=0)
    rng = np.random.default_rng(67)
    for q in SUPPORTED_ORDERS:
        Q = quadratic_field(field(q))
        for n in (1, 2, 3):
            outer = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
            zero = ac.AdditiveCode.zero(Q, n)
            for A, B in ((outer, outer), (zero, None), (zero, zero)):
                r = ac.min_weight_excluding_detail(A, B, budget=0)
                assert r.d is None and r.examined == 0


def test_min_weight_budget():
    Q = field(4)
    C = ac.AdditiveCode.full(Q, 3)
    with pytest.raises(BudgetExceeded) as exc:
        ac.min_weight_excluding_detail(C, budget=10)
    assert exc.value.required == 2 ** 6 - 1  # q^m - 1 with q = 2, m = 2n = 6


def test_min_weight_noncontained_exclusion():
    Q = field(4)
    A = ac.AdditiveCode.from_generators(Q, [[1, 0]])
    B = ac.AdditiveCode.from_generators(Q, [[0, 1]])
    with pytest.raises(PreconditionFailed):
        ac.min_weight_excluding_detail(A, B)


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
        excluded = ac.AdditiveCode(Q, linalg.gram(Q.base, coeffs, outer.preimage.T))
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
        assert ac.min_weight_excluding_detail(C).d == expect
        assert preimage_min_weight(C) == expect
        # exclusion against a random subcode
        rows = C.preimage[: int(rng.integers(0, C.m + 1))]
        B = ac.AdditiveCode(Q, linalg.as_matrix(rows, cols=2 * n))
        assert ac.min_weight_excluding_detail(C, B).d == oracle_min_weight(C, B)


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
        small = ac.AdditiveCode(Q, linalg.as_matrix(A.preimage[:cut1], cols=2 * n))
        big = ac.AdditiveCode(Q, linalg.as_matrix(A.preimage[:cut2], cols=2 * n))
        assert (ac.min_weight_excluding_detail(A, big).d
                >= ac.min_weight_excluding_detail(A, small).d)


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
        B = ac.AdditiveCode(Q, linalg.as_matrix(rows, cols=2 * n))
        expect = oracle_min_weight(A, B)
        assert ac.min_weight_excluding_detail(A, B).d == expect


def chunks(q):
    return [1, 2, q - 1, q, q + 1, q * q, 100, ac._CHUNK]


def suffixes(q):
    """Caps on the suffix table: 1 puts every F_p row above it and p all but
    the last, which splits a generator's rows when q = p^e, e > 1."""
    p = field(q).p
    return [1, p, q, p * q, ac._SUFFIX]


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


def assert_kernel_matches_oracle(Q, rows, excluded, chunk, suffix=ac._SUFFIX):
    """(weight, examined) of the packed kernel, with blocks of `chunk` words
    and suffix tables of `suffix`, equal the orbit scan over the same GF(q^2)
    rows, and the weight equals the odometer scan of all words outside the
    span of the last `excluded` rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac, "_CHUNK", chunk)
        mp.setattr(ac, "_SUFFIX", suffix)
        got = ac._scan_preimage(Q.base, rows, excluded)
    gens = sp.phi(Q, rows)
    assert got == orbit_scan(Q, gens, excluded, chunk)
    assert got[0] == odometer_scan(Q, gens, Q.base.order ** excluded, chunk)[0]
    return got


def scan_case(Q, n, m, k, rng):
    """An outer code of dimension m and its subcode spanned by k of its
    canonical rows; half the codes hold a weight-1 word."""
    pre = linalg.row_basis(Q.base, planted_rows(Q.base, n, m, rng.random() < 0.5, rng))
    A = ac.AdditiveCode(Q, linalg.as_matrix(pre, cols=2 * n))
    B = ac.AdditiveCode(Q, linalg.as_matrix(A.preimage[:k], cols=2 * n))
    return A, B


def assert_min_weight_matches_oracle(A, B, chunk, suffix=ac._SUFFIX):
    """min_weight_excluding_detail, with blocks of `chunk` words and suffix
    tables of `suffix`, equals the orbit scan over the exclusion basis, whose
    last dim(B) rows span B, and its weight equals the odometer scan that
    skips the q^dim(B) words of B."""
    Q = A.field
    gens = sp.phi(Q, ac._exclusion_basis(A, B))
    expect = orbit_scan(Q, gens, B.m, chunk)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac, "_CHUNK", chunk)
        mp.setattr(ac, "_SUFFIX", suffix)
        r = ac.min_weight_excluding_detail(A, B)
    best = odometer_scan(Q, gens, Q.base.order ** B.m, chunk)[0]
    if A.m == B.m:
        # no word is left: the oracles' n + 1 is the scan's None
        assert expect == (best, 0) == (A.n + 1, 0) and r.d is None and r.examined == 0
    else:
        assert (r.d, r.examined) == expect and r.d == best
    if r.d is None or r.d > 1:
        # no early exit: one word of each F_q^* orbit outside B
        q = Q.base.order
        assert r.examined * (q - 1) == q ** A.m - q ** B.m


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(1, 24), st.data())
def test_scan_matches_odometer_oracle(q, n, data):
    # any rows, dependent ones included, and any count of excluded rows
    Q = quadratic_field(field(q))
    m = data.draw(st.integers(0, min(2 * n, int(math.log(3000) / math.log(q)))))
    excluded = data.draw(st.integers(0, m))
    chunk = data.draw(st.sampled_from(chunks(q) + [q ** m]))
    suffix = data.draw(st.sampled_from(suffixes(q)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = planted_rows(Q.base, n, m, data.draw(st.booleans()), rng)
    assert_kernel_matches_oracle(Q, rows, excluded, chunk, suffix)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(1, 24), st.data())
def test_min_weight_detail_matches_odometer_oracle(q, n, data):
    Q = quadratic_field(field(q))
    m = data.draw(st.integers(0, min(2 * n, int(math.log(3000) / math.log(q)))))
    k = data.draw(st.integers(0, m))
    chunk = data.draw(st.sampled_from(chunks(q) + [q ** m]))
    suffix = data.draw(st.sampled_from(suffixes(q)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    assert_min_weight_matches_oracle(*scan_case(Q, n, m, k, rng), chunk, suffix)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_scan_multi_limb_words(q):
    # 22 coordinates need two limbs for every q; the chunk sizes and
    # excluded rows give partial first blocks, whole skipped blocks and
    # weight-1 exits
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(90 + q)
    m = int(math.log(2000) / math.log(q))
    assert len(ac._pack(linalg._codes(Q.base), linalg.empty_matrix(44))) >= 2
    for k, chunk in itertools.product(range(m), (q, q * q)):
        assert_min_weight_matches_oracle(*scan_case(Q, 22, m, k, rng), chunk)
        rows = planted_rows(Q.base, 22, m, True, rng)
        assert_kernel_matches_oracle(Q, rows, int(rng.integers(0, m + 1)), chunk)


@pytest.mark.parametrize("n", [61, 66, 130])
@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_scan_more_limbs_than_bits(q, n):
    """Words of more limbs than a coordinate has bits, whose limbs are merged
    in groups of `bits` before one popcount each: n = 61 is past one group
    for q in {3, 4, 9} and exactly one group for the other q, 66 and 130 are
    past it for every q."""
    Q = quadratic_field(field(q))
    T = linalg._codes(Q.base)
    limbs = len(ac._pack(T, linalg.empty_matrix(2 * n)))
    assert (limbs > T.bits) == (n > 61 or q in (3, 4, 9))
    rng = np.random.default_rng([q, n])
    m = int(math.log(300) / math.log(q))
    for weight1 in (False, True, False, True):
        rows = planted_rows(Q.base, n, m, weight1, rng)
        chunk, suffix = int(rng.choice(chunks(q))), int(rng.choice(suffixes(q)))
        assert_kernel_matches_oracle(Q, rows, int(rng.integers(0, m)), chunk, suffix)


@pytest.fixture
def span_sizes(monkeypatch):
    """Words per limb of each table ``_span`` builds, in call order: a
    scan's first table is its suffix table."""
    sizes, span = [], ac._span
    monkeypatch.setattr(ac, "_span", lambda *a: sizes.append((out := span(*a)).shape[1]) or out)
    return sizes


@pytest.mark.parametrize("q, m, excluded, chunk, suffix, light", [
    # a generator's F_p rows split between the tables
    (4, 4, 0, 16, 2, None), (8, 3, 1, 64, 4, None),
    # s = m with the lead row in the negated table
    (3, 4, 0, 81, 9, None), (2, 5, 0, 32, 4, None),
    # excluded >= s: no block 0
    (2, 6, 3, 4, 2, None), (5, 4, 2, 5, 1, None),
    # a weight-1 exit in block 0 (the last row) and in a later block (the first)
    (3, 5, 0, 9, 3, -1), (8, 3, 0, 64, 4, -1), (3, 5, 0, 9, 3, 0), (4, 4, 1, 16, 2, 0),
])
def test_two_table_scan_cases(q, m, excluded, chunk, suffix, light, span_sizes):
    """Scans whose suffix table is capped below a block: the first table
    built, the suffix table, holds at most `suffix` words, the kernel equals
    the oracles, and a weight-1 row ends the scan in the block that holds
    it."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([q, m, excluded])
    rows = random_matrix(Q.base, m, 24, rng)
    if light is not None:
        rows[light] = 0
        rows[light, 5] = 1
    best, examined = assert_kernel_matches_oracle(Q, rows, excluded, chunk, suffix)
    assert span_sizes[0] <= suffix < min(q ** m, chunk)
    s = max(j for j in range(m + 1) if q ** j <= chunk)
    first = max(q ** s - q ** excluded, 0) // (q - 1)
    every = (q ** m - q ** excluded) // (q - 1)
    assert s < m or light is None
    if light == -1:
        assert (best, examined) == (1, first)
    elif light == 0:
        assert best == 1 and first < examined < every
    else:
        assert best > 1 and examined == every


def test_every_scan_caps_its_first_table(tmp_path, capsys, monkeypatch, span_sizes):
    """Scans with blocks of 3^9 and 4^7 words, which one table of 13,122 and
    8,192 words would hold: the first table built holds at most _SUFFIX
    words, the kernel equals the oracles, and the CLI prints the same lines
    as with one table."""
    rng = np.random.default_rng(28)
    cases = [(9, rng.integers(0, 9, (9, 12)), "mindist", "d=5 enumerated=9841"),
             (16, rng.integers(0, 16, (9, 8)), "analyze", "[[8,3,4;4]]_4 l=1 m=9")]
    scans, scan = [], ac._scan_preimage
    with monkeypatch.context() as mp:
        mp.setattr(ac, "_scan_preimage", lambda *a: scans.append(a) or scan(*a))
        for i, (q2, gens, command, line) in enumerate(cases):
            path = tmp_path / f"{i}.code"
            path.write_text(linalg.dump_matrix(field(q2), gens))
            span_sizes.clear()
            assert cli.main([command, str(path)]) == 0
            assert capsys.readouterr().out == line + "\n"
            assert span_sizes[0] <= ac._SUFFIX
    assert [(F.order, len(rows)) for F, rows, _ in scans] == [(3, 9), (4, 7)]
    for F, rows, excluded in scans:
        assert_kernel_matches_oracle(quadratic_field(F), rows, excluded, ac._CHUNK)


def test_scan_leaves_numpy_state_alone(span_sizes):
    """A scan sets numpy's buffer size for its blocks only: the buffer size
    and error handling read the same after a scan that fits one table, a
    two-table scan and one that stops at weight <= 1."""
    F, rng = field(2), np.random.default_rng(29)
    light = random_matrix(F, 14, 24, rng)
    light[0] = 0
    light[0, 3] = 1
    state = np.getbufsize(), np.geterr()
    for rows in (random_matrix(F, 10, 24, rng), random_matrix(F, 14, 24, rng), light):
        best, _ = ac._scan_preimage(F, rows, 0)
        assert (np.getbufsize(), np.geterr()) == state
    # first tables: the whole 2^10-word block, then 2^12 of 2^14 words
    assert span_sizes[::2] == [2 ** 10, 2 ** 12, 2 ** 12] and best == 1


def test_non_integer_entries_refused():
    """Entries are integers or bools: floats, strings and objects are refused
    rather than truncated by the int16 cast or failing inside numpy."""
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 2]])
    for bad in ([[1.5, 2.9]], [[1.0, 2.0]], np.array([["1", "2"]]), [[1, None]]):
        for build in (ac.AdditiveCode.from_generators, ac.AdditiveCode.from_linear):
            with pytest.raises(FormatError, match="generator entries must be integers"):
                build(Q, bad)
        with pytest.raises(FormatError, match="must be integers"):
            C.contains_word(np.asarray(bad)[0])
    with pytest.raises(FormatError, match="preimage entries must be integers"):
        ac.AdditiveCode(Q, [[1.0, 0.0]])
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        assert ac.AdditiveCode.from_generators(Q, np.array([[1, 2]], dtype=dtype)) == C
        assert C.contains_word(np.array([1, 2], dtype=dtype))
    assert (ac.AdditiveCode.from_generators(Q, np.array([[True, False]]))
            == ac.AdditiveCode.from_generators(Q, [[1, 0]]))
    assert ac.AdditiveCode.from_generators(Q, np.empty((0, 2))) == ac.AdditiveCode.zero(Q, 2)
    assert ac.AdditiveCode(Q, np.empty((0, 4))) == ac.AdditiveCode.zero(Q, 2)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_limbs_pack_the_digits_of_every_multiple(q):
    """Packed row e*g + i, part c, holds at coordinate j the base-p digits of
    c * x^(e-1-i) times a_j and b_j, from the loop field, in w-bit fields,
    a_j first, coordinates bits apart from bit 0 of each limb."""
    F, L, n = field(q), loop_field(q), 13
    p, e = F.p, F.e
    rows = random_matrix(F, 3, 2 * n, np.random.default_rng(70 + q))
    T = linalg._codes(F)
    W = ac._pack(T, rows)
    w = 1 if p == 2 else p.bit_length() + 1
    bits = 2 * e * w + (p == 2)
    assert T.bits == bits and W.shape == (-(-n // (64 // bits)), 3 * e, p)
    for g, i, c in itertools.product(range(3), range(e), range(p)):
        limbs = [0] * len(W)
        for j in range(n):
            for half, v in enumerate((rows[g, j], rows[g, n + j])):
                x = L.mul(c * p ** (e - 1 - i), int(v))
                for l in range(e):
                    shift = bits * (j % (64 // bits)) + w * (half * e + l)
                    limbs[j // (64 // bits)] |= (x // p ** l % p) << shift
        assert W[:, e * g + i, c].tolist() == limbs


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_span_tables_hold_exactly_their_words(q):
    """A table of R packed F_p rows, first coefficient below `lead`, is an
    array of exactly lead * p^(R-1) words per limb (p^R without a lead), not
    a view of a larger one; word i is combination i in odometer order, last
    row fastest, summed in the loop field and packed."""
    F, L, n = field(q), loop_field(q), 40  # 40 coordinates: two limbs or more
    T, p, e = linalg._codes(F), F.p, F.e
    rng = np.random.default_rng(80 + q)
    rows = random_matrix(F, -(-4 // e), 2 * n, rng)
    W = ac._pack(T, rows)
    # F_p row e*g + i is x^(e-1-i) * g, x^i of index p^i
    vectors = [[L.mul(p ** (e - 1 - i), int(v)) for v in g]
               for g in rows for i in range(e)]
    for R, lead in itertools.product(range(5), (None, 2)):
        table = ac._span(T.wide_carry, W[:, :R], lead)
        combos = [cs for cs in itertools.product(range(p), repeat=R)
                  if not cs or cs[0] < (lead or p)]
        assert table.base is None and table.shape == (len(W), len(combos))
        for i, cs in enumerate(combos):
            word = [0] * (2 * n)
            for c, v in zip(cs, vectors):
                word = [L.add(x, L.mul(c, y)) for x, y in zip(word, v)]
            packed = ac._pack(T, np.array([word], dtype=np.int16))[:, e - 1, 1]
            assert table[:, i].tolist() == packed.tolist(), (R, lead, cs)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_scan_zero_outer_code(q):
    Q = quadratic_field(field(q))
    zero = ac.AdditiveCode.zero(Q, 3)
    assert_min_weight_matches_oracle(zero, zero, 4)
    assert ac._scan_preimage(Q.base, zero.preimage, 0) == (4, 0)
    assert_kernel_matches_oracle(Q, zero.preimage, 0, 4)


def test_min_weight_generator_bound():
    Q = field(9)
    rng = np.random.default_rng(55)
    for _ in range(20):
        C = random_additive_code(Q, 4, int(rng.integers(1, 5)), rng)
        bound = min(int((row != 0).sum()) for row in C.generators)
        assert ac.min_weight_excluding_detail(C).d <= bound


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
    for bad in ([0.9], [1.0], ["0"], [None]):
        with pytest.raises(IndexOutOfRange, match="must be integers"):
            ac.puncture(C, bad)
    for coords in ([np.int64(1)], np.array([1], dtype=np.uint8), range(1, 2)):
        assert ac.puncture(C, coords) == P


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


def test_unreadable_matrices_refused():
    """Input with no (m, n) reading is a FormatError from every constructor
    and from contains_word: an empty list (no column count), a 3-D array,
    ragged rows.  [[]], a (0, n) array and one 1-D row still read."""
    Q = field(4)
    C = ac.AdditiveCode.from_generators(Q, [[1, 2]])
    builds = (lambda rows: ac.AdditiveCode(Q, rows), C.contains_word,
              lambda rows: ac.AdditiveCode.from_generators(Q, rows),
              lambda rows: ac.AdditiveCode.from_linear(Q, rows))
    for bad, match in (([], r"shape \(0,\)"), ((), r"shape \(0,\)"),
                       (np.zeros((1, 2, 2), int), r"shape \(1, 2, 2\)"),
                       (np.zeros((1, 0, 2), int), "not an"), ([[1, 2], [3]], "ragged")):
        for build in builds:
            with pytest.raises(FormatError, match=match):
                build(bad)
    assert ac.AdditiveCode.from_generators(Q, [[]]) == ac.AdditiveCode.zero(Q, 0)
    assert ac.AdditiveCode.from_generators(Q, np.zeros((0, 3), int)) == ac.AdditiveCode.zero(Q, 3)
    assert ac.AdditiveCode.from_generators(Q, [1, 2]) == C and C.contains_word([1, 2])


def test_preimage_entries_range_checked():
    """The constructor refuses preimage entries outside [0, q), canonical
    (RREF) or not, instead of wrapping them through table lookups."""
    Q9 = field(9)
    assert ac.AdditiveCode(Q9, [[2, 0, 0, 1]]).m == 1
    for bad in ([[-1, 0, 0, 1]], [[1, 0, 0, 7]], [[1, 0, 0, 3]],
                [[0, 1, 7, 2], [1, 1, 0, 0]], [[1, 0, 0, 40000]]):
        with pytest.raises(FormatError, match=r"preimage entry outside GF\(3\)"):
            ac.AdditiveCode(Q9, bad)
    Q4 = field(4)
    with pytest.raises(FormatError, match=r"outside GF\(2\)"):
        ac.AdditiveCode(Q4, np.array([[1, 2]], dtype=np.int16))


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
    """Containment is one Gram product against the canonical basis: neither
    contains nor contains_word runs an elimination."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([61, q])
    outer, inner = (random_additive_code(Q, 3, m, rng) for m in (4, 2))
    fields = count_rref(monkeypatch)
    outer.contains(inner)
    outer.contains_word(inner.generators[0])
    assert fields == []


def greedy_extension(F, S, rows):
    """Oracle: the rows that extend the basis S, picked in order, each kept
    when it raises the rank of S and the rows kept before it."""
    picked, kept = S, []
    for row in rows:
        cand = np.vstack([picked, row.reshape(1, -1)])
        if linalg.rank(F, cand) > picked.shape[0]:
            picked = cand
            kept.append(row)
    return linalg.as_matrix(kept, cols=S.shape[1])


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_exclusion_basis_matches_greedy_loop(q, monkeypatch):
    """The exclusion basis is the outer rows the greedy extension of the
    excluded basis keeps, then the excluded basis, for the scans' pairs
    (dual, radical), (code, zero) and (code, code) and random subcodes; it
    eliminates only the excluded code's coordinates over the outer code."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([23, q])
    fields = count_rref(monkeypatch)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        code = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
        coeffs = random_matrix(Q.base, int(rng.integers(0, code.m + 1)), code.m, rng)
        sub = ac.AdditiveCode(Q, linalg.gram(Q.base, coeffs, code.preimage.T))
        for outer, excluded in ((ac.dual(code), ac.radical(code)),
                                (code, ac.AdditiveCode.zero(Q, n)), (code, code),
                                (code, sub)):
            del fields[:]
            got = ac._exclusion_basis(outer, excluded)
            assert fields == [Q.base]
            kept = greedy_extension(Q.base, excluded.preimage, outer.preimage)
            assert len(kept) == outer.m - excluded.m
            assert np.array_equal(got, np.vstack([kept, excluded.preimage]))


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
        inner = ac.AdditiveCode(Q, linalg.gram(Q.base, coeffs, outer.preimage.T))
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
            Q, random_matrix(Q, int(rng.integers(0, n + 1)), n, rng))
    else:
        C = random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)
    closed = all(C.contains_word(Q.mul_table[Q.beta, g]) for g in C.generators)
    assert (ac.AdditiveCode.from_linear(Q, C.generators) == C) == closed
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
