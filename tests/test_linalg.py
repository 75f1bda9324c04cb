"""Row reduction, kernels, subspace lattice ops, and the matrix file format."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eaqecne.errors import AmbientMismatch, FormatError
from eaqecne.gf import field
from eaqecne import linalg, symplectic as sp

from oracles import (ORDERS, loop_field, loop_kernel, loop_rref, random_matrix,
                     scalar_dot, subspace_contains, subspace_eq,
                     subspace_intersect, subspace_sum, two_pass_kernel)

@st.composite
def field_matrices(draw):
    """A matrix over one of the 12 fields, wide or tall, with zero rows and
    combinations of its other rows mixed in."""
    F = field(draw(st.sampled_from(ORDERS)))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    M = draw(hnp.arrays(np.int16, (rows, cols),
                        elements=st.integers(0, F.order - 1)))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = (draw(st.integers(0, F.order - 1)) for _ in range(2))
        combo = F.add_table[F.mul_table[a, M[i]], F.mul_table[b, M[j]]]
        M = np.insert(M, draw(st.integers(0, M.shape[0])), combo, axis=0)
    return F, M


def enumerate_rowspace(F, basis):
    """Oracle: all span vectors as a set of tuples, built from scalar ops."""
    basis = linalg.as_matrix(basis)
    n = basis.shape[1]
    out = set()
    for coeffs in itertools.product(range(F.order), repeat=basis.shape[0]):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            for j in range(n):
                v[j] = F.add(v[j], F.mul(c, int(row[j])))
        out.add(tuple(v))
    return out if out else {tuple([0] * n)}


def test_rref_identity_and_zero():
    F = field(5)
    I = linalg.identity_matrix(4)
    R, rk, piv = linalg.rref(F, I)
    assert np.array_equal(R, I) and rk == 4 and piv == (0, 1, 2, 3)
    Z = np.zeros((3, 4), dtype=int)
    R, rk, piv = linalg.rref(F, Z)
    assert rk == 0 and piv == ()
    assert not R.any()


def test_rref_gf3_rank_drop():
    # det(1 2; 2 1) = -3 = 0 mod 3, so rank 1 with row space spanned by (1,2)
    F = field(3)
    R, rk, _ = linalg.rref(F, [[1, 2], [2, 1]])
    assert rk == 1
    assert np.array_equal(R[0], [1, 2])
    assert (2 * np.array([1, 2]) % 3 == np.array([2, 1])).all()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rref_idempotent_random(q):
    F = field(q)
    rng = np.random.default_rng(7)
    for _ in range(50):
        M = random_matrix(F, int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        R, _, _ = linalg.rref(F, M)
        R2, _, _ = linalg.rref(F, R)
        assert np.array_equal(R, R2)


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_rref_matches_row_loop(case):
    F, M = case
    R, rk, piv = linalg.rref(F, M)
    R0, rk0, piv0 = loop_rref(F, M)
    assert R.dtype == R0.dtype and np.array_equal(R, R0)
    assert (rk, piv) == (rk0, piv0)


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_kernel_laws(case):
    F, M = case
    K = linalg.kernel(F, M)
    assert np.array_equal(K, loop_kernel(F, M))
    assert linalg.rank(F, M) + K.shape[0] == M.shape[1]
    assert not linalg.gram(F, M, K).any()


@settings(max_examples=300, deadline=None)
@given(field_matrices(), st.data())
def test_kernel_matches_two_pass_construction(case, data):
    """One elimination of the reversed columns gives the canonical kernel
    basis that row-reducing the null vectors of the RREF gives, also with
    zero columns and combinations of other columns mixed in."""
    F, M = case
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = (data.draw(st.integers(0, M.shape[1] - 1)) for _ in range(2))
        a, b = (data.draw(st.integers(0, F.order - 1)) for _ in range(2))
        col = F.add_table[F.mul_table[a, M[:, i]], F.mul_table[b, M[:, j]]]
        M = np.insert(M, data.draw(st.integers(0, M.shape[1])), col, axis=1)
    K = linalg.kernel(F, M)
    assert K.dtype == np.int16 and K.flags.c_contiguous
    assert np.array_equal(K, two_pass_kernel(F, M))
    assert linalg.is_rref(K)


def test_kernel_identity_zero():
    F = field(3)
    assert linalg.kernel(F, linalg.identity_matrix(3)).shape == (0, 3)
    K = linalg.kernel(F, np.zeros((1, 4), dtype=int))
    assert K.shape == (4, 4)


def test_kernel_gf2_example():
    F = field(2)
    K = linalg.kernel(F, [[1, 1, 0]])
    assert K.shape[0] == 2
    # oracle: every vector of F_2^3 with x0+x1 = 0
    expect = {v for v in itertools.product(range(2), repeat=3) if (v[0] + v[1]) % 2 == 0}
    assert enumerate_rowspace(F, K) == expect


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_nullity(q):
    F = field(q)
    rng = np.random.default_rng(11)
    for _ in range(200):
        r, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        M = random_matrix(F, r, n, rng)
        assert linalg.rank(F, M) + linalg.kernel(F, M).shape[0] == n
        # kernel rows really annihilate M
        for x in linalg.kernel(F, M):
            for row in M:
                assert scalar_dot(F, row, x) == 0


def test_intersect_self_and_explicit():
    F = field(2)
    A = linalg.row_basis(F, [[1, 0, 0], [0, 1, 0]])
    assert np.array_equal(subspace_intersect(F, A, A), A)
    B = linalg.row_basis(F, [[0, 1, 0], [0, 0, 1]])
    got = subspace_intersect(F, A, B)
    assert enumerate_rowspace(F, got) == {(0, 0, 0), (0, 1, 0)}


def test_modular_law_gf3():
    F = field(3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        A = linalg.row_basis(F, random_matrix(F, int(rng.integers(0, 5)), 6, rng))
        B = linalg.row_basis(F, random_matrix(F, int(rng.integers(0, 5)), 6, rng))
        s = subspace_sum(F, A, B).shape[0]
        i = subspace_intersect(F, A, B).shape[0]
        assert s + i == A.shape[0] + B.shape[0]


def test_contains_and_eq():
    F = field(3)
    A = [[1, 0, 2], [0, 1, 1]]
    assert subspace_contains(F, A, [[1, 1, 0]])  # (1,0,2)+(0,1,1)
    assert not subspace_contains(F, [[1, 1, 0]], A)
    assert subspace_eq(F, A, [[2, 0, 1], [0, 2, 2]])


def test_ambient_mismatch():
    F = field(2)
    with pytest.raises(AmbientMismatch):
        linalg.gram(F, [[1, 0]], [[1, 0, 0]])


def test_gram_trivial_cases():
    F = field(3)
    assert linalg.gram(F, linalg.empty_matrix(4), linalg.identity_matrix(4)).shape == (0, 4)
    assert linalg.gram(F, linalg.empty_matrix(0), linalg.empty_matrix(0)).shape == (0, 0)
    I = linalg.identity_matrix(4)
    assert np.array_equal(linalg.gram(F, I, I), I)
    with pytest.raises(AmbientMismatch):
        linalg.gram(F, I, linalg.identity_matrix(3))


def test_rows_without_columns_keep_their_rows():
    F = field(3)
    A = np.zeros((3, 0), dtype=np.int16)
    assert linalg.as_matrix(A).shape == (3, 0)
    assert linalg.as_matrix([[], []]).shape == (2, 0)
    assert linalg.as_matrix([], cols=4).shape == (0, 4)
    G = linalg.gram(F, A, np.zeros((4, 0), dtype=np.int16))
    assert G.shape == (3, 4) and not G.any()


def test_scalar_is_one_by_one_matrix():
    F = field(9)
    assert linalg.as_matrix(5).shape == (1, 1)
    assert linalg.gram(F, 5, 5).tolist() == [[F.mul(5, 5)]]
    assert linalg.rank(F, 2) == 1
    assert linalg.rank(F, 0) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 81])
def test_gram_matches_scalar_dot(q):
    F = field(q)
    rng = np.random.default_rng(5 + q)
    for _ in range(10):
        r, s = (int(v) for v in rng.integers(0, 5, size=2))
        n = int(rng.integers(1, 6))
        A = random_matrix(F, r, n, rng)
        B = random_matrix(F, s, n, rng)
        G = linalg.gram(F, A, B)
        assert G.shape == (r, s)
        for i in range(r):
            for j in range(s):
                assert G[i, j] == scalar_dot(F, A[i], B[j])


@st.composite
def gram_operands(draw):
    """Two matrices over one of the 12 fields with a shared column count,
    any of the three sizes possibly zero."""
    F = field(draw(st.sampled_from(ORDERS)))
    r, s, n = (draw(st.integers(0, top)) for top in (40, 40, 70))
    A, B = (draw(hnp.arrays(np.int16, shape, elements=st.integers(0, F.order - 1)))
            for shape in ((r, n), (s, n)))
    return F, A, B


@settings(max_examples=60, deadline=None)
@given(gram_operands())
def test_gram_matches_scalar_dot_any_shape(case):
    F, A, B = case
    G = linalg.gram(F, A, B)
    assert G.dtype == np.int16 and G.shape == (A.shape[0], B.shape[0])
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            assert G[i, j] == scalar_dot(F, a, b)


@pytest.mark.parametrize("q", ORDERS)
@pytest.mark.parametrize("r, s, n", [(0, 0, 0), (0, 0, 5), (0, 3, 5), (4, 0, 5),
                                     (4, 3, 0)])
def test_gram_empty_shapes(q, r, s, n):
    F = field(q)
    G = linalg.gram(F, np.ones((r, n), dtype=np.int16), np.ones((s, n), dtype=np.int16))
    assert G.dtype == np.int16 and G.shape == (r, s) and not G.any()


@pytest.mark.parametrize("q", ORDERS)
def test_gram_exact_at_largest_sums(q):
    """Rows whose every F_p digit is p - 1 (the element q - 1) give the
    largest digit-plane sums; at n = 4096 they still match the scalar dot."""
    F = field(q)
    n = 4096
    rng = np.random.default_rng(41 + q)
    A = np.full((2, n), q - 1, dtype=np.int16)
    B = np.vstack([np.full((2, n), q - 1, dtype=np.int16), random_matrix(F, 1, n, rng)])
    G = linalg.gram(F, A, B)
    assert G.dtype == np.int16 and G.shape == (2, 3)
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            assert G[i, j] == scalar_dot(F, a, b)


@pytest.mark.parametrize("q", ORDERS)
def test_rref_matches_row_loop_wide(q):
    F = field(q)
    rng = np.random.default_rng(29 + q)
    for _ in range(3):
        rows, cols = int(rng.integers(1, 31)), int(rng.integers(31, 121))
        M = random_matrix(F, rows, cols, rng)
        M[rng.integers(0, rows)] = M[rng.integers(0, rows)]
        R, rk, piv = linalg.rref(F, M)
        R0, rk0, piv0 = loop_rref(F, M)
        assert R.dtype == R0.dtype and np.array_equal(R, R0)
        assert (rk, piv) == (rk0, piv0)


@pytest.mark.parametrize("q", ORDERS)
def test_sub_multiples_matches_scalar_ops(q):
    """The in-place code update of rref and decompose: M and the row
    encoded, updated, decoded equal M - coeffs * row entrywise, whatever
    the scratch buffer held."""
    F = field(q)
    T = linalg._codes(F)
    dec = np.arange(q, dtype=np.int16) if T.dec is None else T.dec
    rng = np.random.default_rng(31 + q)
    # the last cases update M[:, c:] by its first column, a strided view, as
    # rref does
    for rows, cols, c in ((0, 4, 0), (5, 0, 0), (6, 9, 0), (q + 1, 3, 0),
                          (7, 12, 1), (7, 12, 5), (7, 12, 11)):
        A = random_matrix(F, rows, cols, rng)
        coeffs = A[:, c] if c else random_matrix(F, 1, rows, rng)[0]
        row = random_matrix(F, 1, cols - c, rng)[0]
        codes = T.enc.take(A)
        M = codes[:, c:]
        t = rng.integers(-2 ** 15, 2 ** 15, size=M.shape).astype(np.int16)
        assert linalg._sub_multiples(T, M, coeffs, T.enc.take(row), t) is M
        got = dec.take(codes)
        assert got.dtype == np.int16 and np.array_equal(got[:, :c], A[:, :c])
        for i in range(rows):
            for j in range(cols - c):
                assert got[i, c + j] == F.sub(int(A[i, c + j]),
                                              F.mul(int(coeffs[i]), int(row[j])))


@settings(max_examples=300, deadline=None)
@given(field_matrices(), st.data())
def test_is_rref_exactly_when_row_basis_is_identity(case, data):
    """is_rref holds on every canonical basis and on nothing else, also one
    entry away from a canonical basis."""
    F, M = case
    R = linalg.row_basis(F, M)
    assert linalg.is_rref(R)
    assert tuple(linalg.pivots(R).tolist()) == linalg.rref(F, M)[2]
    if R.size:
        R = R.copy()
        i, j = (data.draw(st.integers(0, k - 1)) for k in R.shape)
        R[i, j] = data.draw(st.integers(0, F.order - 1))
    for A in (M, R):
        assert linalg.is_rref(A) == np.array_equal(linalg.row_basis(F, A), A)


def test_is_rref_shapes():
    assert linalg.is_rref(linalg.empty_matrix(4))
    assert linalg.is_rref(linalg.empty_matrix(0))
    assert not linalg.is_rref(np.zeros((2, 0), dtype=np.int16))
    assert not linalg.is_rref(np.array([[1, 2], [0, 1]], dtype=np.int16))
    assert not linalg.is_rref(np.array([[0, 1], [1, 0]], dtype=np.int16))
    assert not linalg.is_rref(np.array([[2, 0]], dtype=np.int16))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_double_complement_nondegenerate(q):
    F = field(q)
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(1, 4)) * 2
        S = linalg.row_basis(F, random_matrix(F, int(rng.integers(0, n + 1)), n, rng))
        assert subspace_eq(F, sp.symp_dual(F, sp.symp_dual(F, S)), S)


def test_matrix_format_round_trip():
    F = field(9)
    M = np.array([[0, 3, 8], [1, 2, 4]])
    text = linalg.dump_matrix(F, M, comments=("code q2=9 n=3 m=2",))
    F2, M2 = linalg.parse_matrix(text)
    assert F2 is F
    assert np.array_equal(M, M2)


def test_matrix_format_ignores_noise():
    text = "# header\n\n  2 2 3\n1 0 1\n\n# trailing\n0 1 1\n"
    F, M = linalg.parse_matrix(text)
    assert F.order == 2 and M.shape == (2, 3)


BAD_TEXTS = [
    "",
    "2 2\n1 0\n0 1\n",
    "6 1 1\n0\n",
    "2 2 2\n1 0\n",
    "2 1 2\n1 5\n",
    "2 1 2\nx y\n",
    "4 0 -2\n",
    "4 -1 2\n",
]


@pytest.mark.parametrize("bad", BAD_TEXTS)
def test_matrix_format_errors(bad):
    with pytest.raises(FormatError):
        linalg.parse_matrix(bad)


BAD_ENTRIES = [
    ("3 3 2\n1 2\n0 1\n2 3\n", "row 2: entry 3 outside [0, 3)"),
    ("3 3 2\n1 2\n0 1\n2 -1\n", "row 2: entry -1 outside [0, 3)"),
    ("3 3 2\n1 2\n0 x\n2 9\n", "row 1: bad entry 'x'"),
    ("3 3 2\n1 2\n0 9\n2 x\n", "row 1: entry 9 outside [0, 3)"),
    ("3 3 2\n1 2\n0 1 2\n2 x\n", "row 1: expected 2 entries, got 3"),
    ("3 3 2\n1 2\n0 x\n2\n", "row 1: bad entry 'x'"),
    ("3 2 2\n1 0 1\n2\n", "row 0: expected 2 entries, got 3"),
    ("3 2 2\n1 2\n0 99999999999999999999999\n",
     "row 1: entry 99999999999999999999999 outside [0, 3)"),
    ("3 2 2\n1 2\n0 1.0\n", "row 1: bad entry '1.0'"),
]


@pytest.mark.parametrize("bad, message", BAD_ENTRIES)
def test_matrix_format_first_bad_entry(bad, message):
    # the first offending row and token in reading order, after good rows
    with pytest.raises(FormatError) as info:
        linalg.parse_matrix(bad)
    assert str(info.value) == message


INT_SPELLINGS = "16 2 3\n+3 1_0 08\n0 -0 15\n"


def test_matrix_format_accepts_int_spellings():
    # whatever int() reads is an entry: signs, underscores, leading zeros
    F, M = linalg.parse_matrix(INT_SPELLINGS)
    assert F.order == 16 and M.dtype == np.int16
    assert M.tolist() == [[3, 10, 8], [0, 0, 15]]


def parse_outcome(text):
    """What parse_matrix makes of `text`: the field order and the matrix's
    dtype, shape and entries, or the FormatError message."""
    try:
        F, M = linalg.parse_matrix(text)
    except FormatError as exc:
        return str(exc)
    return F.order, M.dtype, M.shape, M.tolist()


# text the fast path must refuse or range-check: np.fromstring reads "1 -"
# as [1, 0] and clamps an entry past int64 to INT64_MAX
ODD_TEXTS = [
    "3 1 2\n1 -\n", "3 1 2\n1 2 -\n", "3 1 2\n- 1\n", "3 1 2\n1\t2\n",
    "3 1 2\n1 \t  2\n", "3 2 2\n1 2\n0 18446744073709551619\n",
    "3 1 2\n0 9223372036854775807\n", "3 1 2\n1 2 junk\n", "3 1 2\n1 2x\n",
    "3 1 2\n1 0x2\n", "3 1 2\n1 2e0\n", "3 1 2\n1 ２\n", "3 1 2\n1 inf\n",
    "3 2 1\n1\n1 2\n", "3 1 0\n1\n", "3 2 0\n\n", "9 0 3\n", "9 1 2\n00 08\n",
]


@pytest.mark.parametrize("text", [INT_SPELLINGS, *BAD_TEXTS, *ODD_TEXTS,
                                  *(bad for bad, _ in BAD_ENTRIES)])
def test_matrix_fast_path_reads_as_the_row_loop(text, monkeypatch):
    """Every bad and odd spelling reads the same with the fast path forced
    off (a pattern that matches nothing)."""
    fast = parse_outcome(text)
    monkeypatch.setattr(linalg, "_PLAIN", re.compile("(?!)"))
    assert parse_outcome(text) == fast


@pytest.mark.parametrize("q", ORDERS)
def test_matrix_fast_path_matches_the_row_loop_on_random_matrices(q, monkeypatch):
    F, rng = field(q), np.random.default_rng(50 + q)
    reads, fromstring = [], np.fromstring

    def counted(*args, **kwargs):
        reads.append(1)
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", counted)
    texts = []
    for rows, cols in ((1, 1), (3, 7), (20, 40), (9, 1)):
        text = linalg.dump_matrix(F, random_matrix(F, rows, cols, rng))
        texts += [text, text.replace(" ", "\t"), text.replace(" ", "  \t ")]
    fast = [parse_outcome(t) for t in texts]
    assert len(reads) == len(texts)
    monkeypatch.setattr(linalg, "_PLAIN", re.compile("(?!)"))
    assert [parse_outcome(t) for t in texts] == fast
    assert len(reads) == len(texts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS), st.integers(0, 6), st.integers(0, 6), st.data())
def test_matrix_format_round_trips_every_shape(q, rows, cols, data):
    """dump then parse gives the matrix back, r x 0, 0 x c and 0 x 0 too."""
    F = field(q)
    M = data.draw(hnp.arrays(np.int16, (rows, cols), elements=st.integers(0, q - 1)))
    F2, M2 = linalg.parse_matrix(linalg.dump_matrix(F, M))
    assert F2 is F and M2.dtype == np.int16 and M2.shape == M.shape
    assert np.array_equal(M2, M)


@pytest.mark.parametrize("q", ORDERS)
def test_code_tables_against_the_loop_field(q):
    """Exhaustively: the reduced code(a) + nme[code(b), c] decodes to a - c*b,
    div[a, code(b)] to b / a and limbs[i, c, b] to c * x^(e-1-i) * b; a code
    holds the base-p digits in w-bit fields."""
    F, L = field(q), loop_field(q)
    T, p, e = linalg._codes(F), F.p, F.e
    w = 1 if p == 2 else p.bit_length() + 1
    dec = (lambda X: X) if T.dec is None else T.dec.__getitem__
    x = np.arange(q)
    assert T.enc.tolist() == [sum(a // p ** i % p << w * i for i in range(e)) for a in x]
    assert np.array_equal(dec(T.enc), x)
    a, b, c = np.meshgrid(x, x, x, indexing="ij")
    M = T.enc[a]
    linalg._add_codes(T.carry, M, T.nme[T.enc[b], c], M, np.empty_like(M))
    assert np.array_equal(dec(M), L.sub_table[a, L.mul_table[c, b]])
    assert np.array_equal(dec(T.div[1:][:, T.enc]), L.mul_table[L.inv_table[1:]])
    scale = np.arange(p) * p ** np.arange(e)[::-1, None]
    assert np.array_equal(dec(T.limbs), L.mul_table[scale])


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_rref_reads_views_and_any_int_dtype_without_mutating(case):
    """The kernel's reversed columns, a transposed view and int64 or uint8
    entries row-reduce as the row loop does, and the argument is untouched."""
    F, M = case
    for X in (M[:, ::-1], M.T, M.astype(np.int64), M.astype(np.uint8), M[::2, 1:]):
        before = X.copy()
        R, rk, piv = linalg.rref(F, X)
        R0, rk0, piv0 = loop_rref(F, X)
        assert R.dtype == R0.dtype and np.array_equal(R, R0)
        assert (rk, piv) == (rk0, piv0)
        assert X.dtype == before.dtype and np.array_equal(X, before)
