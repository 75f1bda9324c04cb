"""Additive codes over GF(q^2): duals, radicals, weights, puncturing.

An additive code of length n and size q^m is the F_q-span of m generators in
GF(q^2)^n.  A code holds the reduced row echelon form of its 2n-column
preimage under the basis map from :mod:`eaqecne.symplectic`, reducing any
other preimage it is given: its columns give n, its pivot entries give the
coordinates of a word, and two codes are equal exactly when they match.

There is one form: the trace-alternating form, which divides the
antisymmetrized Hermitian value sum_j u_j * conj(v_j) by beta^2 - beta^(2q)
and is the symplectic form on the preimage.  Duals and self-orthogonality
checks are a kernel and a Gram matrix on the preimage.  The radical comes
from one split, :func:`radical_decompose`: C ∩ C^⊥ (``dec.radical``, size
q^``dec.l``) and the 2c preimage rows ``dec.pairs`` of ``dec.c`` hyperbolic
pairs; ``dec.complement``, the code they span, is built when read.

A GF(q^2)-linear code is the additive code :meth:`AdditiveCode.from_linear`
spans with its generators g and beta*g.  Its Hermitian dual and radical are
its :func:`dual` and :func:`radical` under this form, and it is Hermitian
self-orthogonal or LCD exactly when :func:`is_self_orthogonal` or
:func:`is_acd` holds.  A GF(q^2) basis of it is
``linalg.row_basis(Q, code.generators)``.

Minimum weights weigh one word of each F_q^* orbit outside the excluded
subcode, (q^m - q^m')/(q - 1) words unless a weight <= 1 stops the scan, as
packed F_p digits of the preimage (phi is F_q-linear and keeps weight) in
the layout of ``linalg._codes``, a block one XOR of two small tables, the
first of at most 2^12 words; ``d`` is None when no word is left.  A
``budget`` caps all q^m - q^m' words.  The same scan in histogram mode
counts the weighed words by weight.  The EA distance, over C^⊥ outside the
radical, is :func:`ea_distance_detail`: C's weight distribution through the
MacWilliams transform of :mod:`eaqecne.enumerators` when m < n, else the
min-mode scan of C^⊥, the side with no more words to enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import (DEFAULT_BUDGET, AmbientMismatch, BudgetExceeded,
                     DimensionMismatch, FormatError, IndexOutOfRange,
                     PreconditionFailed)
from .gf import SUPPORTED_ORDERS, FieldSpec, quadratic_field
from . import enumerators, linalg, symplectic as sp

_CHUNK = 1 << 16   # words in a block
_SUFFIX = 1 << 12  # cap on its suffix table


def _field_entries(F: FieldSpec, rows, what: str = "generator") -> np.ndarray:
    """Rows as an index matrix, refusing input that is no matrix (ragged,
    3-D, or an empty list, which has no column count) and entries that are
    not integers or lie outside [0, F.order) before the int16 cast could
    truncate or wrap them."""
    try:
        W = np.asarray(rows)
    except ValueError as exc:
        raise FormatError(f"{what} rows are ragged") from exc
    if W.ndim > 2 or W.shape == (0,):
        raise FormatError(f"{what} rows of shape {W.shape} are not an (m, n) matrix")
    if W.size and W.dtype.kind not in "biu":
        raise FormatError(f"{what} entries must be integers, got dtype {W.dtype}")
    if ((W < 0) | (W >= F.order)).any():
        raise FormatError(f"{what} entry outside GF({F.order})")
    return linalg.as_matrix(W)


class AdditiveCode:
    """F_q-linear subgroup of GF(q^2)^n, canonicalized via its preimage,
    whose 2n columns give the length."""

    __slots__ = ("field", "n", "preimage")

    def __init__(self, field: FieldSpec, preimage):
        field._require_quadratic()
        P = _field_entries(field.base, preimage, "preimage")
        if P.shape[1] % 2:
            raise DimensionMismatch(f"preimage has an odd column count {P.shape[1]}")
        self.field = field
        self.n = P.shape[1] // 2
        self.preimage = P if linalg.is_rref(P) else linalg.row_basis(field.base, P)

    @classmethod
    def from_generators(cls, field: FieldSpec, gens) -> "AdditiveCode":
        """The F_q-span of the rows of a generator matrix, (0, n) for none."""
        return cls(field, sp.phi_inv(field, _field_entries(field, gens)))

    @classmethod
    def from_linear(cls, field: FieldSpec, gens) -> "AdditiveCode":
        """The GF(q^2)-linear span of the generators: the F_q-span of g and
        beta*g for each generator g."""
        field._require_quadratic()
        G = _field_entries(field, gens)
        return cls.from_generators(field, np.vstack([G, field.mul_table[field.beta, G]]))

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "AdditiveCode":
        return cls(field, linalg.empty_matrix(2 * n))

    @classmethod
    def full(cls, field: FieldSpec, n: int) -> "AdditiveCode":
        return cls(field, linalg.identity_matrix(2 * n))

    @property
    def generators(self) -> np.ndarray:
        """The canonical generators in GF(q^2)^n: phi of the preimage rows."""
        return sp.phi(self.field, self.preimage)

    @property
    def m(self) -> int:
        """Size exponent: |C| = q^m."""
        return self.preimage.shape[0]

    @property
    def base_field(self) -> FieldSpec:
        return self.field.base

    def contains(self, other: "AdditiveCode") -> bool:
        self._check_peer(other)
        return self._spans(other.preimage)

    def contains_word(self, w) -> bool:
        W = _field_entries(self.field, w)
        if W.shape[1] != self.n:
            raise AmbientMismatch(f"word has {W.shape[1]} coordinates, code {self.n}")
        return self._spans(sp.phi_inv(self.field, W))

    def _spans(self, rows: np.ndarray) -> bool:
        """The preimage rows lie in the code: each is its pivot entries times
        the canonical basis.  One product, no elimination."""
        B = self.preimage
        return np.array_equal(
            linalg.gram(self.base_field, rows[:, linalg.pivots(B)], B.T), rows)

    def _check_peer(self, other: "AdditiveCode"):
        if other.field is not self.field or other.n != self.n:
            raise DimensionMismatch("codes live in different ambient spaces")

    def __eq__(self, other):
        return (isinstance(other, AdditiveCode) and other.field is self.field
                and np.array_equal(other.preimage, self.preimage))

    def __hash__(self):
        return hash((id(self.field), self.n, self.preimage.tobytes()))

    def __repr__(self):
        return f"AdditiveCode(q2={self.field.order}, n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# duals, radicals, decomposition
# ---------------------------------------------------------------------------


def dual(code: AdditiveCode) -> AdditiveCode:
    """Symplectic dual: the kernel of the code's twisted preimage rows."""
    return AdditiveCode(code.field, sp.symp_dual(code.base_field, code.preimage))


@dataclass(frozen=True, eq=False)
class CodeDecomposition:
    """C = radical ⊕ span(pairs): the radical C ∩ C^⊥, of size q^l, and the
    preimage rows e1, f1, e2, f2, ... of c hyperbolic pairs."""

    radical: AdditiveCode
    pairs: np.ndarray

    @property
    def l(self) -> int:
        return self.radical.m

    @property
    def c(self) -> int:
        return len(self.pairs) // 2

    @property
    def complement(self) -> AdditiveCode:
        """The complementary-dual code the pairs span, built when read."""
        return AdditiveCode(self.radical.field, self.pairs)


def radical_decompose(code: AdditiveCode) -> CodeDecomposition:
    """The one split of C: symplectic Gram-Schmidt of its canonical preimage."""
    rad, pairs = sp.decompose(code.base_field, code.preimage)
    return CodeDecomposition(AdditiveCode(code.field, rad), pairs)


def radical(code: AdditiveCode) -> AdditiveCode:
    """C ∩ C^⊥, read off :func:`radical_decompose`."""
    return radical_decompose(code).radical


def self_orthogonality_witness(code: AdditiveCode):
    """First generator pair (i, j), i < j, with nonzero form value in
    row-major order, or None if self-orthogonal."""
    hits = np.argwhere(np.triu(sp.symp_gram(code.base_field, code.preimage)))
    return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None


def is_self_orthogonal(code: AdditiveCode) -> bool:
    return self_orthogonality_witness(code) is None


def is_acd(code: AdditiveCode) -> bool:
    return radical(code).m == 0


def is_dual_containing(code: AdditiveCode) -> bool:
    return code.contains(dual(code))


# ---------------------------------------------------------------------------
# minimum weight by exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinWeightResult:
    d: int | None      # None when no word lies outside the excluded code
    examined: int      # words weighed, one per F_q^* orbit


def _pack(T, rows: np.ndarray) -> np.ndarray:
    """The F_p-rows g * x^(e-1), ..., g * x^0 of each preimage row g in turn
    (x^i has index p^i), which span the rows' F_q-span, and their multiples
    c < p, as packed words of ``T = linalg._codes(F)``: (limbs, e * m, p)."""
    (e, p), n, per = T.limbs.shape[:2], rows.shape[1] // 2, len(T.place)
    L, C = -(-n // per), T.limbs[:, :, rows].astype(np.uint64)  # C[i, c, g, j]
    D = np.zeros((len(rows), e, p, L * per), dtype=np.uint64)
    D[..., :n] = (C[..., :n] | C[..., n:] << np.uint64(T.bits // 2)).transpose(2, 0, 1, 3)
    return (D.reshape(len(D) * e, p, L, per) @ T.place).transpose(2, 0, 1)


def _span(carry, rows: np.ndarray, lead: int | None = None) -> np.ndarray:
    """Every F_p-combination of packed rows in odometer order, last row
    fastest, with first-row coefficients below `lead` (default p), in a
    table of exactly that many words per limb: part c of the table of rows
    r, r+1, ... is the table of rows r+1, ... plus c times row r, added by
    ``linalg._add_codes`` with ``carry`` (``linalg._codes(F).wide_carry``)."""
    L, R, p = rows.shape
    out = np.zeros((L, (lead or p) * p ** R // p if R else 1), dtype=np.uint64)
    t = out if carry is None else np.empty_like(out)  # XOR takes no scratch
    k = 1
    for r in range(R - 1, -1, -1):
        c = lead if r == 0 and lead else p
        V = out[:, :c * k].reshape(L, c, k)
        linalg._add_codes(carry, V[:, :1], rows[:, r, 1:c, None], V[:, 1:],
                          t[:, :(c - 1) * k].reshape(L, c - 1, k))
        k *= c
    return out


def _scan_preimage(F: FieldSpec, rows: np.ndarray, excluded: int,
                   hist: np.ndarray | None = None):
    """Min weight over the F_q-span of preimage rows outside the span of the
    last `excluded` rows, weighing one word of each F_q^* orbit; returns
    (best, examined).  With ``hist``, an int64 array of n + 1 counts, each
    block's ``np.bincount`` of weights is added to it and no weight stops the
    scan: hist[w] gains the orbits of weight w.

    Block i is the q^s words of the last s rows (the largest q^s <= _CHUNK)
    plus word i of the others, in odometer order, last row fastest.  Block 0
    weighs the words of the last s rows whose first nonzero coefficient lies
    before the excluded rows: led within the suffix table ``suf``, the first
    (q^s1 - q^excluded)/(q - 1) of its words less the sum u of its s1 rows
    (they lead with -1), else those that lead with 1.  The other blocks
    weighed are i in [q^(j-s), 2q^(j-s)) for max(s, excluded) <= j < m,
    whose prefix words lead with 1.  Every other word is a multiple of one
    weighed no later, so the weights agree with a scan of every word, and no
    table needs the first row's x^(e-1), ..., x^1 parts or more than 0 and 1
    times its x^0 part.  The scan stops after a block with a weight <= 1.

    Word (a, b) of block i is suf[b] - c, c = neg[A i + a], a < A = q^s / |suf|:
    ``suf`` spans the last F_p rows, at most _SUFFIX words, and ``neg`` the
    negated rows above.  x - c is zero at j iff x_j = c_j, so words weigh
    like suf XOR c.  Limb l's top bits, shifted l mod ``bits`` down, miss
    its group's: one popcount counts them.  Every block runs with numpy's
    buffer at 2^12 elements, restored on return.
    """
    q, p, e, m = F.order, F.p, F.e, rows.shape[0]
    s = 0
    while s < m and q ** (s + 1) <= _CHUNK:
        s += 1
    cut = e * (m - s)
    while p ** (e * m - cut) > _SUFFIX:
        cut += 1
    T, cut = linalg._codes(F), max(cut, e - 1)
    W = _pack(T, rows)
    L, bits = len(W), T.bits
    suf = _span(T.wide_carry, W[:, cut:], 2 if cut < e else None)[:, None]
    neg = _span(T.wide_carry, W[:, e - 1:cut, -np.arange(p) % p], 2)[:, :, None]
    S, s1 = suf.shape[2], m - cut // e  # s1 rows have their x^0 part in suf
    A, u = q ** s // S if cut >= e else 1, suf[:, :, (q ** s1 - 1) // (q - 1), None]
    first = [(u, (q ** s1 - q ** excluded) // (q - 1))] * (excluded < s1) + [
        (neg[:, q ** j // S:2 * q ** j // S], S) for j in range(max(excluded, s1), s)]
    blocks = itertools.chain([first], (
        [(neg[:, A * i:A * (i + 1)], S)] for j in range(max(excluded, s), m)
        for i in range(q ** (j - s), 2 * q ** (j - s))))
    words = np.empty((L, A, S), dtype=np.uint64)
    best, examined = rows.shape[1] // 2 + 1, 0
    with np.errstate():
        np.setbufsize(1 << 12)  # else ufuncs copy rows shorter than a third of a buffer
        for block in blocks:
            for c, k in block:
                z = np.bitwise_xor(suf[:, :, :k], c, out=words[:, :c.shape[1], :k])
                z += T.low
                z &= T.top
                for l in range(1, L):
                    z[l - l % bits] |= np.right_shift(z[l], l % bits, out=z[l])
                pop = np.bitwise_count(z[::bits])
                weights = pop[0] if L <= bits else pop.sum(axis=0, dtype=np.uint32)
                examined += weights.size
                best = min(best, int(weights.min()))
                if hist is not None:
                    hist += np.bincount(weights.ravel(), minlength=len(hist))
            if best <= 1 and hist is None:
                break
    return best, examined


def _exclusion_basis(outer: AdditiveCode, excluded: AdditiveCode) -> np.ndarray:
    """A basis of `outer` whose trailing block is the basis of `excluded`.

    The rows of `outer` kept in front are those the greedy extension of
    `excluded` by them keeps: row i is dropped exactly when some excluded
    word has its last nonzero coordinate over `outer` at i, so the dropped
    rows are the pivots of the reversed l x m' coordinate matrix."""
    if not outer._spans(excluded.preimage):
        raise PreconditionFailed("excluded code is not contained in the outer code")
    coords = excluded.preimage[:, linalg.pivots(outer.preimage)]
    last = np.array(linalg.rref(outer.base_field, coords[:, ::-1])[2], dtype=np.intp)
    kept = np.delete(outer.preimage, outer.m - 1 - last, axis=0)
    return np.vstack([kept, excluded.preimage])


def _check_budget(required: int, budget: int) -> None:
    """Refuse a scan of `required` words before it starts when they are more
    than `budget`."""
    if required > budget:
        raise BudgetExceeded(required, budget)


def min_weight_excluding_detail(outer: AdditiveCode,
                                excluded: AdditiveCode | None = None, *,
                                budget: int = DEFAULT_BUDGET) -> MinWeightResult:
    """Minimum Hamming weight ``d`` over words of `outer` not in `excluded`
    (None: the zero code), the package's one minimum-weight scan.  An
    excluded code with no rows leaves the outer code's own rows to scan."""
    if excluded is not None:
        outer._check_peer(excluded)
    l = 0 if excluded is None else excluded.m
    rows = _exclusion_basis(outer, excluded) if l else outer.preimage
    q = outer.base_field.order
    required = q ** outer.m - q ** l
    if required == 0:
        return MinWeightResult(d=None, examined=0)
    _check_budget(required, budget)
    return MinWeightResult(*_scan_preimage(outer.base_field, rows, l))


def _weight_distribution(code: AdditiveCode) -> tuple[list[int], int]:
    """A_0, ..., A_n of the code and the words weighed: one histogram scan
    of one word per F_q^* orbit, A_w = (q - 1) hist[w] for w >= 1."""
    F, hist = code.base_field, np.zeros(code.n + 1, dtype=np.int64)
    examined = _scan_preimage(F, code.preimage, 0, hist)[1] if code.m else 0
    return [1] + [(F.order - 1) * int(h) for h in hist[1:]], examined


def ea_distance_detail(code: AdditiveCode, dec: CodeDecomposition, *,
                       budget: int = DEFAULT_BUDGET) -> MinWeightResult:
    """Minimum weight ``d`` over C^⊥ outside the radical ``dec.radical`` of
    C, from C's side when m < n and the dual's when m >= n, which is always
    the side with no more words to enumerate.  The dual's side is the
    q^(2n-m) - q^l words of C^⊥ outside the radical, scanned in min mode:
    at m = n they are q^n - q^l, none for a self-dual C.  The code's side is
    the q^m - 1 words of C plus the q^l - 1 of the radical when 0 < l < m,
    fewer than the dual's q^(2n-m) - q^l >= q^(m+2) - q^m when m < n: C^⊥
    is never built, the weight distribution of C goes through
    :func:`enumerators.dual_distribution`, and d = min{w >= 1 : A^⊥_w >
    A^rad_w}, the radical's counts taken from C's when l = m.  ``budget``
    caps the words of the side taken, and ``examined`` counts one word per
    F_q^* orbit of them."""
    q, n, m, l = code.base_field.order, code.n, code.m, dec.l
    if m >= n:
        return min_weight_excluding_detail(dual(code), dec.radical, budget=budget)
    _check_budget(q ** m - 1 + (q ** l - 1) * (0 < l < m), budget)
    A, examined = _weight_distribution(code)
    R, more = (A, 0) if l == m else _weight_distribution(dec.radical)
    D = enumerators.dual_distribution(A, q, m)
    d = next((w for w in range(1, n + 1) if D[w] > R[w]), None)
    return MinWeightResult(d=d, examined=examined + more)


# ---------------------------------------------------------------------------
# puncturing
# ---------------------------------------------------------------------------


def puncture(code: AdditiveCode, coords) -> AdditiveCode:
    """Delete the 0-based coordinates and re-canonicalize: phi acts on each
    coordinate alone, so this keeps preimage columns j and n + j for each
    kept j."""
    try:
        drop = {index(c) for c in coords}
    except TypeError as exc:
        raise IndexOutOfRange(f"coordinates must be integers: {exc}") from exc
    for c in sorted(drop):
        if not 0 <= c < code.n:
            raise IndexOutOfRange(f"coordinate {c} outside [0, {code.n})")
    keep = [j for j in range(code.n) if j not in drop]
    cols = keep + [code.n + j for j in keep]
    return AdditiveCode(code.field, code.preimage[:, cols])


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


def dump_code(code: AdditiveCode) -> str:
    header = f"code q2={code.field.order} n={code.n} m={code.m}"
    return linalg.dump_matrix(code.field, code.generators, comments=(header,))


def _code_from_matrix(F: FieldSpec, M: np.ndarray, symplectic: bool) -> AdditiveCode:
    if symplectic:
        if F.order not in SUPPORTED_ORDERS:
            raise FormatError(
                f"symplectic input needs a base-field order from "
                f"{SUPPORTED_ORDERS}, got {F.order}")
        if M.shape[1] % 2:
            raise FormatError("symplectic input needs an even column count")
        return AdditiveCode(quadratic_field(F), M)
    if not F.is_quadratic:
        raise FormatError(
            f"code files need a quadratic-extension order, got {F.order}; "
            "pass --symplectic for base-field preimage matrices")
    return AdditiveCode.from_generators(F, M)


def parse_code(text: str, symplectic: bool = False) -> AdditiveCode:
    """A code from the matrix text format: generators over GF(q^2), or with
    ``symplectic`` a base-field preimage matrix with 2n columns."""
    return _code_from_matrix(*linalg.parse_matrix(text), symplectic)


def load_code(path, symplectic: bool = False) -> AdditiveCode:
    """Read a code file; see :func:`parse_code`."""
    return _code_from_matrix(*linalg.load_matrix(path), symplectic)
