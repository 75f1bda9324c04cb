"""Additive codes over GF(q^2): duals, radicals, weights, puncturing.

An additive code of length n and size q^m is the F_q-span of m generators in
GF(q^2)^n.  A code holds the reduced row echelon form of its 2n-column
preimage under the basis map from :mod:`eaqecne.symplectic`, reducing any
other preimage it is given, so two codes are equal exactly when their
preimages match.

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

Minimum weights scan all q^m - q^m' words outside the excluded subcode (the
count a ``budget`` caps) as packed F_p digits of the preimage, since phi is
F_q-linear and preserves weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AmbientMismatch, BudgetExceeded, DimensionMismatch,
                     FormatError, IndexOutOfRange, PreconditionFailed)
from .gf import SUPPORTED_ORDERS, FieldSpec, quadratic_field
from . import linalg, symplectic as sp

DEFAULT_BUDGET = 1 << 30
_CHUNK = 1 << 16


def _field_entries(Q: FieldSpec, words, cols: int | None = None) -> np.ndarray:
    """Words as an index matrix; table lookups would wrap entries below 0."""
    W = np.asarray(words)
    if ((W < 0) | (W >= Q.order)).any():
        raise FormatError(f"generator entry outside GF({Q.order})")
    return linalg.as_matrix(W, cols=cols)


class AdditiveCode:
    """F_q-linear subgroup of GF(q^2)^n, canonicalized via its preimage."""

    __slots__ = ("field", "n", "preimage")

    def __init__(self, field: FieldSpec, n: int, preimage):
        field._require_quadratic()
        P = linalg.as_matrix(preimage)
        if P.shape[1] != 2 * n:
            raise DimensionMismatch(
                f"preimage has {P.shape[1]} columns, expected {2 * n}")
        self.field = field
        self.n = n
        self.preimage = P if linalg.is_rref(P) else linalg.row_basis(field.base, P)

    @classmethod
    def from_preimage(cls, field: FieldSpec, preimage) -> "AdditiveCode":
        return cls(field, np.shape(preimage)[-1] // 2, preimage)

    @classmethod
    def from_generators(cls, field: FieldSpec, gens, n: int | None = None) -> "AdditiveCode":
        G = _field_entries(field, gens, cols=n)
        return cls.from_preimage(field, sp.phi_inv(field, G))

    @classmethod
    def from_linear(cls, field: FieldSpec, gens, n: int | None = None) -> "AdditiveCode":
        """The GF(q^2)-linear span of the generators: the F_q-span of g and
        beta*g for each generator g."""
        field._require_quadratic()
        G = _field_entries(field, gens, cols=n)
        return cls.from_generators(
            field, np.vstack([G, field.mul_table[field.beta, G]]), n=G.shape[1])

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "AdditiveCode":
        return cls(field, n, linalg.empty_matrix(2 * n))

    @classmethod
    def full(cls, field: FieldSpec, n: int) -> "AdditiveCode":
        return cls(field, n, linalg.identity_matrix(2 * n))

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
        """The preimage rows lie in the code: stacked under its basis they
        leave the rank at m.  One elimination."""
        return linalg.rank(self.base_field, np.vstack([self.preimage, rows])) == self.m

    def _check_peer(self, other: "AdditiveCode"):
        if other.field is not self.field or other.n != self.n:
            raise DimensionMismatch("codes live in different ambient spaces")

    def __eq__(self, other):
        return (isinstance(other, AdditiveCode) and other.field is self.field
                and other.n == self.n
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
    return AdditiveCode(code.field, code.n,
                        sp.symp_dual(code.base_field, code.preimage))


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
        return AdditiveCode.from_preimage(self.radical.field, self.pairs)


def radical_decompose(code: AdditiveCode) -> CodeDecomposition:
    """The one split of C: symplectic Gram-Schmidt of its canonical preimage."""
    rad, pairs = sp.decompose(code.base_field, code.preimage)
    return CodeDecomposition(AdditiveCode(code.field, code.n, rad), pairs)


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
    weight: int        # ambient length + 1 means "undefined" (empty word set)
    examined: int

    def distance(self, n: int) -> int | None:
        """The weight as a distance on length n; None when no word was left."""
        return None if self.weight > n else self.weight


class _Limbs:
    """Multiples c * v, c < p, of the F_p-rows v that span the F_q-span of
    preimage rows g: g * x^(e-1), ..., g * x^0 for each g in turn (x^i has
    index p^i), packed into uint64 limbs as ``rows`` (limbs, e * m, p).

    Coordinate j holds the 2e base-p digits of (a_j | b_j), a_j first, in
    adjacent w-bit fields and never straddles two limbs.  For p = 2 a field
    is one bit, addition is XOR and a coordinate has a spare top bit.  For
    odd p a field has a guard bit above its value: a field sum s >= p
    carries s + 2^(w-1) - p into it, which then subtracts p.  The top bit
    of a coordinate is zero in reduced words, so adding all ones below it
    carries into it exactly when the coordinate is nonzero.
    """

    def __init__(self, F: FieldSpec, rows: np.ndarray):
        p, e, n = F.p, F.e, rows.shape[1] // 2
        self.p, self.w = p, 1 if p == 2 else p.bit_length() + 1
        bits = 2 * e * self.w + (p == 2)
        per = 64 // bits
        self.limbs = L = -(-n // per)
        every = lambda step, v: np.uint64(sum(v << b for b in range(0, per * bits, step)))
        self.top = every(bits, 1 << (bits - 1))
        self.low = every(bits, (1 << (bits - 1)) - 1)
        if p > 2:
            self.guard = every(self.w, 1 << (self.w - 1))
            self.bias = every(self.w, (1 << (self.w - 1)) - p)
        digits = F.mul_matrix_table[::-1][:, rows].transpose(1, 0, 2, 3)  # (m, e, 2n, e)
        digits = digits.reshape(len(rows) * e, 1, 2, n, e).transpose(0, 1, 3, 2, 4)
        D = np.zeros((len(digits), p, L * per, 2, e), dtype=np.uint64)
        D[:, :, :n] = digits * np.arange(p)[:, None, None, None] % p
        shifts = (np.arange(per)[:, None] * bits + np.arange(2 * e) * self.w).ravel()
        packed = D.reshape(len(D), p, L, per * 2 * e) << shifts.astype(np.uint64)
        self.rows = packed.sum(axis=-1).transpose(2, 0, 1)

    def span(self, rows: np.ndarray) -> np.ndarray:
        """Every F_p-combination of packed rows in odometer order, last row
        fastest: part c of the table of rows r, r+1, ... is the table of
        rows r+1, ... plus c times row r."""
        p, L = self.p, self.limbs
        T = np.zeros((L, p ** rows.shape[1]), dtype=np.uint64)
        carry = np.empty_like(T)
        k = 1
        for r in range(rows.shape[1] - 1, -1, -1):
            V = T[:, :p * k].reshape(L, p, k)
            x, y, out = V[:, :1], rows[:, r, 1:, None], V[:, 1:]
            if p == 2:
                np.bitwise_xor(x, y, out=out)
            else:
                t = np.add(np.add(x, y, out=out), self.bias,
                           out=carry[:, :(p - 1) * k].reshape(L, p - 1, k))
                t &= self.guard
                t >>= np.uint64(self.w - 1)
                t *= np.uint64(p)
                out -= t
            k *= p
        return T


def _scan_preimage(F: FieldSpec, rows: np.ndarray, skip_below: int):
    """Min weight over the F_q-span of preimage rows, skipping odometer
    indices below `skip_below`; returns (best, examined).

    Block i is the q^s words of the last s rows (the largest q^s <= _CHUNK)
    plus prefix word i of the others.  The scan stops after the first block
    with a word of weight <= 1.  Coordinate j of x + c vanishes exactly
    when x_j = -c_j, so a block's weights are those of suffix XOR -c.
    """
    q, e, m = F.order, F.e, rows.shape[0]
    s = 0
    while s < m and q ** (s + 1) <= _CHUNK:
        s += 1
    W = _Limbs(F, rows)
    suffix = W.span(W.rows[:, e * (m - s):])
    negated = W.span(W.rows[:, :e * (m - s), -np.arange(W.p) % W.p])
    size = suffix.shape[1]
    words, counts = np.empty_like(suffix), np.empty(suffix.shape, dtype=np.uint8)
    best, examined = rows.shape[1] // 2 + 1, 0
    for i in range(skip_below // size, negated.shape[1]):
        k = max(skip_below - i * size, 0)
        z = np.bitwise_xor(suffix[:, k:], negated[:, i, None], out=words[:, k:])
        z += W.low
        z &= W.top
        c = np.bitwise_count(z, out=counts[:, k:])
        weights = c[0] if W.limbs == 1 else c.sum(axis=0, dtype=np.uint32)
        examined += weights.size
        best = min(best, int(weights.min()))
        if best <= 1:
            break
    return best, examined


def _exclusion_basis(outer: AdditiveCode, excluded: AdditiveCode) -> np.ndarray:
    """Preimage rows of `outer` ordered so the trailing block spans `excluded`.
    Both preimages are bases, so the rows are a basis of outer + excluded,
    and there are outer.m of them exactly when `excluded` lies in `outer`."""
    ext = linalg.extend_basis(outer.base_field, excluded.preimage, outer.preimage)
    if len(ext) + excluded.m != outer.m:
        raise PreconditionFailed("excluded code is not contained in the outer code")
    return np.vstack([ext, excluded.preimage])


def min_weight_excluding_detail(outer: AdditiveCode, excluded: AdditiveCode,
                                *, budget: int = DEFAULT_BUDGET) -> MinWeightResult:
    """Minimum Hamming weight over words of `outer` not in `excluded`."""
    outer._check_peer(excluded)
    rows = _exclusion_basis(outer, excluded)
    q = outer.base_field.order
    n = outer.n
    total = q ** outer.m
    skip = q ** excluded.m
    required = total - skip
    if required == 0:
        return MinWeightResult(weight=n + 1, examined=0)
    if required > budget:
        raise BudgetExceeded(required, budget)
    best, examined = _scan_preimage(outer.base_field, rows, skip)
    return MinWeightResult(weight=best, examined=examined)


def min_weight_excluding(outer: AdditiveCode, excluded: AdditiveCode, *,
                         budget: int = DEFAULT_BUDGET) -> int:
    return min_weight_excluding_detail(outer, excluded, budget=budget).weight


def min_weight_detail(code: AdditiveCode, *,
                      budget: int = DEFAULT_BUDGET) -> MinWeightResult:
    return min_weight_excluding_detail(
        code, AdditiveCode.zero(code.field, code.n), budget=budget)


def min_weight(code: AdditiveCode, *, budget: int = DEFAULT_BUDGET) -> int:
    return min_weight_detail(code, budget=budget).weight


# ---------------------------------------------------------------------------
# puncturing
# ---------------------------------------------------------------------------


def puncture(code: AdditiveCode, coords) -> AdditiveCode:
    """Delete the 0-based coordinates and re-canonicalize: phi acts on each
    coordinate alone, so this keeps preimage columns j and n + j for each
    kept j."""
    drop = set(int(c) for c in coords)
    for c in sorted(drop):
        if not 0 <= c < code.n:
            raise IndexOutOfRange(f"coordinate {c} outside [0, {code.n})")
    keep = [j for j in range(code.n) if j not in drop]
    cols = keep + [code.n + j for j in keep]
    return AdditiveCode.from_preimage(code.field, code.preimage[:, cols])


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
        return AdditiveCode.from_preimage(quadratic_field(F), M)
    if not F.is_quadratic:
        raise FormatError(
            f"code files need a quadratic-extension order, got {F.order}; "
            "pass --symplectic for base-field preimage matrices")
    return AdditiveCode.from_generators(F, M, n=M.shape[1])


def parse_code(text: str, symplectic: bool = False) -> AdditiveCode:
    """A code from the matrix text format: generators over GF(q^2), or with
    ``symplectic`` a base-field preimage matrix with 2n columns."""
    return _code_from_matrix(*linalg.parse_matrix(text), symplectic)


def load_code(path, symplectic: bool = False) -> AdditiveCode:
    """Read a code file; see :func:`parse_code`."""
    return _code_from_matrix(*linalg.load_matrix(path), symplectic)
