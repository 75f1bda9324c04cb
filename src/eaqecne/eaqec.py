"""Code parameters, matching classification, and combination constructions.

An additive code C = (n, q^m) over GF(q^2) splits as radical ⊕ complement
with exponents l and 2c; it EA-stabilizes an [[n, k, d; c]]_q code with
k = n - c - l, consuming c ebits.  Self-orthogonal codes are the c = 0
special case and stabilize ordinary [[n, n-m, d]]_q codes: one
:class:`EAQECCParams` record holds both, and :func:`stabilizer_params`
returns it with c = 0.  Distances minimize the Hamming weight over the
dual of the full code, excluding its radical, which for a self-orthogonal
code is the code itself.

A combination pairs Alice's EA code with a stabilizer code Bob uses to
protect the c shared ebits on his side.  :class:`CombinationParams`
``(alice, bob)`` classifies the pair from the two records and rejects a
Bob record with c != 0: Bob's code matches when it has at least c logical
qudits, properly matches when it has exactly c, and the pair is faithful
when Bob's distance is at least 3.  :func:`puncture_to_eaqecc` returns the
punctured code's record with its source (``equivalent_to``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, FieldMismatch, InsufficientProtection,
                     NotSelfOrthogonal, PreconditionFailed, RangeError)
from .gf import FieldSpec
from . import addcodes as ac
from . import linalg, symplectic as sp

DEFAULT_BUDGET = ac.DEFAULT_BUDGET


def _fmt_d(d) -> str:
    return "?" if d is None else str(d)


def _fmt_bool(b) -> str:
    return "?" if b is None else str(b).lower()


@dataclass(frozen=True)
class EAQECCParams:
    """EA-code parameters [[n, k, d; c]]_q; d may be unknown or undefined.
    A stabilizer code is the c = 0 case, written [[n, k, d]]_q."""

    q: int
    n: int
    k: int
    c: int
    d: int | None = None

    def __post_init__(self):
        if self.c < 0 or self.k < 0:
            raise RangeError(f"c={self.c}, k={self.k} must be nonnegative")
        if self.n - self.c - self.k < 0:
            raise RangeError(f"{self} forces negative isotropic dimension")
        if self.d is not None and not 1 <= self.d <= self.n:
            raise RangeError(f"d={self.d} outside [1, {self.n}]")

    @property
    def l(self) -> int:
        """Isotropic exponent forced by k = n - c - l."""
        return self.n - self.c - self.k

    def __str__(self):
        d = "" if self.d is None else f",{self.d}"
        c = f";{self.c}" if self.c else ""
        return f"[[{self.n},{self.k}{d}{c}]]_{self.q}"


@dataclass(frozen=True)
class CombinationParams:
    """Alice's EA code paired with Bob's ebit-protection code; the match
    classification is read off the two records."""

    alice: EAQECCParams
    bob: EAQECCParams  # a stabilizer code, c = 0

    def __post_init__(self):
        if self.alice.q != self.bob.q:
            raise FieldMismatch(f"q={self.alice.q} vs q={self.bob.q}")
        if self.bob.c:
            raise RangeError(f"Bob's code {self.bob} is not a stabilizer code")

    @property
    def matching(self) -> bool:
        return self.bob.k >= self.alice.c

    @property
    def properly_matching(self) -> bool:
        return self.bob.k == self.alice.c

    @property
    def faithful(self) -> bool:
        return self.matching and self.bob.d is not None and self.bob.d >= 3

    @property
    def label(self) -> str:
        if not self.matching:
            return "none"
        head = "properly-matching" if self.properly_matching else "matching"
        return head + "+faithful" if self.faithful else head

    def __str__(self):
        return f"{self.alice} + {self.bob}"


# ---------------------------------------------------------------------------
# parameter derivation from codes
# ---------------------------------------------------------------------------


def _derive(code: ac.AdditiveCode, compute_d: bool, budget: int
            ) -> tuple[EAQECCParams, ac.CodeDecomposition, int]:
    """The one path from a code to [[n, k, d; c]]_q: C = radical ⊕ c pairs,
    k = n - c - l, d minimal over C^⊥ outside the radical.  Returns the
    parameters, the decomposition and the words the scan examined."""
    dec = ac.radical_decompose(code)
    d, examined = None, 0
    if compute_d:
        scan = ac.min_weight_excluding_detail(ac.dual(code), dec.radical,
                                              budget=budget)
        d, examined = scan.distance(code.n), scan.examined
    params = EAQECCParams(q=code.base_field.order, n=code.n,
                          k=code.n - dec.c - dec.l, c=dec.c, d=d)
    return params, dec, examined


def stabilizer_params(code: ac.AdditiveCode, compute_d: bool = True, *,
                      budget: int = DEFAULT_BUDGET) -> EAQECCParams:
    """Parameters of the stabilizer code of a self-orthogonal additive code:
    the c = 0 case of :func:`eaqec_params`, whose radical is the code."""
    witness = ac.self_orthogonality_witness(code)
    if witness is not None:
        raise NotSelfOrthogonal(
            f"generators {witness[0]} and {witness[1]} have nonzero form value")
    return _derive(code, compute_d, budget)[0]


def eaqec_params(code: ac.AdditiveCode, compute_d: bool = True, *,
                 budget: int = DEFAULT_BUDGET) -> EAQECCParams:
    """EA parameters of an arbitrary additive code via its decomposition."""
    return _derive(code, compute_d, budget)[0]


def combine_neb(alice_code: ac.AdditiveCode, bob_code: ac.AdditiveCode,
                compute_d: bool = True, *,
                budget: int = DEFAULT_BUDGET) -> CombinationParams:
    """Pair an arbitrary EA-stabilizer image with a self-orthogonal Bob code.

    Bob's code must be self-orthogonal and leave him at least c logical
    qudits, i.e. c <= m - r.  On ``AdditiveCode.from_linear`` codes this is
    the paper's linear formulation: Alice any [n, u] code and Bob a
    Hermitian self-orthogonal one, with c = u - r and l = 2r for the
    dimension r of Alice's Hermitian radical.
    """
    if alice_code.base_field is not bob_code.base_field:
        raise FieldMismatch("Alice and Bob use different base fields")
    alice = eaqec_params(alice_code, compute_d, budget=budget)
    try:
        bob = stabilizer_params(bob_code, compute_d, budget=budget)
    except NotSelfOrthogonal as exc:
        raise NotSelfOrthogonal(f"Bob's code: {exc}") from exc
    if alice.c > bob.k:
        raise InsufficientProtection(
            f"c={alice.c} ebits exceed Bob's k={bob.k} logical qudits")
    return CombinationParams(alice, bob)


# ---------------------------------------------------------------------------
# block construction: stack a self-orthogonal code over an appended
# complementary-dual block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinationReport:
    """Ground-truth measurements for one block construction instance."""

    params: EAQECCParams             # measured on the combined code
    d1: int | None                   # min weight of the left-block sum code
    d2: int | None                   # min weight of the appended block code
    complement_min_weight: int | None
    radical_is_top_block: bool
    c_identity_value: int            # (n + m) - dim(G|0) - k, the claimed identity
    enumerated: int

    # read-only views of params, kept for bench/test_bench.py
    l = property(lambda self: self.params.l)
    c = property(lambda self: self.params.c)

    def lines(self) -> list[str]:
        p = self.params
        claim = (None if None in (p.d, self.d1, self.d2)
                 else p.d >= self.d1 + self.d2)
        return [
            f"params={p}",
            f"l={p.l}",
            f"c={p.c}",
            f"d1={_fmt_d(self.d1)}",
            f"d2={_fmt_d(self.d2)}",
            f"complement_min_weight={_fmt_d(self.complement_min_weight)}",
            f"distance_claim_d_ge_d1_plus_d2={_fmt_bool(claim)}",
            f"radical_is_top_block={_fmt_bool(self.radical_is_top_block)}",
            f"c_identity_value={self.c_identity_value}",
            f"c_identity_holds={_fmt_bool(self.c_identity_value == p.c)}",
            f"enumerated={self.enumerated}",
        ]


def combine_construct(field: FieldSpec, G, G2, E, compute_d: bool = True, *,
                      budget: int = DEFAULT_BUDGET
                      ) -> tuple[ac.AdditiveCode, CombinationReport]:
    """Build the (n+m)-length code with rows (G|0) and (G2|E) and measure it.

    Preconditions checked: G and G2 share a length n, G2 and E share a row
    count, span(G) is contained in the dual of span(G)+span(G2), and (G2|E)
    spans a complementary-dual code.
    """
    field._require_quadratic()
    G = linalg.as_matrix(G)
    G2 = linalg.as_matrix(G2)
    E = linalg.as_matrix(E)
    if G.shape[1] != G2.shape[1]:
        raise DimensionMismatch(
            f"G has length {G.shape[1]}, G2 has length {G2.shape[1]}")
    if G2.shape[0] != E.shape[0]:
        raise DimensionMismatch(
            f"G2 has {G2.shape[0]} rows, E has {E.shape[0]}")
    n, m = G.shape[1], E.shape[1]
    summed = ac.AdditiveCode.from_generators(field, np.vstack([G, G2]), n=n)
    # inside span(G)'s dual: every row of G orthogonal to the sum's rows
    rows = np.vstack([sp.phi_inv(field, G), summed.preimage])
    if sp.symp_gram(field.base, rows)[:len(G), len(G):].any():
        raise PreconditionFailed(
            "span(G)+span(G2) is not contained in the dual of span(G)")
    appended = ac.AdditiveCode.from_generators(
        field, np.hstack([G2, E]), n=n + m)
    if not ac.is_acd(appended):
        raise PreconditionFailed("(G2|E) does not generate a complementary-dual code")
    top = np.hstack([G, np.zeros((G.shape[0], m), dtype=G.dtype)])
    combined = ac.AdditiveCode.from_generators(
        field, np.vstack([top, np.hstack([G2, E])]), n=n + m)

    params, dec, enumerated = _derive(combined, compute_d, budget)
    d1 = d2 = comp_w = None
    if compute_d:
        r1 = ac.min_weight_excluding_detail(summed, budget=budget)
        block = ac.AdditiveCode.from_generators(field, E, n=m)
        r2 = ac.min_weight_excluding_detail(block, budget=budget)
        r3 = ac.min_weight_excluding_detail(appended, budget=budget)
        enumerated += r1.examined + r2.examined + r3.examined
        d1, d2 = r1.distance(n), r2.distance(m)
        comp_w = r3.distance(n + m)
    top_code = ac.AdditiveCode.from_generators(field, top, n=n + m)
    report = CombinationReport(
        params=params,
        d1=d1,
        d2=d2,
        complement_min_weight=comp_w,
        radical_is_top_block=(dec.radical == top_code),
        c_identity_value=(n + m) - top_code.m - params.k,
        enumerated=enumerated,
    )
    return combined, report


# ---------------------------------------------------------------------------
# puncturing a Hermitian self-orthogonal code into an EA-stabilizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PunctureReport:
    params: EAQECCParams         # measured on the punctured code
    equivalent_to: EAQECCParams  # the source stabilizer code, c = 0


def puncture_to_eaqecc(code: ac.AdditiveCode, c: int, compute_d: bool = True, *,
                       budget: int = DEFAULT_BUDGET) -> PunctureReport:
    """Drop the last c coordinates of a Hermitian self-orthogonal
    GF(q^2)-linear code, of dimension u = m/2, and measure the EA parameters
    of the result."""
    if ac.AdditiveCode.from_linear(code.field, code.generators, n=code.n) != code:
        raise PreconditionFailed("source code is not GF(q^2)-linear")
    if not ac.is_self_orthogonal(code):
        raise NotSelfOrthogonal("source code is not Hermitian self-orthogonal")
    u, N = code.m // 2, code.n
    if not 0 < c <= u:
        raise RangeError(f"c={c} outside (0, {u}]")
    source = stabilizer_params(code, compute_d, budget=budget)
    params = eaqec_params(ac.puncture(code, range(N - c, N)), compute_d,
                          budget=budget)
    return PunctureReport(params=params, equivalent_to=source)


# ---------------------------------------------------------------------------
# parameter tables for the published construction families
# ---------------------------------------------------------------------------


#: Binary two-parameter families, instantiated per m; distances declared.
_BINARY_FAMILY = (
    lambda m: (2, 4 * m, 1, 2 * m + 1, 1, 5, 1, 3),
    lambda m: (2, 4 * m + 1, 1, 2 * m + 3, 4, 10, 4, 3),
    lambda m: (2, 4 * m + 2, 1, 2 * m + 3, 3, 8, 3, 3),
    lambda m: (2, 4 * m + 3, 1, 2 * m + 3, 2, 8, 2, 3),
)

_BINARY_FIXED = (
    (2, 7, 2, 5, 5, 11, 5, 3),
    (2, 8, 2, 5, 4, 10, 4, 3),
    (2, 9, 2, 5, 3, 8, 3, 3),
    (2, 10, 2, 6, 4, 10, 4, 3),
    (2, 9, 3, 6, 6, 12, 6, 3),
    (2, 13, 3, 9, 10, 16, 10, 3),
    (2, 12, 4, 7, 8, 14, 8, 3),
)

_TERNARY_FIXED = (
    (3, 11, 1, 7, 2, 6, 2, 3),
    (3, 26, 2, 11, 2, 6, 2, 3),
    (3, 28, 2, 11, 4, 8, 4, 3),
    (3, 14, 2, 9, 6, 10, 6, 3),
    (3, 28, 2, 13, 6, 10, 6, 3),
)


def known_tables(family_ms=(2, 3, 4)) -> list[CombinationParams]:
    """Published parameter families with declared (not recomputed) distances."""
    rows = []
    for m in family_ms:
        if m < 2:
            raise RangeError(f"family parameter m={m} must be at least 2")
        rows.extend(make(m) for make in _BINARY_FAMILY)
    rows.extend(_BINARY_FIXED + _TERNARY_FIXED)
    return [CombinationParams(EAQECCParams(q=q, n=n, k=k, c=c, d=d),
                              EAQECCParams(q=q, n=mb, k=kb, c=0, d=db))
            for q, n, k, d, c, mb, kb, db in rows]


def tables_csv(family_ms=(2, 3, 4)) -> str:
    lines = ["q,n,k,d,c,m,kb,db,match"]
    for entry in known_tables(family_ms):
        a, b = entry.alice, entry.bob
        lines.append(f"{a.q},{a.n},{a.k},{a.d},{a.c},{b.n},{b.k},{b.d},{entry.label}")
    return "\n".join(lines) + "\n"
