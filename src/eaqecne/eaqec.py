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
protect the c shared ebits on his side; :class:`CombinationParams`
classifies the pair from the two records.  The records and the published
families' tables live in :mod:`eaqecne.records`, which loads no numpy, and
are named here too.  :func:`puncture_to_eaqecc` returns the punctured
code's record with its source (``equivalent_to``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_BUDGET, DimensionMismatch, FieldMismatch,
                     InsufficientProtection, NotSelfOrthogonal,
                     PreconditionFailed, RangeError)
from .gf import FieldSpec
from .records import CombinationParams, EAQECCParams, known_tables, tables_csv
from . import addcodes as ac
from . import symplectic as sp


def _fmt_d(d) -> str:
    return "?" if d is None else str(d)


def _fmt_bool(b) -> str:
    return "?" if b is None else str(b).lower()


# ---------------------------------------------------------------------------
# parameter derivation from codes
# ---------------------------------------------------------------------------


def _derive(code: ac.AdditiveCode, compute_d: bool, budget: int
            ) -> tuple[EAQECCParams, ac.CodeDecomposition, int]:
    """The one path from a code to [[n, k, d; c]]_q: C = radical ⊕ c pairs,
    k = n - c - l, d minimal over C^⊥ outside the radical.  Returns the
    parameters, the decomposition and the words the scan examined."""
    dec = ac.radical_decompose(code)
    scan = ac.MinWeightResult(d=None, examined=0)
    if compute_d:
        scan = ac.min_weight_excluding_detail(ac.dual(code), dec.radical,
                                              budget=budget)
    params = EAQECCParams(q=code.base_field.order, n=code.n,
                          k=code.n - dec.c - dec.l, c=dec.c, d=scan.d)
    return params, dec, scan.examined


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
    G = ac._field_entries(field, G, "G")
    G2 = ac._field_entries(field, G2, "G2")
    E = ac._field_entries(field, E, "E")
    if G.shape[1] != G2.shape[1]:
        raise DimensionMismatch(
            f"G has length {G.shape[1]}, G2 has length {G2.shape[1]}")
    if G2.shape[0] != E.shape[0]:
        raise DimensionMismatch(
            f"G2 has {G2.shape[0]} rows, E has {E.shape[0]}")
    n, m = G.shape[1], E.shape[1]
    summed = ac.AdditiveCode.from_generators(field, np.vstack([G, G2]))
    # inside span(G)'s dual: every row of G orthogonal to the sum's rows
    rows = np.vstack([sp.phi_inv(field, G), summed.preimage])
    if sp.symp_gram(field.base, rows)[:len(G), len(G):].any():
        raise PreconditionFailed(
            "span(G)+span(G2) is not contained in the dual of span(G)")
    appended = ac.AdditiveCode.from_generators(field, np.hstack([G2, E]))
    if not ac.is_acd(appended):
        raise PreconditionFailed("(G2|E) does not generate a complementary-dual code")
    top = np.hstack([G, np.zeros((G.shape[0], m), dtype=G.dtype)])
    combined = ac.AdditiveCode.from_generators(
        field, np.vstack([top, np.hstack([G2, E])]))

    params, dec, enumerated = _derive(combined, compute_d, budget)
    d1 = d2 = comp_w = None
    if compute_d:
        block = ac.AdditiveCode.from_generators(field, E)
        scans = [ac.min_weight_excluding_detail(code, budget=budget)
                 for code in (summed, block, appended)]
        enumerated += sum(r.examined for r in scans)
        d1, d2, comp_w = (r.d for r in scans)
    top_code = ac.AdditiveCode.from_generators(field, top)
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
    of the result.  Linear means beta*C lies in C; :func:`stabilizer_params`
    checks self-orthogonality."""
    Q = code.field
    if not code._spans(sp.phi_inv(Q, Q.mul_table[Q.beta, code.generators])):
        raise PreconditionFailed("source code is not GF(q^2)-linear")
    u, N = code.m // 2, code.n
    if not 0 < c <= u:
        raise RangeError(f"c={c} outside (0, {u}]")
    source = stabilizer_params(code, compute_d, budget=budget)
    params = eaqec_params(ac.puncture(code, range(N - c, N)), compute_d,
                          budget=budget)
    return PunctureReport(params=params, equivalent_to=source)
