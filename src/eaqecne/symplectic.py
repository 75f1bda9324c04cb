"""Symplectic geometry of F_q^{2n}, the package's one vector representation.

Vectors are length-2n index arrays laid out as the concatenation (a|b) of
the two halves; subspaces are row-basis matrices with 2n columns as in
:mod:`eaqecne.linalg`.  The map to GF(q^2)^n sends a coordinate pair
(a_j, b_j) to beta*a_j + beta^q*b_j and is applied through a per-field
lookup table.

The one form on this space is the symplectic form
<(a|b), (a'|b')> = a.b' - b.a'.  It is the plain dot product of (a|b) with
(b'|-a'), so a Gram matrix is one :func:`eaqecne.linalg.gram` product and a
dual is one kernel.  Under the map to GF(q^2)^n it is the trace-alternating
form, and for a GF(q^2)-linear code the Hermitian dual is the symplectic
dual of its preimage.

:func:`decompose`, the one symplectic Gram-Schmidt, splits a span into its
radical (dimension l) and c hyperbolic pairs, 2c its Gram matrix's rank: row
updates of [W | G^T] in codes, as in ``rref``, keep G^T the rows' Gram matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .gf import FieldSpec
from . import linalg


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if v.shape[-1] % 2:
        raise DimensionMismatch(f"odd vector length {v.shape[-1]}")
    n = v.shape[-1] // 2
    return v[..., :n], v[..., n:]


def _twist(F: FieldSpec, rows) -> np.ndarray:
    """Map each row (a|b) to (b|-a): <x, y> is the dot product of x with
    the image of y."""
    a, b = _halves(linalg.as_matrix(rows))
    return np.hstack([b, F.neg_table[a]])


def symp_gram(F: FieldSpec, rows) -> np.ndarray:
    """Gram matrix <row_i, row_j> of the symplectic form."""
    return linalg.gram(F, rows, _twist(F, rows))


def symp_inner(F: FieldSpec, u, v) -> int:
    """<(a|b),(a'|b')> = a.b' - b.a'."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"{u.shape} vs {v.shape}")
    return int(linalg.gram(F, u, _twist(F, v))[0, 0])


def symp_weight(u) -> int:
    """Number of coordinates j with (a_j, b_j) != (0, 0)."""
    a, b = _halves(np.asarray(u))
    return int(((a != 0) | (b != 0)).sum())


def symp_dual(F: FieldSpec, basis) -> np.ndarray:
    """Canonical basis of the symplectic dual of the row space."""
    return linalg.kernel(F, _twist(F, basis))


def decompose(F: FieldSpec, rows) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic Gram-Schmidt of any spanning rows: (radical rows, pair rows
    e1, f1, e2, f2, ...), <e_i, f_i> = 1 the only nonzero values among them.

    The first nonzero entry G[i, j] of the rows' Gram matrix, row-major,
    pairs e = W[i] with f = W[j] / G[i, j]; every row v becomes
    v - <v,f> e + <v,e> f (e and f become 0).  On M = [W | G^T] in codes,
    row v beside <., v>, that is M -= a e - b f, two ``linalg._sub_multiples``
    with a = <., f> and b = <., e> the G^T parts of f and e: G^T stays the new
    rows' Gram matrix, transposed, rows and columns i, j go to 0, and the next
    pivot is the first nonzero of G^T, -G[i, j] there.  The rows left once G
    vanishes span the radical, being orthogonal to the span and spanning it
    with the pairs: no row reduction comes first, and they are a basis
    exactly when the input rows are independent.  A G left nonzero past
    len(rows) // 2 pairs is a RuntimeError.
    """
    W = linalg.as_matrix(rows)
    T, n2 = linalg._codes(F), W.shape[1]
    M = T.enc.take(np.hstack([W, symp_gram(F, W).T]))
    Gt, t, keep, pairs = M[:, n2:], np.empty_like(M), np.ones(len(M), bool), []
    dec = np.arange(F.order, dtype=W.dtype) if T.dec is None else T.dec
    while Gt.size and Gt.flat[k := int((Gt != 0).argmax())]:
        if len(pairs) == len(W) // 2 * 2:  # a defect, never an input's fault
            raise RuntimeError("symplectic Gram-Schmidt exceeded len(rows) // 2 pairs")
        i, j = divmod(k, len(Gt))
        e, f = M[i].copy(), T.div[F.neg_table[dec[Gt[i, j]]]].take(M[j])
        linalg._sub_multiples(T, M, dec.take(f[n2:]), e, t)
        linalg._sub_multiples(T, M, F.neg_table.take(dec.take(e[n2:])), f, t)
        keep[i] = keep[j] = False
        pairs += [e[:n2], f[:n2]]
    return dec.take(M[keep, :n2]), dec.take(linalg.as_matrix(pairs, cols=n2))


# ---------------------------------------------------------------------------
# the additive bijection F_q^{2n} <-> GF(q^2)^n
# ---------------------------------------------------------------------------


def phi(Q: FieldSpec, preimage) -> np.ndarray:
    """Apply (a|b) -> beta*a + beta^q*b coordinatewise; Q must be GF(q^2)."""
    Q._require_quadratic()
    q = Q.base.order
    v = np.asarray(preimage)
    a, b = _halves(v)
    return Q.phi_table[a.astype(np.int64) + q * b.astype(np.int64)].astype(np.int16)


def phi_inv(Q: FieldSpec, image) -> np.ndarray:
    Q._require_quadratic()
    q = Q.base.order
    w = np.asarray(image)
    pair = Q.phi_inv_table[w].astype(np.int64)
    return np.concatenate([pair % q, pair // q], axis=-1).astype(np.int16)


def dump_preimage(F: FieldSpec, basis, extra_comments: tuple[str, ...] = ()) -> str:
    """Serialize 2n-column rows in the shared matrix format with the
    ambient-size comment header."""
    basis = linalg.as_matrix(basis)
    comments = (f"ambient n={basis.shape[1] // 2}",) + tuple(extra_comments)
    return linalg.dump_matrix(F, basis, comments=comments)


# ---------------------------------------------------------------------------
# randomized generators used by tests and verification commands
# ---------------------------------------------------------------------------


def random_isotropic_basis(F: FieldSpec, n: int, m: int, rng, *,
                           zero_diagonal: bool = False) -> np.ndarray:
    """Basis of a random m-dimensional totally isotropic subspace of F_q^{2n}.

    With ``zero_diagonal`` a drawn vector (a|b) with a.b != 0 is rejected
    and drawn again.  In characteristic 2 the form a.b is additive on
    isotropic spans, so the whole subspace then has a.b = 0.
    """
    if not 0 <= m <= n:
        raise ValueError(f"isotropic dimension {m} outside [0, {n}]")
    basis = linalg.empty_matrix(2 * n)
    while basis.shape[0] < m:
        # anything orthogonal to an isotropic space extends it isotropically
        pool = symp_dual(F, basis)
        coeffs = rng.integers(0, F.order, size=pool.shape[0])
        v = linalg.gram(F, coeffs, pool.T)
        if zero_diagonal and linalg.gram(F, v[:, :n], v[:, n:]).any():
            continue
        cand = linalg.row_basis(F, np.vstack([basis, v]))
        if cand.shape[0] == basis.shape[0] + 1:
            basis = cand
    return basis
