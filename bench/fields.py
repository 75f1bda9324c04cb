"""Finite-field arithmetic for the benchmark's input generator and checks.

Only the element tables of ``eaqecne.field(q)`` are used: they define the
integer encoding of the shared file format.  Elimination, Gram matrices and
random symplectic maps are done here, so that the generated inputs and the
verdicts on outputs stay the same when the package's own linear algebra
changes.
"""

from __future__ import annotations

import numpy as np


def fsum(F, X, axis=-1) -> np.ndarray:
    """Sum of field elements along ``axis``.

    An index is the base-p digit vector of its F_p coefficients, so addition
    is digit-wise addition mod p.
    """
    X = np.asarray(X, dtype=np.int64)
    out = 0
    scale = 1
    for _ in range(F.e):
        out = out + ((X // scale) % F.p).sum(axis=axis) % F.p * scale
        scale *= F.p
    return np.asarray(out, dtype=np.int64)


def symp_gram(F, P, R=None) -> np.ndarray:
    """Matrix of <P_i, R_j> = a_i.b'_j - b_i.a'_j for rows (a|b) over GF(q)."""
    P = np.asarray(P, dtype=np.int64)
    R = P if R is None else np.asarray(R, dtype=np.int64)
    n = P.shape[1] // 2
    MUL = F.mul_table
    ab = fsum(F, MUL[P[:, None, :n], R[None, :, n:]])
    ba = fsum(F, MUL[P[:, None, n:], R[None, :, :n]])
    return F.sub_table[ab, ba].astype(np.int64)


def rank(F, M) -> int:
    """Rank over GF(q) by Gauss-Jordan elimination on the element tables."""
    M = np.array(M, dtype=np.int64)
    if M.size == 0:
        return 0
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(M[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        M[[r, p]] = M[[p, r]]
        M[r] = F.mul_table[F.inv_table[M[r, c]], M[r]]
        factor = M[:, c].copy()
        factor[r] = 0
        M = F.sub_table[M, F.mul_table[factor[:, None], M[r][None, :]]]
        r += 1
    return r


def symplectic_image(F, X, rng, steps: int) -> np.ndarray:
    """Rows of X under a random product of symplectic transvections.

    Each step is x -> x + lam <x, v> v with v and lam != 0 drawn from rng; a
    transvection preserves the symplectic form and is invertible, so
    isotropic rows stay isotropic and independent rows stay independent.
    """
    X = np.array(X, dtype=np.int64)
    ADD, MUL = F.add_table, F.mul_table
    for _ in range(steps):
        v = rng.integers(0, F.order, size=X.shape[1])
        lam = int(rng.integers(1, F.order))
        coef = MUL[lam, symp_gram(F, X, v[None, :])[:, 0]]
        X = ADD[X, MUL[coef[:, None], v[None, :]]].astype(np.int64)
    return X


def phi(Q, P) -> np.ndarray:
    """GF(q^2) generators of preimage rows (a|b): beta*a + beta^q*b."""
    P = np.asarray(P, dtype=np.int64)
    n = P.shape[1] // 2
    return Q.phi_table[P[:, :n] + Q.base.order * P[:, n:]].astype(np.int64)


def phi_inv(Q, G) -> np.ndarray:
    pair = Q.phi_inv_table[np.asarray(G, dtype=np.int64)].astype(np.int64)
    q = Q.base.order
    return np.concatenate([pair % q, pair // q], axis=-1)


def radical_split(F, P) -> tuple[int, int]:
    """(l, c) of independent preimage rows: l = m - rank(Gram), c = rank/2."""
    rk = rank(F, symp_gram(F, P)) if len(P) else 0
    return len(P) - rk, rk // 2


def dump(order: int, M, comments=()) -> str:
    """The shared matrix text format: `# comments`, `q rows cols`, rows."""
    M = np.asarray(M)
    lines = [f"#{c}" for c in comments]
    lines.append(f"{order} {M.shape[0]} {M.shape[1]}")
    lines.extend(" ".join(str(int(v)) for v in row) for row in M)
    return "\n".join(lines) + "\n"
