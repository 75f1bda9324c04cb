"""Slow reference implementations that the fast paths are checked against.

None of these share code with the package's form engine, its elimination or
its minimum-weight scan: forms are summed one coordinate at a time with
scalar field calls, row reduction clears one row at a time, intersections
go through stacked annihilators, and minimum weights enumerate every
coefficient vector over the preimage or, in the odometer order of the
package's block schedule, over GF(q^2) words.
"""

import itertools

import numpy as np

from eaqecne import linalg


def scalar_dot(F, u, v) -> int:
    """Plain coordinatewise dot product of two index vectors."""
    acc = 0
    for a, b in zip(u, v, strict=True):
        acc = F.add(acc, F.mul(int(a), int(b)))
    return acc


def scalar_inner(Q, u, v, form: str = "hermitian") -> int:
    """Hermitian, trace or alternating form of two GF(q^2) vectors from the
    Hermitian sum, one coordinate at a time."""
    h = 0
    for a, b in zip(u, v, strict=True):
        h = Q.add(h, Q.mul(int(a), Q.conjugate(int(b))))
    if form == "hermitian":
        return h
    if form == "trace":
        return Q.rel_trace(h)
    if form == "alternating":
        return Q.div(Q.sub(h, Q.conjugate(h)), Q.alt_normalizer)
    raise ValueError(form)


def span_words(F, rows) -> np.ndarray:
    """Every F-linear combination of the rows, one word per coefficient vector."""
    rows = np.asarray(rows, dtype=np.int16).reshape(-1, np.shape(rows)[-1])
    scalars = np.arange(F.order)[:, None]
    words = np.zeros((1, rows.shape[1]), dtype=np.int16)
    for row in rows:
        multiples = F.mul_table[scalars, row[None, :]]
        words = F.add_table[words[:, None, :], multiples[None, :, :]]
        words = words.reshape(-1, rows.shape[1])
    return words


def preimage_min_weight(code) -> int:
    """Minimum symplectic weight over the nonzero preimage words of the code;
    ``code.n + 1`` for the zero code."""
    words = span_words(code.base_field, code.preimage)
    n = code.n
    weights = ((words[:, :n] != 0) | (words[:, n:] != 0)).sum(axis=1)
    nonzero = words.any(axis=1)
    return int(weights[nonzero].min()) if nonzero.any() else n + 1


def odometer_scan(Q, gens, skip_below, chunk):
    """Minimum Hamming weight over the F_q-span of GF(q^2) rows, in blocks of
    the q^s suffix words of the last s rows (the largest q^s <= chunk) plus
    one prefix combination each, skipping odometer indices below
    `skip_below` and stopping after the first block with weight <= 1.
    Returns (best, examined) with best = n + 1 when nothing was examined."""
    q = Q.base.order
    m, n = gens.shape
    s = 0
    while s < m and q ** (s + 1) <= chunk:
        s += 1
    suffix = np.zeros((1, n), dtype=np.int16)
    for g in gens[m - s:]:
        scaled = Q.mul_table[np.arange(q)[:, None], g[None, :]]
        suffix = Q.add_table[suffix[:, None, :], scaled[None, :, :]].reshape(-1, n)
    size = suffix.shape[0]
    best, examined = n + 1, 0
    for ordinal, digits in enumerate(itertools.product(range(q), repeat=m - s)):
        start = ordinal * size
        if start + size <= skip_below:
            continue
        head = np.zeros(n, dtype=np.int16)
        for d, g in zip(digits, gens[:m - s]):
            head = Q.add_table[head, Q.mul_table[d, g]]
        block = Q.add_table[suffix, head[None, :]][max(skip_below - start, 0):]
        examined += block.shape[0]
        best = min(best, int((block != 0).sum(axis=1).min()))
        if best <= 1:
            break
    return best, examined


def loop_rref(F, mat):
    """Reduced row echelon form clearing one row per step; returns
    (matrix, rank, pivot columns) like ``linalg.rref``."""
    M = linalg.as_matrix(mat).copy()
    rows, cols = M.shape
    SUB, MUL, INV = F.sub_table, F.mul_table, F.inv_table
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(M[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        M[r] = MUL[INV[M[r, c]], M[r]]
        for i in range(rows):
            if i != r and M[i, c] != 0:
                M[i] = SUB[M[i], MUL[M[i, c], M[r]]]
        pivots.append(c)
        r += 1
    return M, r, tuple(pivots)


def loop_kernel(F, mat):
    """Canonical basis of {x : M x^T = 0}, filled one entry at a time from
    ``loop_rref``."""
    M = linalg.as_matrix(mat)
    cols = M.shape[1]
    R, _, pivots = loop_rref(F, M)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int16)
    for i, fcol in enumerate(free):
        out[i, fcol] = 1
        for j, pcol in enumerate(pivots):
            out[i, pcol] = F.neg(int(R[j, fcol]))
    return loop_rref(F, out)[0]


def subspace_intersect(F, A, B):
    """Intersection of two row spaces as the kernel of their stacked
    annihilators, in canonical form."""
    A, B = linalg.as_matrix(A), linalg.as_matrix(B)
    return loop_kernel(F, np.vstack([loop_kernel(F, A), loop_kernel(F, B)]))
