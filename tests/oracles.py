"""Slow reference implementations that the fast paths are checked against.

None of these share code with the package's form engine or its minimum-weight
scan: forms are summed one coordinate at a time with scalar field calls, and
minimum weights enumerate every coefficient vector over the preimage.
"""

import numpy as np


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
