"""Row-reduction subspace algebra and the Gram product over a FieldSpec.

Matrices are 2-D numpy integer arrays of element indices; rows are the only
vector orientation that carries meaning.  Subspaces are identified with the
reduced row echelon form of any generating matrix, so subspace equality is
plain array equality.  Empty matrices (zero rows) are legal values
everywhere and denote the zero subspace.

There is one elimination kernel, :func:`rref`; ranks, kernels and basis
extension are all read off it.  Every row update is one
:func:`sub_multiples` call and every Gram matrix one integer product.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import AmbientMismatch, FormatError
from .gf import FieldSpec, field

_DT = np.int16


def as_matrix(rows, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-D int16 matrix; ``rows=[]`` needs ``cols``; r x 0 stays r x 0;
    a scalar is a 1 x 1 matrix."""
    M = np.array(rows, dtype=_DT)
    if M.ndim == 2 and M.shape[0]:
        return M
    if M.size == 0:
        if cols is None and M.ndim == 2:
            cols = M.shape[1]
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return M.reshape(0, cols)
    if M.ndim < 2:
        M = M.reshape(1, -1)
    return M


def empty_matrix(cols: int) -> np.ndarray:
    return np.zeros((0, cols), dtype=_DT)


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=_DT)


def sub_multiples(F: FieldSpec, M, coeffs, row) -> np.ndarray:
    """M - coeffs[:, None] * row over F, picked from the q multiples of
    ``row``: XOR of indices (their F_2 digit vectors) in characteristic 2,
    otherwise one flat ``sub_table`` lookup."""
    P = F.mul_table[:, row][coeffs]
    if F.p == 2:
        return M ^ P
    return F.sub_table.ravel().take(M * F.order + P)


def rref(F: FieldSpec, mat) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix, rank, pivot columns).

    Each pivot clears its column from every other row in one sub_multiples
    update, starting at the pivot column (the pivot row is zero left of it)."""
    M = as_matrix(mat).copy()
    rows, cols = M.shape
    MUL, INV = F.mul_table, F.inv_table
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = np.flatnonzero(M[r:, c])
        if not hits.size:
            continue
        p = r + hits[0]
        row = MUL[INV[M[p, c]], M[p, c:]]
        if p != r:
            M[p] = M[r]
        M[:, c:] = sub_multiples(F, M[:, c:], M[:, c], row)
        M[r, c:] = row
        pivots.append(c)
    return M, len(pivots), tuple(pivots)


def row_basis(F: FieldSpec, mat) -> np.ndarray:
    """Canonical basis of the row space (RREF with zero rows dropped)."""
    R, rank, _ = rref(F, mat)
    return R[:rank]


def is_rref(M: np.ndarray) -> bool:
    """M is its own canonical basis: rows lead with a 1, the leads strictly
    increase and each is alone in its column.  Array tests, no elimination."""
    if not M.size:
        return not M.shape[0]
    lead = (M != 0).argmax(axis=1)
    return bool((M[np.arange(len(M)), lead] == 1).all()
                and (np.diff(lead) > 0).all()
                and (np.count_nonzero(M[:, lead], axis=0) == 1).all())


def rank(F: FieldSpec, mat) -> int:
    return rref(F, mat)[1]


def kernel(F: FieldSpec, mat) -> np.ndarray:
    """Canonical basis of the right null space {x : M x^T = 0}."""
    R, rk, pivots = rref(F, mat)
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)
    out = np.zeros((free.size, cols), dtype=_DT)
    out[np.arange(free.size), free] = 1
    out[:, list(pivots)] = F.neg_table[R[:rk, free]].T
    return row_basis(F, out)


def _check_ambient(a: np.ndarray, b: np.ndarray):
    if a.shape[1] != b.shape[1]:
        raise AmbientMismatch(f"{a.shape[1]} vs {b.shape[1]} columns")


def gram(F: FieldSpec, A, B) -> np.ndarray:
    """The product A . B^T over F: entry (i, j) is the dot product of row i
    of A with row j of B.  It is one int32 product of A's F_p digits with the
    blocks x -> x*B[j, k] on digits, mod p: (A @ B^T) % p for a prime field."""
    A, B = as_matrix(A), as_matrix(B)
    _check_ambient(A, B)
    (r, n), s, e = A.shape, B.shape[0], F.e
    DA = F.digit_table[A].transpose(0, 2, 1).reshape(r, e * n)
    D = DA @ F.mul_matrix_table[:, B.T].reshape(e * n, s * e)
    D %= F.p
    return (D.reshape(r, s, e) @ F.p ** np.arange(e)).astype(_DT)


def extend_basis(F: FieldSpec, S, rows) -> np.ndarray:
    """The rows that extend the independent rows of S, picked greedily in order.

    A row is kept when it is not in the span of S and the rows kept before
    it; these are the pivot columns of the stacked transpose.
    """
    S, rows = as_matrix(S), as_matrix(rows)
    _check_ambient(S, rows)
    _, _, pivots = rref(F, np.vstack([S, rows]).T)
    k = S.shape[0]
    return rows[np.array([p - k for p in pivots if p >= k], dtype=np.intp)]


# ---------------------------------------------------------------------------
# shared matrix text format
# ---------------------------------------------------------------------------


def dump_matrix(F: FieldSpec, mat, comments: tuple[str, ...] = ()) -> str:
    """Render the shared text format: `q rows cols` then one row per line."""
    M = as_matrix(mat)
    lines = [f"#{c}" for c in comments]
    lines.append(f"{F.order} {M.shape[0]} {M.shape[1]}")
    for row in M:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[FieldSpec, np.ndarray]:
    """Parse the shared text format; blank lines and # comments are ignored."""
    data = [ln for ln in (s.strip() for s in text.splitlines())
            if ln and not ln.startswith("#")]
    if not data:
        raise FormatError("no header line")
    head = data[0].split()
    if len(head) != 3:
        raise FormatError(f"header must be 'q rows cols', got {data[0]!r}")
    try:
        order, rows, cols = (int(t) for t in head)
    except ValueError as exc:
        raise FormatError(f"non-integer header {data[0]!r}") from exc
    try:
        F = field(order)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    body = data[1:]
    if len(body) != rows:
        raise FormatError(f"expected {rows} rows, found {len(body)}")
    tokens = [line.split() for line in body]
    try:
        out = np.array(list(map(int, itertools.chain.from_iterable(tokens))),
                       dtype=_DT)
        # a negative entry reads as a large unsigned one
        ok = (all(len(row) == cols for row in tokens)
              and (out.view(np.uint16) < order).all())
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        # the first bad row length or entry, in reading order
        for i, parts in enumerate(tokens):
            if len(parts) != cols:
                raise FormatError(
                    f"row {i}: expected {cols} entries, got {len(parts)}")
            for tok in parts:
                try:
                    v = int(tok)
                except ValueError as exc:
                    raise FormatError(f"row {i}: bad entry {tok!r}") from exc
                if not 0 <= v < order:
                    raise FormatError(f"row {i}: entry {v} outside [0, {order})")
    return F, out.reshape(rows, cols)


def load_matrix(path) -> tuple[FieldSpec, np.ndarray]:
    """Read and parse a matrix file; unreadable files are format errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    return parse_matrix(text)
