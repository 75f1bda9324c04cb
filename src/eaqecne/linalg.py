"""Row-reduction subspace algebra and the Gram product over a FieldSpec.

Matrices are 2-D numpy integer arrays of element indices; rows are the only
vector orientation that carries meaning.  Subspaces are identified with the
reduced row echelon form of any generating matrix, so subspace equality is
plain array equality.  Empty matrices (zero rows) are legal values
everywhere and denote the zero subspace.

There is one elimination kernel, :func:`rref`; ranks and kernels are read
off it, and a canonical basis states its own :func:`pivots`; a kernel is
one elimination of the reversed columns.  It runs on element codes: a row
update is one gather and an in-place XOR (p = 2) or guard-bit add (odd p).
The same in-place update, :func:`_sub_multiples`, is every row step of
``symplectic.decompose`` too, on [W | G^T]; every Gram matrix is one exact
float64 (BLAS) product of F_p digit planes.  Codes, planes and the scan's
packed words are one per-field record, :func:`_codes`, built on a field's
first kernel call.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import AmbientMismatch, FormatError
from .gf import FieldSpec, field

_DT = np.int16
_PLAIN = re.compile(r"[0-9 \t]*")  # stripped rows are then [0-9]+([ \t]+[0-9]+)*


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


@lru_cache(maxsize=None)
def _codes(F: FieldSpec) -> SimpleNamespace:
    """Every kernel encoding of F, built on its first kernel call.  A code
    holds e base-p digits in w-bit fields, digit i at bit w*i: w = 1 for
    p = 2 (the index), else bit_length(p) + 1, a guard bit above each digit.
    ``enc[a]`` is a's code, ``dec`` inverts it (None if codes are indices:
    p = 2 or e = 1); ``div[a, code b]``, ``nme[code b, a]`` and
    ``limbs[i, c, b]`` code b / a, -a*b and c * x^(e-1-i) * b, c < p.
    ``planes[i, a]`` is digit i of a and ``struct[:, e*i + j]`` those of
    x^i * x^j (x^i = p^i), floats for BLAS.  A uint64 word packs coordinates
    (a_j's code, b_j's, a spare top bit for p = 2) ``bits`` apart at
    ``place``; adding ``low``, the bits below each top bit, to a reduced word
    carries into ``top`` exactly where a coordinate is nonzero.  ``carry``
    and ``wide_carry`` are :func:`_add_codes`'s for codes and for words."""
    p, e, idx, MUL = F.p, F.e, np.arange(F.order), F.mul_table
    w, powers = 1 if p == 2 else p.bit_length() + 1, p ** np.arange(e)
    digits = idx // powers[:, None] % p
    code = (digits << w * np.arange(e)[:, None]).sum(0)
    enc, dec = code.astype(_DT), np.zeros(code[-1] + 1, _DT)
    dec[code] = idx
    bits = 2 * e * w + (p == 2)
    size = 64 // bits * bits  # the bits of a packed word in use
    # v in every step-bit field of the low n bits, as a t
    every = lambda n, step, v, t=np.uint64: t(v * ((1 << n) - 1) // ((1 << step) - 1))
    # _add_codes's (p, w - 1, guard, bias) for n-bit words of type t
    carry = lambda n, t: None if p == 2 else (
        t(p), t(w - 1), every(n, w, 1 << w - 1, t), every(n, w, (1 << w - 1) - p, t))
    return SimpleNamespace(
        enc=enc, dec=None if e == 1 or p == 2 else dec, carry=carry(e * w, _DT),
        div=np.ascontiguousarray(enc[MUL[F.inv_table][:, dec]]),
        nme=np.ascontiguousarray(enc[MUL[F.neg_table][:, dec].T]),
        limbs=enc[MUL[np.arange(p) * powers[::-1, None]]],
        planes=digits.astype(float),
        struct=digits[:, MUL[powers[:, None], powers]].reshape(e, -1).astype(float),
        bits=bits, place=np.uint64(1) << np.arange(0, size, bits, dtype=np.uint64),
        top=every(size, bits, 1 << bits - 1), low=every(size, bits, (1 << bits - 1) - 1),
        wide_carry=carry(size, np.uint64))


def _add_codes(carry, x, y, out, t) -> np.ndarray:
    """out = x + y on codes, or on words of them, with scratch t: XOR for
    p = 2 (no ``carry``); for odd p, with carry = (p, w - 1, guard, bias), p
    comes off each field whose sum reaches p, the fields that adding bias
    (2^(w-1) - p per field) carries into the guard bits."""
    if carry is None:
        return np.bitwise_xor(x, y, out=out)
    p, shift, guard, bias = carry
    t = np.add(np.add(x, y, out=out), bias, out=t)
    t &= guard
    t >>= shift
    t *= p
    return np.subtract(out, t, out=out)


def _sub_multiples(T, M, coeffs, row, t) -> np.ndarray:
    """M -= coeffs[:, None] * row in place, M and ``row`` codes, ``coeffs``
    indices, t scratch of M's shape: one ``nme`` gather, one add."""
    return _add_codes(T.carry, M, T.nme.take(row, 0).T.take(coeffs, 0), M, t)


def rref(F: FieldSpec, mat) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (matrix, rank, pivot columns).

    On element codes: column c's pivot, in row p, is its largest code below
    the rows done; one ``div`` lookup divides row p by it, and one ``nme``
    gather subtracts each row's column-c multiple of that from whole rows
    (zero left of c), which zeroes row p; row p then takes row r."""
    T = _codes(F)
    M = T.enc.take(as_matrix(mat))
    t, (rows, cols), pivots = np.empty_like(M), M.shape, []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = r + int(M[r:, c].argmax())
        a = M[:, c] if T.dec is None else T.dec.take(M[:, c])
        if not (x := int(a[p])):
            continue
        row = T.div[x].take(M[p])
        _sub_multiples(T, M, a, row, t)
        if p != r:
            M[p] = M[r]
        M[r] = row
        pivots.append(c)
    return (M if T.dec is None else T.dec.take(M)), len(pivots), tuple(pivots)


def row_basis(F: FieldSpec, mat) -> np.ndarray:
    """Canonical basis of the row space (RREF with zero rows dropped)."""
    R, rank, _ = rref(F, mat)
    return R[:rank]


def pivots(M: np.ndarray) -> np.ndarray:
    """The pivot columns of a canonical basis: each row's first nonzero entry.
    Row r of the basis's span is then r[:, pivots] times the basis."""
    return (M != 0).argmax(axis=1) if M.size else np.zeros(0, dtype=np.intp)


def is_rref(M: np.ndarray) -> bool:
    """M is its own canonical basis: rows lead with a 1, the leads strictly
    increase and each is alone in its column.  Array tests, no elimination."""
    if not M.size:
        return not M.shape[0]
    lead = pivots(M)
    return bool((M[np.arange(len(M)), lead] == 1).all()
                and (np.diff(lead) > 0).all()
                and (np.count_nonzero(M[:, lead], axis=0) == 1).all())


def rank(F: FieldSpec, mat) -> int:
    return rref(F, mat)[1]


def kernel(F: FieldSpec, mat) -> np.ndarray:
    """Canonical basis of {x : M x^T = 0} from one rref of M's reversed
    columns: there the null vector of free column f ends with 1 at f, so
    flipped back each leads with a 1 alone in its column, latest f first."""
    R, rk, pivots = rref(F, as_matrix(mat)[:, ::-1])
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)[::-1]
    out = np.zeros((free.size, cols), dtype=_DT)
    out[np.arange(free.size), free] = 1
    out[:, list(pivots)] = F.neg_table[R[:rk, free]].T
    return out[:, ::-1].copy()


def gram(F: FieldSpec, A, B) -> np.ndarray:
    """A . B^T over F, entry (i, j) the dot product of A[i] and B[j]: one exact
    float64 (BLAS) product of the F_p digit planes of A and B, taken from
    ``_codes(F).planes``; its ``struct`` folds plane pair (a, b), which stands
    for x^a * x^b, into e digits, then mod p.  Sums are <= e^2 (p-1)^3 n < 2^53."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise AmbientMismatch(f"{A.shape[1]} vs {B.shape[1]} columns")
    (r, n), s, e, T = A.shape, B.shape[0], F.e, _codes(F)
    digits = lambda X: T.planes.take(X, 1).reshape(e * len(X), n)
    D = digits(A) @ digits(B).T
    if e > 1:
        D = T.struct @ D.reshape(e, r, e, s).swapaxes(1, 2).reshape(e * e, r * s)
    D = D.astype(np.int64) % F.p
    return (F.p ** np.arange(e) @ D.reshape(e, r * s)).reshape(r, s).astype(_DT)


# ---------------------------------------------------------------------------
# shared matrix text format
# ---------------------------------------------------------------------------


def dump_matrix(F: FieldSpec, mat, comments: tuple[str, ...] = ()) -> str:
    """Render the shared text format: `q rows cols` then one row per line."""
    M = as_matrix(mat)
    lines = [f"#{c}" for c in comments] + [f"{F.order} {M.shape[0]} {M.shape[1]}"]
    names = [str(v) for v in range(F.order)]
    lines.extend(" ".join([names[v] for v in row.tolist()]) for row in M)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[FieldSpec, np.ndarray]:
    """Parse the shared text format; blank lines and # comments are ignored
    (an r x 0 matrix needs no row lines).  Plain decimal rows of ``cols``
    entries in [0, q) are read by one ``np.fromstring`` call; the loop reads
    what int() reads and names the first bad row or entry."""
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
    if min(rows, cols) < 0:
        raise FormatError(f"negative shape in header {data[0]!r}")
    try:
        F = field(order)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    body = data[1:]
    if len(body) != rows and (cols or body):
        raise FormatError(f"expected {rows} rows, found {len(body)}")
    flat = " ".join(body)
    if body and _PLAIN.fullmatch(flat) and all(len(ln.split()) == cols for ln in body):
        out = np.fromstring(flat, dtype=np.int64, sep=" ")
        if (out < order).all():  # an entry past int64 reads as INT64_MAX
            return F, out.astype(_DT).reshape(rows, cols)
    out = []
    for i, parts in enumerate(line.split() for line in body):
        if len(parts) != cols:
            raise FormatError(f"row {i}: expected {cols} entries, got {len(parts)}")
        for tok in parts:
            try:
                out.append(v := int(tok))
            except ValueError as exc:
                raise FormatError(f"row {i}: bad entry {tok!r}") from exc
            if not 0 <= v < order:
                raise FormatError(f"row {i}: entry {v} outside [0, {order})")
    return F, np.array(out, dtype=_DT).reshape(rows, cols)


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
