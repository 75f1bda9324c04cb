"""Slow reference implementations that the fast paths are checked against.

None of these share code with the package's field tables, symplectic form,
elimination or minimum-weight scan: field tables are filled one element pair
at a time from plain Python ints with trial division for irreducibility, the
kernel record's digit planes and word constants one digit or field at a time,
forms are summed one coordinate at a time with scalar field calls (the
Hermitian and trace forms take conjugation, traces and division from
``LoopField``, their only home), row reduction clears one row at a time,
intersections go through stacked annihilators, and minimum weights enumerate
every coefficient vector over the preimage or, in the odometer order of the
package's block schedule, over GF(q^2) words, and weight tables count every
word of a span.  Puncturing goes through the GF(q^2) generators instead of
the preimage columns.  Hermitian duals and radicals of linear codes, and
trace duals of additive codes, are kernels over GF(q^2) or F_q of scalar
form values, never of the preimage's symplectic form; symplectic duals are
kernels of scalar symplectic values against unit vectors.  The radical of a
span of preimage rows is the kernel of their scalar symplectic Gram matrix,
not a Gram-Schmidt split.  Binomial
fidelity tails add one Fraction term at a time, with binomials from
math.comb or from Pascal's triangle, and the crossover bisection evaluates
both codes of the pair at every step.  Decimal rendering divides the full
numerator by the full denominator.

The two-pass kernel, subspace, random-code and Reed-Solomon helpers at the
end are test fixtures built on the package's own elimination and codes, and
:func:`count_rref` records the fields that elimination runs over; nothing in
the package calls them.
"""

import decimal
import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from eaqecne import addcodes as ac, linalg, symplectic as sp
from eaqecne.errors import FIELDS

# every field order of the package's table, and those of its quadratic
# extensions, so that a new table entry is tested everywhere
ORDERS = tuple(FIELDS)
QUADRATIC_ORDERS = tuple(q for q, entry in FIELDS.items()
                         if entry is not None and len(entry[1]) == 3)


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mul(base, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return tuple(out)


def _poly_mod(base, f, m):
    """Remainder of f modulo a monic polynomial m, padded to deg(m) terms."""
    f = list(f)
    d = len(m) - 1
    while len(_poly_trim(tuple(f))) > d:
        f = list(_poly_trim(tuple(f)))
        lead = f[-1]
        shift = len(f) - 1 - d
        for i, c in enumerate(m):
            f[shift + i] = base.sub(f[shift + i], base.mul(lead, c))
    f = _poly_trim(tuple(f))
    return tuple(f) + (0,) * (d - len(f))


def _poly_is_irreducible(base, m) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2."""
    d = len(m) - 1
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(base.order), repeat=k):
            if not any(_poly_mod(base, m, tuple(tail) + (1,))):
                return False
    return True


class LoopField:
    """GF(p) or F[x]/(modulus) with every table filled one element (pair) at
    a time from Python lists: mod p at the bottom, polynomial products
    reduced by the modulus above it.  Raises ``ValueError`` for a modulus of
    degree < 2, a non-monic one, one with a coefficient outside the base
    field, a reducible one (trial division), and, for a quadratic extension,
    one that makes {beta, beta^q} dependent.  The
    finished tables are int16 arrays under the package's attribute names.

    Division, conjugation x -> x^q and the relative and absolute traces,
    which the package has no use for, are scalar lookups into private
    Python lists; the Hermitian and trace oracles below take them from
    here, never from the package's field."""

    def __init__(self, p=None, base=None, modulus=None):
        if base is None:
            self.p, self.base, self.degree, self.e, self.order = p, None, 1, 1, p
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[a * b % p for b in range(p)] for a in range(p)]
            self._neg = [-a % p for a in range(p)]
        else:
            modulus = tuple(modulus)
            d = len(modulus) - 1
            if (d < 2 or modulus[-1] != 1
                    or not all(0 <= c < base.order for c in modulus)
                    or not _poly_is_irreducible(base, modulus)):
                raise ValueError(f"modulus {modulus} rejected over GF({base.order})")
            self.p, self.base, self.degree = base.p, base, d
            self.e, self.order = base.e * d, base.order ** d
            coeff = [self.coeffs(a) for a in range(self.order)]
            self._add = [[self.index([base.add(x, y) for x, y in zip(ca, cb)])
                          for cb in coeff] for ca in coeff]
            self._mul = [[self.index(_poly_mod(base, _poly_mul(base, ca, cb), modulus))
                          for cb in coeff] for ca in coeff]
            self._neg = [self.index([base.neg(c) for c in ca]) for ca in coeff]
        elems = range(self.order)
        self._inv = [0] * self.order
        for a in elems[1:]:
            hits = [b for b in elems if self.mul(a, b) == 1]
            assert len(hits) == 1
            self._inv[a] = hits[0]
        frob = [self.pow(a, self.p) for a in elems]
        self._abs_trace = []
        for a in elems:
            acc, x = 0, a
            for _ in range(self.e):
                acc, x = self.add(acc, x), frob[x]
            self._abs_trace.append(acc)
        tables = {"add_table": self._add, "mul_table": self._mul,
                  "neg_table": self._neg, "inv_table": self._inv,
                  "sub_table": [[self.sub(a, b) for b in elems] for a in elems]}
        self.beta = None
        if self.base is not None and self.degree == 2:
            tables.update(self._quadratic_tables())
        for name, rows in tables.items():
            setattr(self, name, np.array(rows, dtype=np.int16))

    def _quadratic_tables(self):
        q = self.base.order
        elems = range(self.order)
        self.beta = q
        self._conj = conj = [self.pow(a, q) for a in elems]
        self._rel_trace = [self.add(a, conj[a]) for a in elems]
        self.beta_conj = conj[q]
        if any(self.mul(lam, q) == self.beta_conj for lam in range(q)):
            raise ValueError("beta and beta^q are linearly dependent")
        self.alt_normalizer = self.sub(self.mul(q, q),
                                       self.mul(self.beta_conj, self.beta_conj))
        if self.alt_normalizer == 0:
            raise ValueError("beta^2 - beta^(2q) vanishes")
        phi = [0] * self.order
        for b in range(q):
            for a in range(q):
                phi[a + q * b] = self.add(self.mul(q, a), self.mul(self.beta_conj, b))
        phi_inv = [-1] * self.order
        for i, v in enumerate(phi):
            phi_inv[v] = i
        return {"phi_table": phi, "phi_inv_table": phi_inv}

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.order})")
        return self.mul(a, self._inv[b])

    def pow(self, a, k):
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def conjugate(self, a):
        """x -> x^q on a quadratic extension of GF(q)."""
        return self._conj[a]

    def rel_trace(self, a):
        """x + x^q, a base-field index."""
        return self._rel_trace[a]

    def abs_trace(self, a):
        """x + x^p + ... + x^(p^(e-1)), an element of F_p."""
        return self._abs_trace[a]

    def coeffs(self, a):
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, self.base.order)
            out.append(r)
        return tuple(out)

    def index(self, coeffs):
        a = 0
        for c in reversed(tuple(coeffs)):
            a = a * self.base.order + c
        return a


@lru_cache(maxsize=None)
def loop_field(order):
    """The oracle for ``gf.field(order)``, from the package's field table
    ``errors.FIELDS`` only."""
    entry = FIELDS[order]
    if entry is None:
        return LoopField(p=order)
    return LoopField(base=loop_field(entry[0]), modulus=entry[1])


def loop_kernel_tables(F):
    """The Gram planes and word constants of ``linalg._codes`` for a field F
    (a ``LoopField``), one element, digit or field at a time: ``planes``
    holds F_p digit i of element a at [i, a] and ``struct`` at [l, e*i + j]
    digit l of p^i * p^j, in float64; a code has e w-bit digit fields (w = 1
    for p = 2, else bit_length(p) + 1) and a packed word as many coordinates
    of 2e fields (and a spare top bit for p = 2) as fit in 64 bits; the
    carry constants (p, w - 1, guard bits, bias 2^(w-1) - p per field) are
    int16 for codes and uint64 for words, None for p = 2."""
    p, e, order = F.p, F.e, F.order
    planes = [[0.0] * order for _ in range(e)]
    for i in range(e):
        for a in range(order):
            planes[i][a] = float(a // p ** i % p)
    struct = [[0.0] * (e * e) for _ in range(e)]
    for i in range(e):
        for j in range(e):
            x = F.mul(p ** i, p ** j)
            for l in range(e):
                struct[l][e * i + j] = planes[l][x]
    w = 1 if p == 2 else p.bit_length() + 1
    bits = 2 * e * w + (p == 2)
    per = 64 // bits
    size, carry = per * bits, {}
    for name, n, t in (("carry", e * w, np.int16), ("wide_carry", size, np.uint64)):
        fields = range(n // w)
        carry[name] = None if p == 2 else (
            t(p), t(w - 1), t(sum(1 << w * f + w - 1 for f in fields)),
            t(sum((1 << w - 1) - p << w * f for f in fields)))
    return dict(planes=np.array(planes, dtype=np.float64),
                struct=np.array(struct, dtype=np.float64),
                bits=bits, place=np.array([1 << bits * k for k in range(per)], np.uint64),
                top=np.uint64(sum(1 << bits * k + bits - 1 for k in range(per))),
                low=np.uint64(sum((1 << bits - 1) - 1 << bits * k for k in range(per))),
                **carry)


def scalar_dot(F, u, v) -> int:
    """Plain coordinatewise dot product of two index vectors."""
    acc = 0
    for a, b in zip(u, v, strict=True):
        acc = F.add(acc, F.mul(int(a), int(b)))
    return acc


def scalar_inner(Q, u, v, form: str = "hermitian") -> int:
    """Hermitian, trace or alternating form of two GF(q^2) vectors from the
    Hermitian sum, one coordinate at a time in the loop oracle of Q."""
    L = loop_field(Q.order)
    h = 0
    for a, b in zip(u, v, strict=True):
        h = L.add(h, L.mul(int(a), L.conjugate(int(b))))
    if form == "hermitian":
        return h
    if form == "trace":
        return L.rel_trace(h)
    if form == "alternating":
        return L.div(L.sub(h, L.conjugate(h)), L.alt_normalizer)
    raise ValueError(form)


def hermitian_gram(Q, M) -> np.ndarray:
    """Scalar Hermitian products h(M_i, M_j) of the rows of M."""
    M = linalg.as_matrix(M, cols=np.shape(M)[-1])
    return np.array([[scalar_inner(Q, u, v) for v in M] for u in M],
                    dtype=np.int16).reshape(len(M), len(M))


def hermitian_dual(Q, M) -> np.ndarray:
    """Canonical basis of {v : h(u, v) = 0 for every row u of M}: the
    kernel of the conjugated rows."""
    M, L = linalg.as_matrix(M, cols=np.shape(M)[-1]), loop_field(Q.order)
    conj = [[L.conjugate(int(a)) for a in row] for row in M]
    return loop_kernel(Q, linalg.as_matrix(conj, cols=M.shape[1]))


def hermitian_radical(Q, M) -> np.ndarray:
    """Canonical basis of the span words x . M with h(x . M, M_j) = 0 for
    every j: x runs over the kernel of the transposed Hermitian Gram matrix."""
    M = linalg.as_matrix(M, cols=np.shape(M)[-1])
    x = loop_kernel(Q, hermitian_gram(Q, M).T)
    words = [[scalar_dot(Q, c, col) for col in M.T] for c in x]
    R, rank, _ = loop_rref(Q, linalg.as_matrix(words, cols=M.shape[1]))
    return R[:rank]


def symp_scalar(F, u, v) -> int:
    """<(a|b), (a'|b')> = a.b' - b.a' from two scalar dot products."""
    n = len(u) // 2
    return F.add(scalar_dot(F, u[:n], v[n:]), F.neg(scalar_dot(F, u[n:], v[:n])))


def kernel_radical(F, rows) -> np.ndarray:
    """Canonical basis of the radical of the span of any rows: the words
    x . rows with x G = 0 for their symplectic Gram matrix G, which is
    antisymmetric, so x runs over the kernel of G."""
    M = linalg.as_matrix(rows, cols=np.shape(rows)[-1])
    G = [[symp_scalar(F, u, v) for v in M] for u in M]
    x = loop_kernel(F, linalg.as_matrix(G, cols=len(M)))
    words = [[scalar_dot(F, c, col) for col in M.T] for c in x]
    R, rank, _ = loop_rref(F, linalg.as_matrix(words, cols=M.shape[1]))
    return R[:rank]


def loop_decompose(F, rows):
    """Symplectic Gram-Schmidt one scalar at a time in the loop field of F:
    while some <W[i], W[j]> != 0, the first such (i, j) row-major pairs
    e = W[i] with f = W[j] / <W[i], W[j]>, rows i and j leave and every
    other row v becomes v - <v,f> e + <v,e> f, the form summed afresh each
    step.  Returns (leftover rows, pair rows e1, f1, e2, f2, ...), int16."""
    L, cols = loop_field(F.order), np.shape(rows)[-1]
    W = [[int(x) for x in row] for row in linalg.as_matrix(rows, cols=cols)]
    pairs = []
    while hit := next(((i, j) for i, u in enumerate(W) for j, v in enumerate(W)
                       if symp_scalar(L, u, v)), None):
        i, j = hit
        e, g = W[i], symp_scalar(L, W[i], W[j])
        f = [L.div(x, g) for x in W[j]]
        W = [[L.add(L.sub(x, L.mul(a, y)), L.mul(b, z)) for x, y, z in zip(v, e, f)]
             for k, v in enumerate(W) if k not in hit
             for a, b in [(symp_scalar(L, v, f), symp_scalar(L, v, e))]]
        pairs += [e, f]
    return (np.array(W, dtype=np.int16).reshape(len(W), cols),
            np.array(pairs, dtype=np.int16).reshape(len(pairs), cols))


def trace_dual(code) -> np.ndarray:
    """Preimage basis of the dual of an additive code under the trace form
    rel_trace(h(u, v)): the kernel of the scalar trace values of each
    generator against the 2n preimage unit vectors."""
    Q, n = code.field, code.n
    units = sp.phi(Q, np.eye(2 * n, dtype=np.int16))
    A = [[scalar_inner(Q, g, e, "trace") for e in units] for g in code.generators]
    return loop_kernel(Q.base, linalg.as_matrix(A, cols=2 * n))


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
    None for the zero code."""
    words = span_words(code.base_field, code.preimage)
    n = code.n
    weights = ((words[:, :n] != 0) | (words[:, n:] != 0)).sum(axis=1)
    nonzero = words.any(axis=1)
    return int(weights[nonzero].min()) if nonzero.any() else None


def weight_table(F, rows) -> list[int]:
    """A_0, ..., A_n of the span of preimage basis rows over F: the
    symplectic weight of every word, counted one word at a time."""
    words = span_words(F, rows)
    n = words.shape[1] // 2
    weights = ((words[:, :n] != 0) | (words[:, n:] != 0)).sum(axis=1)
    return [int(c) for c in np.bincount(weights, minlength=n + 1)]


def scalar_dual(F, rows) -> np.ndarray:
    """Canonical basis of the symplectic dual of the span of preimage rows:
    the kernel of the scalar form values of each row against the 2n unit
    vectors."""
    M = linalg.as_matrix(rows, cols=np.shape(rows)[-1])
    units = np.eye(M.shape[1], dtype=np.int16)
    values = [[symp_scalar(F, g, e) for e in units] for g in M]
    return loop_kernel(F, linalg.as_matrix(values, cols=M.shape[1]))


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


def orbit_scan(Q, gens, excluded, chunk):
    """Minimum Hamming weight over the F_q-span of GF(q^2) rows outside the
    span of the last `excluded` rows, one word per F_q^* orbit: the
    coefficient vectors whose first nonzero digit is 1 and comes before the
    last `excluded` digits.  With s as in `odometer_scan`, block 0 holds
    those whose first m - s digits are zero, and each later block the q^s
    vectors that follow one such prefix, the prefixes in odometer order.
    Stops after the first block with weight <= 1.  Returns (best, examined)
    with best = n + 1 when nothing was examined."""
    q = Q.base.order
    m, n = gens.shape
    s = 0
    while s < m and q ** (s + 1) <= chunk:
        s += 1

    def leads(v, stop):
        first = next((i for i, d in enumerate(v) if d), None)
        return first is not None and first < stop and v[first] == 1

    suffixes = list(itertools.product(range(q), repeat=s))
    prefixes = [v for v in itertools.product(range(q), repeat=m - s)
                if leads(v, m - excluded)]
    best, examined = n + 1, 0
    for prefix in [(0,) * (m - s)] + prefixes:
        block = [prefix + v for v in suffixes
                 if any(prefix) or leads(v, s - excluded)]
        if not block:
            continue
        words = np.zeros((len(block), n), dtype=np.int16)
        for c, g in zip(np.array(block).reshape(len(block), m).T, gens):
            words = Q.add_table[words, Q.mul_table[c[:, None], g[None, :]]]
        examined += len(block)
        best = min(best, int((words != 0).sum(axis=1).min()))
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


def phi_puncture(code, coords):
    """Puncture through phi: delete the coordinates from the GF(q^2)
    generators and canonicalize again; the zero code stays zero."""
    drop = set(coords)
    keep = [j for j in range(code.n) if j not in drop]
    if code.m == 0:
        return ac.AdditiveCode.zero(code.field, len(keep))
    return ac.AdditiveCode.from_generators(code.field, code.generators[:, keep])


def term_fidelity(N, d, p):
    """P(at most (d-1)//2 of N qudits hit) summed one Fraction term at a time."""
    p = Fraction(p)
    total = Fraction(0)
    for i in range((d - 1) // 2 + 1):
        total += comb(N, i) * p ** i * (1 - p) ** (N - i)
    return total


def pascal_fidelity(N, d, p):
    """The same tail with Pascal-recurrence binomials."""
    p = Fraction(p)
    t = (d - 1) // 2
    row = [1]
    for _ in range(N):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    q = 1 - p
    return sum((row[i] * p ** i * q ** (N - i) for i in range(t + 1)),
               Fraction(0))


def bisect_crossover(c_params, d_params, p_a):
    """Bisect lam in [0, 1] for the sign change of P(D) - P(C) until the
    interval is at most 1e-9 wide, evaluating P(C) and both factors of P(D)
    afresh at every step."""
    (N, d), ((n, da), (m, db)) = c_params, d_params
    pa = Fraction(p_a)

    def diff(lam):
        return (term_fidelity(n, da, pa) * term_fidelity(m, db, lam * pa)
                - term_fidelity(N, d, pa))

    lo, hi = Fraction(0), Fraction(1)
    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        return None
    while hi - lo > Fraction(1e-9):
        mid = (lo + hi) / 2
        f_mid = diff(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def decimal_format_15(x):
    """15 significant digits through one Decimal division of the full
    numerator by the full denominator."""
    ctx = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN,
                          capitals=1, traps=[])
    return ctx.to_sci_string(ctx.divide(x.numerator, x.denominator))


def integer_format_15(num: int, den: int) -> str:
    """num / den, den > 0, to 15 significant digits from integer division
    alone: a quotient of 15 to 18 digits from a float estimate of the
    exponent, cut to 15 digits with its exact remainder and rounded half to
    even.  No Decimal division, so it stays fast past 10^-100000."""
    n = abs(num)
    s = 16 - int((n.bit_length() - den.bit_length()) * 0.30102999566398120)
    top, bottom = (n * 10 ** s, den) if s >= 0 else (n, den * 10 ** -s)
    drop = len(str(top // bottom)) - 15
    assert 0 <= drop <= 3
    unit = bottom * 10 ** drop
    digits, rem = divmod(top, unit)
    assert rem, "a quotient exact at 15 digits takes Decimal's ideal exponent"
    if 2 * rem > unit or 2 * rem == unit and digits % 2:
        digits += 1
    if digits == 10 ** 15:
        digits, drop = digits // 10, drop + 1
    text = f"{'-' if num < 0 else ''}{digits}E{drop - s}"
    return decimal.Context(capitals=1).to_sci_string(decimal.Decimal(text))


def random_matrix(F, rows: int, cols: int, rng) -> np.ndarray:
    return rng.integers(0, F.order, size=(rows, cols), dtype=np.int64).astype(np.int16)


def two_pass_kernel(F, mat):
    """Canonical basis of {x : M x^T = 0} the long way: the null vector of
    each free column of the RREF, 1 there and minus the column at the
    pivots, then row-reduced again."""
    R, rk, pivots = linalg.rref(F, mat)
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)
    out = np.zeros((free.size, cols), dtype=np.int16)
    out[np.arange(free.size), free] = 1
    out[:, list(pivots)] = F.neg_table[R[:rk, free]].T
    return linalg.row_basis(F, out)


def subspace_sum(F, A, B):
    return linalg.row_basis(F, np.vstack([linalg.as_matrix(A), linalg.as_matrix(B)]))


def subspace_eq(F, A, B) -> bool:
    return np.array_equal(linalg.row_basis(F, A), linalg.row_basis(F, B))


def subspace_contains(F, A, B) -> bool:
    """The row space of A holds that of B: adding B's rows leaves it equal."""
    return subspace_eq(F, A, subspace_sum(F, A, B))


def random_subspace(F, dim: int, cols: int, rng):
    """Canonical basis of a uniformly-ish random subspace of given dimension."""
    while True:
        B = linalg.row_basis(F, random_matrix(F, dim, cols, rng))
        if B.shape[0] == dim:
            return B


def random_additive_code(Q, n: int, m: int, rng):
    return ac.AdditiveCode(Q, random_subspace(Q.base, m, 2 * n, rng))


def reed_solomon(Q, k):
    """RS_k over all points of GF(q^2): rows a^0, ..., a^(k-1) at every a."""
    rows = [[1] * Q.order]
    for _ in range(1, k):
        rows.append([Q.mul(r, a) for r, a in zip(rows[-1], range(Q.order))])
    return ac.AdditiveCode.from_linear(Q, rows)


def count_rref(monkeypatch) -> list:
    """Wrap ``linalg.rref``; the returned list gets the field of each call."""
    fields, rref = [], linalg.rref

    def counted(F, mat):
        fields.append(F)
        return rref(F, mat)

    monkeypatch.setattr(linalg, "rref", counted)
    return fields
