"""Finite fields GF(p^e) and their quadratic extensions, as lookup tables.

Every element is an integer index in ``[0, order)``.  A prime-field index is
the element itself.  An extension element with coefficient vector
``(c_0, ..., c_{d-1})`` over its base field (low degree first) has index
``idx(c_0) + idx(c_1)*B + idx(c_2)*B^2 + ...`` where ``B`` is the base-field
order; unwinding the chain down to the prime field this is exactly base-p
positional encoding of the F_p coefficient vector.

The fields are the entries of the table ``errors.FIELDS``, and
``field(order)`` builds one: the base orders 2, 3, 4, 5, 7, 8, 9, each with
a quadratic extension GF(q^2) = GF(q)[x]/(x^2 + a*x + b).  The residue class
beta of ``x`` is the designated basis generator of GF(q^2) over GF(q), and
its conjugate beta^q is the other root of the modulus, -a - beta (Vieta);
every entry has a != 0, so the two are independent.

A field is its arithmetic tables; the kernels' encodings of it live in
``linalg._codes``.  The package asks every Hermitian and trace question on
the symplectic preimage, so traces, conjugation and Frobenius are not
computed here; they live only in the test oracle.

All orders are at most 81, so every table is a full array, built for all
elements at once by a few numpy expressions when :func:`field` first asks for
the field (never at import) and shared after; operations on numpy index
arrays vectorize through fancy indexing on those tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (FIELDS, SUPPORTED_ORDERS, DivisionByZero,
                     NotQuadraticExtension)

_TABLE_DTYPE = np.int16


class FieldSpec:
    """Immutable lookup tables for GF(order), one entry of ``errors.FIELDS``,
    read by add/neg/mul/inv.  Build through :func:`field`, which shares
    one instance per order.  Safe to share across threads: nothing mutates
    after ``__init__``.

    Every table is one array expression over all elements at once.  For an
    extension the coefficient arrays ``idx // B**i % B`` are added and
    convolved through the base field's tables, the product is reduced by the
    monic modulus, and the results are encoded back; negation and inversion
    are the positions of 0 and 1 in each row of the new tables.
    """

    def __init__(self, order: int):
        if order not in FIELDS:
            raise ValueError(
                f"unsupported field order {order}; orders are {tuple(FIELDS)}")
        entry = FIELDS[order]
        self.order = order
        if entry is None:
            self.p = p = order
            self.base = None
            self.modulus = (0, 1)  # the residue ring F_p[x]/(x) ~ F_p
            self.degree = 1
            self.e = 1
            rng = np.arange(p, dtype=_TABLE_DTYPE)
            self.add_table = (rng[:, None] + rng[None, :]) % p
            self.mul_table = (rng[:, None] * rng[None, :]) % p
        else:
            base = field(entry[0])
            self.p = base.p
            self.base = base
            self.modulus = entry[1]
            self.degree = d = len(self.modulus) - 1
            self.e = base.e * d
            B, ADD, MUL = base.order, base.add_table, base.mul_table
            digits = np.arange(order) // B ** np.arange(d)[:, None] % B
            a, b = digits[:, :, None], digits[:, None, :]
            prod = [np.zeros((order, order), dtype=_TABLE_DTYPE)
                    for _ in range(2 * d - 1)]
            for i in range(d):
                for j in range(d):
                    prod[i + j] = ADD[prod[i + j], MUL[a[i], b[j]]]
            # fold x^k, highest k first, by x^d = -(m_0 + ... + m_{d-1} x^(d-1))
            neg_mod = base.neg_table[np.array(self.modulus[:d])]
            for k in range(2 * d - 2, d - 1, -1):
                for i in range(d):
                    prod[k - d + i] = ADD[prod[k - d + i], MUL[prod[k], neg_mod[i]]]
            self.add_table = sum(ADD[a[i], b[i]] * B ** i for i in range(d))
            self.mul_table = sum(prod[i] * B ** i for i in range(d))
        self.neg_table = (self.add_table == 0).argmax(axis=1).astype(_TABLE_DTYPE)
        # kept for bench/fields.py, its only reader
        self.sub_table = self.add_table[:, self.neg_table]
        self.inv_table = (self.mul_table == 1).argmax(axis=1).astype(_TABLE_DTYPE)
        if self.is_quadratic:
            self._finalize_quadratic()
        else:
            self.beta = None

    # -- construction internals -------------------------------------------

    def _finalize_quadratic(self):
        q, idx, a = self.base.order, np.arange(self.order), self.modulus[1]
        self.beta = q  # residue class of x: coefficients (0, 1)
        self.beta_conj = self.add(self.neg(a), self.neg(self.beta))  # -a - beta (Vieta)
        # (beta - beta^q)(beta + beta^q) = -a(2 beta + a), which is a^2 in
        # characteristic 2, so it never vanishes
        self.alt_normalizer = self.add(self.mul(self.beta, self.beta),
                                       self.neg(self.mul(self.beta_conj, self.beta_conj)))
        # phi on a single coordinate pair: (a|b) -> beta*a + beta^q*b,
        # indexed by a + q*b; a bijection GF(q)^2 -> GF(q^2).
        phi = self.add_table[self.mul_table[self.beta, idx % q],
                             self.mul_table[self.beta_conj, idx // q]]
        inv = np.full(self.order, -1, dtype=_TABLE_DTYPE)
        inv[phi] = idx
        assert (inv >= 0).all(), "phi is not a bijection"
        self.phi_table = phi
        self.phi_inv_table = inv

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"division by zero in {self!r}")
        return int(self.inv_table[a])

    # -- encoding -------------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector over the base field, low degree first."""
        if self.base is None:
            return (a,)
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, self.base.order)
            out.append(r)
        return tuple(out)

    # -- quadratic extensions -------------------------------------------------

    @property
    def is_quadratic(self) -> bool:
        return self.base is not None and self.degree == 2

    def _require_quadratic(self):
        if not self.is_quadratic:
            raise NotQuadraticExtension(
                f"{self!r} is not a quadratic extension")

    # -- presentation -----------------------------------------------------------

    def _terms(self, coeffs, var: str) -> list[str]:
        """Rendered nonzero terms c_i*var^i, low degree first.

        Base-field coefficients of a tower field use the next letter, so a
        GF(16) element reads like ``(1 + y) + y*x``.
        """
        nested = chr(ord(var) + 1)
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            cs = self.base.poly_str(c, nested)
            cs = f"({cs})" if "+" in cs else cs
            if i == 0:
                terms.append(cs)
            else:
                head = "" if cs == "1" else f"{cs}*"
                terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return terms

    def poly_str(self, a: int, var: str = "x") -> str:
        """Human-readable polynomial form of an element index."""
        if self.base is None:
            return str(a)
        return " + ".join(self._terms(self.coeffs(a), var)) or "0"

    def modulus_str(self) -> str:
        if self.base is None:
            return "x"
        return " + ".join(reversed(self._terms(self.modulus, "x")))

    def __repr__(self) -> str:
        return f"GF({self.order})"


@lru_cache(maxsize=None)
def field(order: int) -> FieldSpec:
    """Return the canonical spec for GF(order): its entry in ``errors.FIELDS``."""
    return FieldSpec(order)


def quadratic_field(base: FieldSpec) -> FieldSpec:
    """The canonical GF(q^2) over a supported base GF(q)."""
    if base.order not in SUPPORTED_ORDERS:
        raise ValueError(f"no quadratic extension shipped for {base!r}")
    return field(base.order ** 2)

