"""Parameter records and the published families' tables, without numpy.

:class:`EAQECCParams` is one [[n, k, d; c]]_q record; a stabilizer code is
its c = 0 case.  :class:`CombinationParams` ``(alice, bob)`` pairs Alice's
EA code with the stabilizer code Bob uses to protect the c shared ebits on
his side, and rejects a Bob record with c != 0: Bob's code matches when it
has at least c logical qudits, properly matches when it has exactly c, and
the pair is faithful when Bob's distance is at least 3.  The records and
the tables are plain Python, so ``eaqecne match`` and ``eaqecne tables``
load no numpy; :mod:`eaqecne.eaqec` derives the records from codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SUPPORTED_ORDERS, FieldMismatch, RangeError, _integer


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
        for name in ("q", "n", "k", "c") if self.d is None else ("q", "n", "k", "c", "d"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.q not in SUPPORTED_ORDERS:
            raise RangeError(f"q={self.q} is not a supported order {SUPPORTED_ORDERS}")
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
        m = _integer(m, "family parameter m")
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
