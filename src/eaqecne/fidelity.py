"""Analytic channel-fidelity approximation and code comparison.

A distance-d code of length N corrects up to t = (d-1)//2 errors, so its
fidelity is approximated by the probability that at most t of N qudits are
hit at per-qudit depolarizing rate p:

    sum_{i=0}^{t} C(N,i) p^i (1-p)^(N-i).

A combined pair multiplies Alice's term at rate p_a with the ebit-protection
term at rate p_b = lambda * p_a.  One pair evaluation serves :func:`sweep`,
:func:`compare` and :func:`crossover_degradation`: P_C and Alice's term at
p_a, and Bob's tail as a function of lambda, the only factor lambda moves.
Every value is exact, since they sit extremely close to 1: with p = a/b and
c = b - a the tail is one integer, c^(N-t) * sum_{i<=t} C(N,i) a^i c^(t-i),
over b^N, which pays a single gcd.  A tail falls as its rate grows, so at
fixed p_a the pair falls monotonically in lambda, and bisection finds the
one crossover against a single code.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from operator import index

from .errors import RangeError


def read_rational(x, what: str) -> Fraction:
    """x as an exact rational; anything Fraction cannot read is a RangeError."""
    try:
        return Fraction(x)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise RangeError(f"cannot read {x!r} as a {what}") from exc


def _rate(p) -> Fraction:
    r = read_rational(p, "rate")
    if not 0 <= r <= 1:
        raise RangeError(f"rate {p} outside [0, 1]")
    return r


def _check_code(length, distance) -> tuple[int, int]:
    try:
        length, distance = index(length), index(distance)
    except TypeError as exc:
        raise RangeError(f"length {length!r} and distance {distance!r} "
                         f"must be integers") from exc
    if length < 1:
        raise RangeError(f"length {length} must be positive")
    if not 1 <= distance <= length:
        raise RangeError(f"distance {distance} outside [1, {length}]")
    return length, distance


def approx_fidelity(length: int, distance: int, rate) -> Fraction:
    """Exact rational binomial tail: P(at most t errors among `length`)."""
    N, d = _check_code(length, distance)
    p = _rate(rate)
    t = (d - 1) // 2
    a, b = p.numerator, p.denominator
    c = b - a
    # Horner in c over the running terms C(N,i) a^i
    head, term = 0, 1
    for i in range(t + 1):
        head = head * c + term
        term = term * (N - i) * a // (i + 1)
    return Fraction(head * c ** (N - t), b ** N)


def _pair(c_params, d_params, pa: Fraction):
    """P_C and Alice's term at p_a, and Bob's tail as a function of lam."""
    pc = approx_fidelity(c_params[0], c_params[1], pa)
    (n, da), (m, db) = d_params
    alice = approx_fidelity(n, da, pa)

    def bob(lam: Fraction) -> Fraction:
        return approx_fidelity(m, db, lam * pa)

    return pc, alice, bob


def _check_degradation(lam: Fraction, pa: Fraction) -> None:
    """lam >= 0 with p_b = lam * p_a a rate; lam above 1 is allowed."""
    if lam < 0:
        raise RangeError(f"degradation coefficient {lam} is negative")
    _rate(lam * pa)


D_BETTER = "D_better"
C_BETTER = "C_better"
TIE = "tie"


def compare(c_params: tuple[int, int],
            d_params: tuple[tuple[int, int], tuple[int, int]],
            p_a, lam) -> str:
    """Exact ordering of the combined pair D against the single code C."""
    pa = _rate(p_a)
    lam = read_rational(lam, "degradation coefficient")
    _check_degradation(lam, pa)
    pc, alice, bob = _pair(c_params, d_params, pa)
    pd = alice * bob(lam)
    if pd > pc:
        return D_BETTER
    if pc > pd:
        return C_BETTER
    return TIE


def crossover_degradation(c_params, d_params, p_a,
                          tol: float = 1e-9) -> Fraction | None:
    """Bisect lam in [0, 1] for the sign change of P(D) - P(C).

    Returns None when the difference has the same sign at both endpoints;
    exact rational evaluations, lam resolved to within `tol` > 0.  Only Bob's
    tail depends on lam, so P(C) and Alice's term are computed once.
    """
    width = read_rational(tol, "tolerance")
    if not width > 0:
        raise RangeError(f"tol must be positive, got {tol}")
    pa = _rate(p_a)
    if not 0 < pa < 1:
        raise RangeError(f"p_a must lie strictly inside (0, 1), got {p_a}")
    pc, alice, bob = _pair(c_params, d_params, pa)

    def diff(lam: Fraction) -> Fraction:
        return alice * bob(lam) - pc

    lo, hi = Fraction(0), Fraction(1)
    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        return None
    while hi - lo > width:
        mid = (lo + hi) / 2
        f_mid = diff(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def sweep(c_params: tuple[int, int],
          d_params: tuple[tuple[int, int], tuple[int, int]],
          lam, p_grid) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Exact (p_a, P_C, P_D) rows on a strictly increasing grid of p_a."""
    lamf = read_rational(lam, "degradation coefficient")
    rows = []
    for p in p_grid:
        pa = _rate(p)
        if not 0 < pa < 1:
            raise RangeError(f"grid point {p} outside (0, 1)")
        _check_degradation(lamf, pa)
        pc, alice, bob = _pair(c_params, d_params, pa)
        rows.append((pa, pc, alice * bob(lamf)))
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise RangeError("p_a grid must be strictly increasing")
    return rows


# built once (a Context costs about a short division); its flags go unread
_FORMAT_CONTEXT = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN,
                                  capitals=1, traps=[])


def format_15(x: Fraction) -> str:
    """Render an exact rational to 15 significant digits in a fixed context.

    An integer quotient of at least 17 digits, with a sticky digit 1 for a
    nonzero remainder, rounds once to the digits of the exact value; only an
    exact quotient goes through ``Context.divide``, for its ideal exponent
    (1/8 prints 0.125)."""
    ctx = _FORMAT_CONTEXT
    n, d = abs(x.numerator), x.denominator
    # 1233 / 4096 is just below log10(2)
    k = 18 - ((n.bit_length() - d.bit_length() - 1) * 1233 >> 12)
    q, rem = divmod(n * 10 ** k, d) if k >= 0 else divmod(n, d * 10 ** -k)
    if not rem:
        return ctx.to_sci_string(ctx.divide(x.numerator, x.denominator))
    sign = "-" if x < 0 else ""
    return ctx.to_sci_string(ctx.create_decimal(f"{sign}{q}1E{-k - 1}"))


def curve_csv(rows) -> str:
    """The (p_a, P_C, P_D) rows of :func:`sweep` as CSV with a diff column."""
    lines = ["p_a,P_C,P_D,diff"]
    for pa, pc, pd in rows:
        lines.append(",".join([format_15(pa), format_15(pc), format_15(pd),
                               format_15(pd - pc)]))
    return "\n".join(lines) + "\n"


def parse_grid(spec: str) -> list[Fraction]:
    """Parse 'start:stop:steps' into an inclusive linear grid of rationals."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise RangeError(f"grid must be start:stop:steps, got {spec!r}")
    try:
        start, stop = Fraction(parts[0]), Fraction(parts[1])
        steps = int(parts[2])
    except (ValueError, ZeroDivisionError) as exc:
        raise RangeError(f"bad grid {spec!r}") from exc
    if steps < 1:
        raise RangeError("grid needs at least one point")
    if steps == 1:
        return [start]
    if stop <= start:
        raise RangeError("grid stop must exceed start")
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]
