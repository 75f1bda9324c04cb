"""Analytic channel-fidelity approximation and code comparison.

A distance-d code of length N corrects up to t = (d-1)//2 errors, so its
fidelity is approximated by the probability that at most t of N qudits are
hit at per-qudit depolarizing rate p:

    sum_{i=0}^{t} C(N,i) p^i (1-p)^(N-i).

A combined pair multiplies Alice's term at rate p_a with the ebit-protection
term at rate p_b = lambda * p_a.  Every value is exact, since they sit
extremely close to 1: with p = a/b and c = b - a the tail is one integer,
c^(N-t) * sum_{i<=t} C(N,i) a^i c^(t-i), over b^N, for a/b reduced or not.
:func:`compare` and :func:`crossover_degradation` share one pair evaluation,
with P_C as :func:`approx_fidelity`'s Fraction; :func:`sweep` and
:func:`curve_csv` share integer rows, whose denominators change only with
p_a's, and only :func:`sweep` reduces them.  Checks and comparisons
cross-multiply; P_D falls in lambda, so bisection finds the crossover.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .errors import RangeError, _integer


def read_rational(x, what: str) -> Fraction:
    """x as an exact rational; anything Fraction cannot read is a RangeError."""
    try:
        return Fraction(x)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise RangeError(f"cannot read {x!r} as a {what}") from exc


def read_degradation(lam) -> Fraction:
    """The degradation coefficient lam = p_b / p_a as an exact rational."""
    return read_rational(lam, "degradation coefficient")


def _rate(p) -> Fraction:
    r = read_rational(p, "rate")
    if not 0 <= r.numerator <= r.denominator:
        raise RangeError(f"rate {p} outside [0, 1]")
    return r


def _check_code(length, distance) -> tuple[int, int]:
    length, distance = _integer(length, "length"), _integer(distance, "distance")
    if length < 1:
        raise RangeError(f"length {length} must be positive")
    if not 1 <= distance <= length:
        raise RangeError(f"distance {distance} outside [1, {length}]")
    return length, (distance - 1) // 2  # and the t errors the code corrects


def _tail(N: int, t: int, a: int, b: int) -> int:
    """Numerator over b**N of P(at most t of N hit) at rate a/b, reduced or not."""
    # Horner in c over the running terms C(N,i) a^i
    c, head, term = b - a, 0, 1
    for i in range(t + 1):
        head = head * c + term
        term = term * (N - i) * a // (i + 1)
    return head * c ** (N - t)


def approx_fidelity(length: int, distance: int, rate) -> Fraction:
    """Exact rational binomial tail: P(at most t errors among `length`)."""
    N, t = _check_code(length, distance)
    p = _rate(rate)
    return Fraction(_tail(N, t, p.numerator, p.denominator), p.denominator ** N)


def _pair(c_params, d_params, pa: Fraction):
    """P_C and Alice's (num, den) at p_a, and lam -> Bob's (num, den)."""
    pc = approx_fidelity(c_params[0], c_params[1], pa)
    (n, ta), (m, tb) = (_check_code(length, d) for length, d in d_params)
    a, b = pa.numerator, pa.denominator

    def bob(lam: Fraction) -> tuple[int, int]:
        den = lam.denominator * b  # the rate lam_num * a / den, unreduced
        return _tail(m, tb, lam.numerator * a, den), den ** m

    return pc, (_tail(n, ta, a, b), b ** n), bob


def _check_degradation(lam: Fraction, pa: Fraction) -> None:
    """lam >= 0 with p_b = lam * p_a a rate; lam above 1 is allowed."""
    if lam.numerator < 0:
        raise RangeError(f"degradation coefficient {lam} is negative")
    if lam.numerator * pa.numerator > lam.denominator * pa.denominator:
        raise RangeError(f"rate {lam * pa} outside [0, 1]")


D_BETTER = "D_better"
C_BETTER = "C_better"
TIE = "tie"


def compare(c_params: tuple[int, int],
            d_params: tuple[tuple[int, int], tuple[int, int]],
            p_a, lam) -> str:
    """Exact ordering of the combined pair D against the single code C."""
    pa = _rate(p_a)
    lam = read_degradation(lam)
    _check_degradation(lam, pa)
    pc, (alice, da), bob = _pair(c_params, d_params, pa)
    num, den = bob(lam)
    gap = alice * num * pc.denominator - pc.numerator * da * den  # sign of P_D - P_C
    return D_BETTER if gap > 0 else C_BETTER if gap < 0 else TIE


def crossover_degradation(c_params, d_params, p_a) -> Fraction | None:
    """Bisect lam in [0, 1] for the sign change of P(D) - P(C).

    Returns None when the difference has the same sign at both endpoints;
    exact rational evaluations, lam resolved by 30 halvings to a dyadic
    rational over 2^31.  Only Bob's tail depends on lam, so P(C) and Alice's
    term are computed once.
    """
    pa = _rate(p_a)
    if not 0 < pa.numerator < pa.denominator:
        raise RangeError(f"p_a must lie strictly inside (0, 1), got {p_a}")
    pc, (alice, da), bob = _pair(c_params, d_params, pa)
    alice_dc, pc_da = alice * pc.denominator, pc.numerator * da

    def diff(lam: Fraction) -> int:  # P(D) - P(C) times a positive integer
        num, den = bob(lam)
        return alice_dc * num - pc_da * den

    lo, hi = Fraction(0), Fraction(1)
    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        return None
    for _ in range(30):
        mid = (lo + hi) / 2
        f_mid = diff(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _rows(c_params, d_params, lam, p_grid):
    """Each grid point p_a = a/b, reduced, as integers (a, b, P_C over b**N, P_D
    over its denominator); the denominators change only when b does."""
    lam = read_degradation(lam)
    rows = []
    for p in p_grid:
        pa = _rate(p)
        if not 0 < pa.numerator < pa.denominator:
            raise RangeError(f"grid point {p} outside (0, 1)")
        _check_degradation(lam, pa)
        if not rows:  # the codes, once
            (N, t), (n, ta), (m, tb) = (_check_code(c_params[0], c_params[1]),
                                        *(_check_code(length, d) for length, d in d_params))
        a, b = pa.numerator, pa.denominator
        if not rows or b != rows[-1][1]:
            dc, dd = b ** N, b ** n * (lam.denominator * b) ** m
        bob = _tail(m, tb, lam.numerator * a, lam.denominator * b)
        rows.append((a, b, _tail(N, t, a, b), dc, _tail(n, ta, a, b) * bob, dd))
    if any(a1 * b0 <= a0 * b1 for (a0, b0, *_), (a1, b1, *_) in zip(rows, rows[1:])):
        raise RangeError("p_a grid must be strictly increasing")
    return rows


def sweep(c_params: tuple[int, int],
          d_params: tuple[tuple[int, int], tuple[int, int]],
          lam, p_grid) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Exact (p_a, P_C, P_D) rows on a strictly increasing grid of p_a."""
    return [(Fraction(a, b), Fraction(pc, dc), Fraction(pd, dd))
            for a, b, pc, dc, pd, dd in _rows(c_params, d_params, lam, p_grid)]


# built once (a Context costs about a short division); its flags go unread
_FORMAT_CONTEXT = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN,
                                  capitals=1, traps=[])


def _format_15(num: int, den: int) -> str:
    """Render num / den, den > 0, reduced or not, to 15 significant digits.

    An integer quotient of at least 17 digits, with a sticky digit 1 for a
    nonzero remainder, rounds once to the digits of the exact value; only an
    exact quotient goes through ``Context.divide``, for its ideal exponent
    (1/8 and 2/16 print 0.125)."""
    ctx = _FORMAT_CONTEXT
    n = abs(num)
    # k from the bit gap e times 1292913986 / 2^32, 1.8e-11 below log10(2):
    # the quotient has at least 18 - |e| * 1.8e-11 digits, so 17 up to a gap
    # of 5e10 bits (1233 / 4096, 4.6e-6 below, could fall short past 4e5 bits)
    k = 18 - ((n.bit_length() - den.bit_length() - 1) * 1292913986 >> 32)
    q, rem = divmod(n * 10 ** k, den) if k >= 0 else divmod(n, den * 10 ** -k)
    if not rem:
        return ctx.to_sci_string(ctx.divide(num, den))
    sign = "-" if num < 0 else ""
    return ctx.to_sci_string(ctx.create_decimal(f"{sign}{q}1E{-k - 1}"))


def format_15(x: Fraction) -> str:
    """Render an exact rational to 15 significant digits in a fixed context."""
    return _format_15(x.numerator, x.denominator)


def curve_csv(c_params, d_params, lam, p_grid) -> str:
    """:func:`sweep`'s rows as CSV with a diff column, rendered with no gcd."""
    lines = ["p_a,P_C,P_D,diff"]
    for a, b, pc, dc, pd, dd in _rows(c_params, d_params, lam, p_grid):
        lines.append(",".join([_format_15(a, b), _format_15(pc, dc), _format_15(pd, dd),
                               _format_15(pd * dc - pc * dd, dd * dc)]))
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
    # point i is start + i * (stop - start) / (steps - 1) over one denominator
    (a, b), (c, d), s = start.as_integer_ratio(), stop.as_integer_ratio(), steps - 1
    return [Fraction(a * d * s + i * (c * b - a * d), b * d * s) for i in range(steps)]
