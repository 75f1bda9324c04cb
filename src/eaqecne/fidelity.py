"""Analytic channel-fidelity approximation and code comparison.

A distance-d code of length N corrects up to t = (d-1)//2 errors, so its
fidelity is approximated by the probability that at most t of N qudits are
hit at per-qudit depolarizing rate p:

    sum_{i=0}^{t} C(N,i) p^i (1-p)^(N-i).

A combined pair multiplies Alice's term at rate p_a with the ebit-protection
term at rate p_b = lambda * p_a.  These values sit extremely close to 1, so
every value is exact: with p = a/b and c = b - a the tail is the one integer
c^(N-t) * sum_{i<=t} C(N,i) a^i c^(t-i) over b^N, which pays a single gcd.
A tail falls as its rate grows, so at fixed p_a the pair falls monotonically
in lambda, and bisection finds the one crossover against a single code.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
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


def correction_radius(distance: int) -> int:
    return (distance - 1) // 2


def approx_fidelity(length: int, distance: int, rate) -> Fraction:
    """Exact rational binomial tail: P(at most t errors among `length`)."""
    N, d = _check_code(length, distance)
    p = _rate(rate)
    t = correction_radius(d)
    a, b = p.numerator, p.denominator
    c = b - a
    # Horner in c over the running terms C(N,i) a^i
    head, term = 0, 1
    for i in range(t + 1):
        head = head * c + term
        term = term * (N - i) * a // (i + 1)
    return Fraction(head * c ** (N - t), b ** N)


@dataclass(frozen=True)
class ChannelModel:
    """Depolarizing rates for Alice's channel and Bob's ebit storage."""

    p_a: Fraction
    p_b: Fraction

    @classmethod
    def from_rates(cls, p_a, p_b) -> "ChannelModel":
        return cls(_rate(p_a), _rate(p_b))

    @classmethod
    def from_degradation(cls, p_a, lam) -> "ChannelModel":
        """p_b = lam * p_a; lam above 1 is allowed but flagged."""
        pa = _rate(p_a)
        lam = read_rational(lam, "degradation coefficient")
        if lam < 0:
            raise RangeError(f"degradation coefficient {lam} is negative")
        return cls(pa, _rate(lam * pa))

    @property
    def degradation(self) -> Fraction | None:
        """lam = p_b / p_a, undefined at p_a = 0."""
        return None if self.p_a == 0 else self.p_b / self.p_a

    @property
    def degradation_exceeds_unity(self) -> bool:
        lam = self.degradation
        return lam is not None and lam > 1


def combined_fidelity(ea: tuple[int, int], b: tuple[int, int],
                      ch: ChannelModel) -> Fraction:
    """P(pair) = P(Alice at p_a) * P(Bob at p_b)."""
    n, d = ea
    m, db = b
    return (approx_fidelity(n, d, ch.p_a)
            * approx_fidelity(m, db, ch.p_b))


D_BETTER = "D_better"
C_BETTER = "C_better"
TIE = "tie"


def compare(c_params: tuple[int, int],
            d_params: tuple[tuple[int, int], tuple[int, int]],
            p_a, lam) -> str:
    """Exact ordering of the combined pair D against the single code C."""
    ch = ChannelModel.from_degradation(p_a, lam)
    pc = approx_fidelity(c_params[0], c_params[1], ch.p_a)
    pd = combined_fidelity(d_params[0], d_params[1], ch)
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
    pc = approx_fidelity(c_params[0], c_params[1], pa)
    (n, da), (m, db) = d_params
    alice = approx_fidelity(n, da, pa)

    def diff(lam: Fraction) -> Fraction:
        return alice * approx_fidelity(m, db, lam * pa) - pc

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


@dataclass(frozen=True)
class FidelityCurve:
    """Sampled (p_a, P_C, P_D) rows at a fixed degradation coefficient."""

    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        for (a, pc, pd) in self.rows:
            if not (0 <= pc <= 1 and 0 <= pd <= 1):
                raise RangeError("fidelity values left [0, 1]")
        grid = [r[0] for r in self.rows]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise RangeError("p_a grid must be strictly increasing")


def sweep(c_params: tuple[int, int],
          d_params: tuple[tuple[int, int], tuple[int, int]],
          lam, p_grid) -> FidelityCurve:
    """Evaluate both codes on a strictly increasing grid of p_a values."""
    lamf = read_rational(lam, "degradation coefficient")
    rows = []
    for p in p_grid:
        pa = _rate(p)
        if not 0 < pa < 1:
            raise RangeError(f"grid point {p} outside (0, 1)")
        ch = ChannelModel.from_degradation(pa, lamf)
        rows.append((pa,
                     approx_fidelity(c_params[0], c_params[1], pa),
                     combined_fidelity(d_params[0], d_params[1], ch)))
    return FidelityCurve(rows=tuple(rows))


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


def curve_csv(curve: FidelityCurve) -> str:
    lines = ["p_a,P_C,P_D,diff"]
    for pa, pc, pd in curve.rows:
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
