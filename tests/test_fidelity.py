"""Binomial fidelity approximation, comparisons, crossover, and sweeps."""

import decimal
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eaqecne.errors import RangeError
from eaqecne import fidelity as fid

from oracles import (bisect_crossover, decimal_format_15, integer_format_15,
                     pascal_fidelity as oracle_fidelity,
                     term_fidelity)

GOLDEN = json.loads(Path(__file__).with_name("golden_fidelity.json").read_text())


# frozen from the oracle at N=17, d=7, p=1/100
FROZEN_17_7 = Fraction(499989277622930085588098300713353,
                       500000000000000000000000000000000)


def test_endpoints():
    assert fid.approx_fidelity(10, 5, 0) == 1
    # d = 1 keeps only the no-error term
    p = Fraction(3, 10)
    assert fid.approx_fidelity(8, 1, p) == (1 - p) ** 8


def test_frozen_fixture():
    assert fid.approx_fidelity(17, 7, Fraction(1, 100)) == FROZEN_17_7
    assert oracle_fidelity(17, 7, Fraction(1, 100)) == FROZEN_17_7


def test_matches_oracle_random():
    rnd = random.Random(123)
    for _ in range(200):
        N = rnd.randint(1, 64)
        d = rnd.randint(1, N)
        p = Fraction(rnd.randint(0, 1000), 1000)
        assert fid.approx_fidelity(N, d, p) == oracle_fidelity(N, d, p)


def test_range_errors():
    with pytest.raises(RangeError):
        fid.approx_fidelity(5, 0, 0.1)
    with pytest.raises(RangeError):
        fid.approx_fidelity(5, 6, 0.1)
    with pytest.raises(RangeError):
        fid.approx_fidelity(5, 3, 1.5)
    with pytest.raises(RangeError):
        fid.approx_fidelity(0, 1, 0.1)


def test_bounds_and_monotonicity():
    rnd, pair_rnd = random.Random(7), random.Random(8)
    for _ in range(30):
        N = rnd.randint(2, 40)
        d = rnd.randint(1, N)
        values = [fid.approx_fidelity(N, d, Fraction(i, 40)) for i in range(21)]
        assert all(0 <= v <= 1 for v in values)
        # non-increasing in p on [0, 1/2]
        assert all(a >= b for a, b in zip(values, values[1:]))
        # equals 1 only at p = 0 when t < N
        if (d - 1) // 2 < N:
            assert values[0] == 1 and all(v < 1 for v in values[1:])
        # sweep rows on p_a in (0, 1/2]: lam <= 2 keeps p_b = lam * p_a a rate
        n, m = pair_rnd.randint(1, 40), pair_rnd.randint(1, 40)
        pair = ((n, pair_rnd.randint(1, n)), (m, pair_rnd.randint(1, m)))
        lam = Fraction(pair_rnd.randint(0, 80), 40)
        grid = [Fraction(i, 40) for i in range(1, 21)]
        rows = fid.sweep((N, d), pair, lam, grid)
        assert all(0 <= pc <= 1 and 0 <= pd <= 1 for _, pc, pd in rows)


def test_monotone_in_distance():
    p = Fraction(1, 20)
    for N in (5, 17, 30):
        vals = [fid.approx_fidelity(N, d, p) for d in range(1, N + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_channel_model():
    # p_b = lam * p_a: Bob's tail is taken at p_a / 10
    [(pa, pc, pd)] = fid.sweep((17, 7), ((11, 7), (6, 3)), Fraction(1, 10),
                               [Fraction(1, 50)])
    assert pa == Fraction(1, 50) and pc == fid.approx_fidelity(17, 7, pa)
    assert pd == fid.approx_fidelity(11, 7, pa) * fid.approx_fidelity(6, 3, Fraction(1, 500))
    # lam * p_a > 1
    for call in (lambda: fid.compare((17, 7), ((11, 7), (6, 3)), Fraction(1, 2), 3),
                 lambda: fid.sweep((17, 7), ((11, 7), (6, 3)), 3, [Fraction(1, 2)])):
        with pytest.raises(RangeError, match=r"^rate 3/2 outside \[0, 1\]$"):
            call()


def test_combined_fidelity_identities():
    ea, bob, pa = (11, 7), (6, 3), Fraction(1, 30)
    [(_, _, pd0)] = fid.sweep((17, 7), (ea, bob), 0, [pa])
    assert pd0 == fid.approx_fidelity(11, 7, pa)
    assert fid.compare((11, 7), (ea, bob), pa, 0) == fid.TIE
    # d_b = 1: the Bob factor collapses to (1-p_b)^m, here p_b = 1/60
    pb = Fraction(1, 60)
    [(_, _, got)] = fid.sweep((17, 7), (ea, (6, 1)), Fraction(1, 2), [pa])
    assert got == fid.approx_fidelity(11, 7, pa) * (1 - pb) ** 6
    # product is below both factors
    [(_, _, both)] = fid.sweep((17, 7), (ea, bob), Fraction(1, 2), [pa])
    assert both <= fid.approx_fidelity(11, 7, pa)
    assert both <= fid.approx_fidelity(6, 3, pb)


def test_compare():
    assert fid.compare((17, 7), ((11, 7), (6, 3)), 0, Fraction(1, 100)) == fid.TIE
    assert fid.compare((17, 7), ((11, 7), (6, 3)),
                       Fraction(1, 100), Fraction(1, 100)) == fid.D_BETTER
    # heavy ebit noise with lots of extra Bob exposure favours the plain code
    assert fid.compare((11, 7), ((11, 7), (40, 3)),
                       Fraction(1, 10), 1) == fid.C_BETTER


def test_compare_at_lambda_zero_reduces_to_single_codes():
    pa = Fraction(3, 100)
    got = fid.compare((17, 7), ((11, 7), (6, 3)), pa, 0)
    pc = fid.approx_fidelity(17, 7, pa)
    pd = fid.approx_fidelity(11, 7, pa)
    assert (got == fid.D_BETTER) == (pd > pc)


def test_crossover_found_and_verified():
    # D beats C at lam=0 but loses at lam=1 for this configuration
    c, dpair, pa = (17, 7), ((11, 7), (6, 3)), Fraction(1, 1000)
    lo = fid.compare(c, dpair, pa, 0)
    hi = fid.compare(c, dpair, pa, 1)
    assert (lo, hi) == (fid.D_BETTER, fid.C_BETTER)
    lam = fid.crossover_degradation(c, dpair, pa)
    assert lam is not None
    eps = Fraction(1, 10 ** 6)
    assert fid.compare(c, dpair, pa, lam - eps) == fid.D_BETTER
    assert fid.compare(c, dpair, pa, lam + eps) == fid.C_BETTER


def test_crossover_none():
    # D dominates across the whole degradation range at small p_a
    assert fid.crossover_degradation((17, 1), ((11, 7), (6, 3)),
                                     Fraction(1, 100)) is None
    with pytest.raises(RangeError):
        fid.crossover_degradation((17, 7), ((11, 7), (6, 3)), 0)


def test_sweep_structure():
    grid = [Fraction(i, 1000) for i in range(1, 6)]
    rows = fid.sweep((17, 7), ((11, 7), (6, 3)), Fraction(1, 100), grid)
    assert len(rows) == 5
    single = fid.sweep((17, 7), ((11, 7), (6, 3)), Fraction(1, 2), grid[:1])
    assert len(single) == 1
    # C column ignores the degradation coefficient
    other = fid.sweep((17, 7), ((11, 7), (6, 3)), Fraction(99, 100), grid)
    assert [r[1] for r in rows] == [r[1] for r in other]
    with pytest.raises(RangeError):
        fid.sweep((17, 7), ((11, 7), (6, 3)), Fraction(1, 2), [Fraction(0)])


@pytest.mark.parametrize("grid", [[Fraction(1, 4), Fraction(1, 4)],
                                  [Fraction(1, 4), Fraction(1, 8)],
                                  [Fraction(1, 100), Fraction(3, 100), Fraction(2, 100)]],
                         ids=["repeated", "decreasing", "unordered"])
def test_sweep_rejects_grid_not_increasing(grid):
    for render in (fid.sweep, fid.curve_csv):
        with pytest.raises(RangeError, match="^p_a grid must be strictly increasing$"):
            render((17, 7), ((11, 7), (6, 3)), Fraction(1, 10), grid)


def test_sweep_empty_grid_has_no_rows():
    # nothing is evaluated, so neither lambda's sign nor the codes are checked
    assert fid.sweep((17, 7), ((11, 7), (6, 3)), Fraction(1, 10), []) == []
    assert fid.sweep((0, 0), ((11, 7), (6, 3)), -1, []) == []
    assert fid.curve_csv((0, 0), ((11, 7), (6, 3)), -1, []) == "p_a,P_C,P_D,diff\n"


# sweeps bad in two ways at once, each run through sweep and curve_csv
DOUBLY_BAD_SWEEPS = {
    "unordered-grid-point-1": (((17, 7), ((11, 7), (6, 3)), Fraction(1, 10),
                                [Fraction(1, 2), Fraction(1, 4), Fraction(1)]),
                               "grid point 1 outside (0, 1)"),
    "unordered-grid-rate": (((17, 7), ((11, 7), (6, 3)), Fraction(1, 10),
                             [Fraction(1, 2), Fraction(1, 4), Fraction(3, 2)]),
                            "rate 3/2 outside [0, 1]"),
    "unordered-negative-lambda": (((17, 7), ((11, 7), (6, 3)), -1,
                                   [Fraction(1, 2), Fraction(1, 4)]),
                                  "degradation coefficient -1 is negative"),
    "unordered-bad-code": (((17, 0), ((11, 7), (6, 3)), Fraction(1, 10),
                            [Fraction(1, 2), Fraction(1, 4)]),
                           "distance 0 outside [1, 17]"),
    "sweep-bad-codes-hot-bob": (((17, 0), ((11, 0), (6, 3)), 3, [Fraction(1, 2)]),
                                "rate 3/2 outside [0, 1]"),
}


# inputs bad in two ways at once: p_a, then lambda, then lambda * p_a, then
# the codes, and every grid point before the grid's order
@pytest.mark.parametrize("call, message", [
    *(pytest.param(partial(render, *args), message,
                   id=name if render is fid.sweep else f"{name}-csv")
      for name, (args, message) in DOUBLY_BAD_SWEEPS.items()
      for render in (fid.sweep, fid.curve_csv)),
    pytest.param(lambda: fid.compare((17, 7), ((11, 0), (6, 3)), Fraction(1, 2), 3),
                 "rate 3/2 outside [0, 1]", id="compare-bad-pair-hot-bob"),
    pytest.param(lambda: fid.compare((17, 99), ((11, 7), (6, 9)), Fraction(1, 2), 3),
                 "rate 3/2 outside [0, 1]", id="compare-bad-distances-hot-bob"),
    pytest.param(lambda: fid.compare((0, 7), ((11, 7), (6, 3)), Fraction(1, 2), -1),
                 "degradation coefficient -1 is negative",
                 id="compare-bad-code-negative-lambda"),
    pytest.param(lambda: fid.compare((17, 7), ((11, 7), (6, 3)), 2, -1),
                 "rate 2 outside [0, 1]", id="compare-bad-rate-negative-lambda"),
    pytest.param(lambda: fid.crossover_degradation((17, 0), ((11, 0), (6, 0)),
                                                   Fraction(1, 2)),
                 "distance 0 outside [1, 17]", id="crossover-bad-codes"),
    pytest.param(lambda: fid.crossover_degradation((17, 7), ((11, 7), (6, 0)),
                                                   Fraction(1, 2)),
                 "distance 0 outside [1, 6]", id="crossover-bad-bob"),
])
def test_first_error_of_doubly_bad_inputs(call, message):
    with pytest.raises(RangeError) as exc:
        call()
    assert str(exc.value) == message


def test_csv_rendering():
    grid = [Fraction(1, 100)]
    text = fid.curve_csv((17, 7), ((11, 7), (6, 3)), Fraction(1, 100), grid)
    lines = text.strip().splitlines()
    assert lines[0] == "p_a,P_C,P_D,diff"
    assert lines[1].startswith("0.01,0.999978555245860,")
    assert fid.format_15(*FROZEN_17_7.as_integer_ratio()) == "0.999978555245860"


def test_parse_grid():
    got = fid.parse_grid("0.001:0.005:5")
    assert got == [Fraction(i, 1000) for i in range(1, 6)]
    assert fid.parse_grid("0.25:0.5:1") == [Fraction(1, 4)]
    for bad in ("1:2", "a:b:3", "0.5:0.1:3", "0.1:0.2:0"):
        with pytest.raises(RangeError):
            fid.parse_grid(bad)


@st.composite
def tails(draw):
    N = draw(st.integers(1, 300))
    b = draw(st.integers(1, 10 ** 6))
    a = draw(st.one_of(st.just(0), st.just(b), st.integers(0, b)))
    return N, draw(st.integers(1, N)), Fraction(a, b), draw(st.integers(1, 30))


@settings(max_examples=300, deadline=None)
@given(tails())
def test_tail_matches_term_sum(case):
    # p = 1 makes c = b - a = 0; p = 0 makes every term past i = 0 vanish;
    # k scales the rate to the unreduced k*a / k*b
    N, d, p, k = case
    want = term_fidelity(N, d, p)
    assert fid.approx_fidelity(N, d, p) == want
    a, b = p.numerator * k, p.denominator * k
    assert Fraction(fid._tail(N, (d - 1) // 2, a, b), b ** N) == want
    if N <= 260:
        assert oracle_fidelity(N, d, p) == want


@st.composite
def paper_pairs(draw):
    """C = [[n+m, ., d]] against Alice's [[n, ., d; c]] with Bob's [[m, ., db]],
    n + m <= 260, p_a in (0, 1) and lam in [0, 1/p_a]: lam = 0, p_b = 1, and
    lam * p_a sharing factors with both terms all come up."""
    n, m = draw(st.integers(3, 200)), draw(st.integers(3, 60))
    d, db = draw(st.integers(1, n)), draw(st.integers(1, m))
    b = draw(st.sampled_from([7, 12, 100, 1000, 10007]))
    pa = Fraction(draw(st.integers(1, min(b - 1, 2000))), b)
    lam = draw(st.one_of(st.just(Fraction(0)), st.just(1 / pa),
                         st.builds(Fraction, st.integers(0, 30), st.sampled_from([1, 2, 3, 7, 14]))
                         .filter(lambda x: x * pa <= 1)))
    return (n + m, d), ((n, d), (m, db)), pa, lam


@settings(max_examples=100, deadline=None)
@given(paper_pairs())
def test_crossover_matches_unhoisted_bisection(case):
    c, dpair, pa, _ = case
    assert fid.crossover_degradation(c, dpair, pa) == bisect_crossover(c, dpair, pa)


@pytest.mark.parametrize("k", range(len(GOLDEN["crossovers"])))
def test_crossover_golden(k):
    e = GOLDEN["crossovers"][k]
    got = fid.crossover_degradation(tuple(e["c"]), (tuple(e["ea"]), tuple(e["b"])),
                                    Fraction(e["p_a"]))
    assert got == (None if e["lam"] is None else Fraction(e["lam"]))


GRID = [Fraction(1, 100), Fraction(2, 100)]


@pytest.mark.parametrize("call", [
    lambda: fid.approx_fidelity(5, 3, float("inf")),
    lambda: fid.approx_fidelity(5, 3, "1/0"),
    lambda: fid.approx_fidelity(5, 3, None),
    lambda: fid.approx_fidelity(5.5, 3, 0.1),
    lambda: fid.approx_fidelity(5, 2.5, 0.1),
    lambda: fid.approx_fidelity("5", 3, 0.1),
    lambda: fid.compare((17, 7), ((11, 7), (6, 3)), Fraction(1, 100), "abc"),
    lambda: fid.sweep((17, 7), ((11, 7), (6, 3)), "x", GRID),
    lambda: fid.compare((17, 7), ((11, 7), (6, 3)), Fraction(1, 100), float("inf")),
], ids=["rate-inf", "rate-zero-denominator", "rate-none", "length-float",
        "distance-float", "length-str", "compare-lambda", "sweep-lambda",
        "degradation-inf"])
def test_unreadable_numbers_are_range_errors(call):
    with pytest.raises(RangeError):
        call()


def test_format_15_ignores_ambient_decimal_context():
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        ctx.traps[decimal.Inexact] = True
        ctx.capitals = 0
        ctx.prec = 3
        assert fid.format_15(2, 3) == "0.666666666666667"
        assert fid.format_15(-1, 3 * 10 ** 9) == "-3.33333333333333E-10"
        assert fid.format_15(*FROZEN_17_7.as_integer_ratio()) == "0.999978555245860"


@st.composite
def rationals_to_render(draw):
    """Signed rationals of every size, exact decimal quotients, values a
    hair from a power of ten or from a 15-digit rounding midpoint, and
    differences of two fidelity tails."""
    kind = draw(st.sampled_from(["any", "exact", "near_power", "midpoint",
                                 "tail_diff"]))
    if kind == "any":
        x = Fraction(draw(st.integers(-10 ** 80, 10 ** 80)),
                     draw(st.integers(1, 10 ** 80)))
    elif kind == "exact":
        x = Fraction(draw(st.integers(-10 ** 20, 10 ** 20)),
                     2 ** draw(st.integers(0, 80)) * 5 ** draw(st.integers(0, 80)))
    elif kind == "near_power":
        x = (Fraction(10) ** draw(st.integers(-40, 40))
             + Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 10 ** 60))))
    elif kind == "midpoint":
        m = draw(st.integers(10 ** 14, 10 ** 15 - 1))
        x = ((Fraction(2 * m + 1, 2)
              + Fraction(draw(st.integers(-1, 1)), draw(st.integers(1, 10 ** 40))))
             * Fraction(10) ** draw(st.integers(-30, 30)))
    else:
        N = draw(st.integers(1, 255))
        p = Fraction(draw(st.integers(0, 1000)), 1000)
        d1, d2 = draw(st.integers(1, N)), draw(st.integers(1, N))
        x = fid.approx_fidelity(N, d1, p) - fid.approx_fidelity(N, d2, p)
    return -x if draw(st.booleans()) else x


@settings(max_examples=400, deadline=None)
@given(rationals_to_render(), st.integers(1, 10 ** 30))
# a hair above a power of two over a hair below one, far below 1: the
# bit-length estimate of the digit count is loosest here, and a quotient
# one digit short of 17 misrounds
@example(Fraction(8, 2 ** 2634 - 1), 1)
def test_format_15_matches_decimal_division(x, k):
    # the integer core renders x from any common multiple of its terms
    text = decimal_format_15(x)
    assert fid.format_15(*x.as_integer_ratio()) == text
    assert fid.format_15(x.numerator * k, x.denominator * k) == text


@pytest.mark.parametrize("gap", [-3_000_000, -1_200_000, -850_000, 1_200_000])
def test_format_15_matches_integer_division_at_huge_bit_gaps(gap):
    """Far from 1 the bit-length estimate of the decimal exponent must stay
    within a digit: a random quotient 2^gap in size and, below 1, the
    loosest one, a hair above a power of two over a hair below one."""
    rng = random.Random(gap)
    big = rng.getrandbits(abs(gap)) | 1 << abs(gap)
    small = rng.getrandbits(60) | 1 << 60
    cases = [(small, big) if gap < 0 else (-big, small)]
    if gap < 0:
        cases.append((2 ** 64 + 1, 2 ** (64 - gap) - 1))
    for num, den in cases:
        assert fid.format_15(num, den) == integer_format_15(num, den)


def test_integer_format_15_oracle():
    for x in (Fraction(2, 3), Fraction(-1, 3 * 10 ** 9), FROZEN_17_7,
              Fraction(10 ** 16 - 1, 10 ** 16) + Fraction(1, 10 ** 40)):
        assert integer_format_15(x.numerator, x.denominator) == decimal_format_15(x)


# ---------------------------------------------------------------------------
# the integer core against the oracles
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(paper_pairs())
def test_compare_matches_oracle_ordering(case):
    c, ((n, d), (m, db)), pa, lam = case
    pc = oracle_fidelity(*c, pa)
    pd = oracle_fidelity(n, d, pa) * oracle_fidelity(m, db, lam * pa)
    want = fid.D_BETTER if pd > pc else fid.C_BETTER if pc > pd else fid.TIE
    assert fid.compare(c, ((n, d), (m, db)), pa, lam) == want
    [row] = fid.sweep(c, ((n, d), (m, db)), lam, [pa])
    assert row == (pa, pc, pd)


# ---------------------------------------------------------------------------
# rendering from numerator and denominator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x, text", [
    (Fraction(1, 8), "0.125"), (Fraction(-1, 8), "-0.125"), (Fraction(0), "0"),
])
@pytest.mark.parametrize("k", [1, 2, 10 ** 40 + 1])
def test_format_core_ignores_common_factors(x, text, k):
    assert fid.format_15(x.numerator * k, x.denominator * k) == text


@st.composite
def random_sweeps(draw):
    """Sweeps of up to six points.  Over 12 and 100 the points reduce to
    different denominators (1/12, 1/6, 1/4, ...), so the integer core computes
    its denominators again mid-grid, and sometimes returns to an earlier one."""
    N = draw(st.integers(2, 120))
    n = draw(st.integers(1, N - 1))
    m = N - n
    d, db = draw(st.integers(1, n)), draw(st.integers(1, m))
    den = draw(st.sampled_from([12, 100, 1000, 10007]))
    lam = Fraction(draw(st.integers(0, 40)), draw(st.sampled_from([1, 3, 10, 101])))
    first = draw(st.integers(1, den // 4))
    steps = draw(st.integers(1, 6))
    step = draw(st.integers(1, max(1, den // 20)))
    grid = [Fraction(first + i * step, den) for i in range(steps)]
    lam = min(lam, 1 / grid[-1])
    return (N, d), ((n, d), (m, db)), lam, grid


@settings(max_examples=60, deadline=None)
@given(random_sweeps())
# denominators 12, 6, 4, 3, 12, 2, 12: the console-script pin of the CI workflow
@example(((17, 7), ((11, 7), (6, 3)), Fraction(1, 3), [Fraction(k, 12) for k in range(1, 8)]))
def test_curve_csv_matches_oracle_rendering(case):
    c, ((n, d), (m, db)), lam, grid = case
    rows, lines = [], ["p_a,P_C,P_D,diff"]
    for pa in grid:
        pc = oracle_fidelity(*c, pa)
        pd = oracle_fidelity(n, d, pa) * oracle_fidelity(m, db, lam * pa)
        rows.append((pa, pc, pd))
        lines.append(",".join(decimal_format_15(v) for v in (pa, pc, pd, pd - pc)))
    assert fid.sweep(c, ((n, d), (m, db)), lam, grid) == rows
    assert fid.curve_csv(c, ((n, d), (m, db)), lam, grid) == "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.fractions(0, 1), st.fractions(0, 1), st.integers(2, 50))
def test_parse_grid_points_are_start_plus_i_steps(start, stop, steps):
    if stop <= start:
        start, stop = stop, start + 1
    step = (stop - start) / (steps - 1)
    got = fid.parse_grid(f"{start}:{stop}:{steps}")
    assert got == [start + i * step for i in range(steps)]
    assert got[0] == start and got[-1] == stop
