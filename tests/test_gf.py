"""Field tables, and the conjugation and trace maps of the loop oracle,
which the Hermitian and trace oracles rest on."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eaqecne
from eaqecne import addcodes as ac, eaqec, linalg, symplectic as sp
from eaqecne.errors import (SUPPORTED_ORDERS, DivisionByZero, FieldMismatch,
                            NotQuadraticExtension)
from eaqecne.gf import FieldSpec, field, quadratic_field

from oracles import ORDERS, QUADRATIC_ORDERS, LoopField, loop_field, loop_kernel_tables


def poly_mul_mod(coeffs_a, coeffs_b, modulus, p):
    """Independent oracle: naive F_p[x] multiplication reduced mod modulus."""
    prod = [0] * (len(coeffs_a) + len(coeffs_b) - 1)
    for i, a in enumerate(coeffs_a):
        for j, b in enumerate(coeffs_b):
            prod[i + j] = (prod[i + j] + a * b) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        for k in range(deg):
            prod[-deg + k] = (prod[-deg + k] - lead * modulus[k]) % p
    return tuple(prod + [0] * (deg - len(prod)))


def test_gf4_omega_squared():
    # omega * omega reduced mod x^2+x+1 over F_2, computed by the oracle
    assert poly_mul_mod((0, 1), (0, 1), (1, 1, 1), 2) == (1, 1)
    G = field(4)
    assert G.mul(2, 2) == 3  # index 3 = 1 + omega


def test_gf3_two_squared():
    assert field(3).mul(2, 2) == 4 % 3


@pytest.mark.parametrize("order", ORDERS)
def test_additive_identity(order):
    F = field(order)
    for x in range(F.order):
        assert F.add(x, 0) == x


@pytest.mark.parametrize("order", ORDERS)
def test_field_axioms_spot(order):
    F = field(order)
    xs = range(F.order) if F.order <= 16 else range(0, F.order, 5)
    for a, b in itertools.product(xs, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.sub_table[F.add(a, b), b] == F.add(F.add(a, b), F.neg(b)) == a
        if b != 0:
            assert F.mul(F.mul(a, F.inv(b)), b) == a


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        field(4).inv(0)
    with pytest.raises(DivisionByZero):
        field(5).inv(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        eaqec.combine_neb(ac.AdditiveCode.zero(field(4), 1),
                          ac.AdditiveCode.zero(field(9), 1))


def test_conjugate_gf4():
    G = loop_field(4)
    assert G.conjugate(2) == 3  # omega^2 = omega + 1


@pytest.mark.parametrize("order", QUADRATIC_ORDERS)
def test_conjugate_fixes_base_and_involutive(order):
    Q = loop_field(order)
    q = Q.base.order
    for x in range(Q.order):
        assert Q.conjugate(Q.conjugate(x)) == x
    for c in range(q):
        assert Q.conjugate(c) == c


@pytest.mark.parametrize("order", [4, 9, 16, 25])
def test_conjugate_multiplicative(order):
    Q = loop_field(order)
    for x, y in itertools.product(range(Q.order), repeat=2):
        assert Q.conjugate(Q.mul(x, y)) == Q.mul(Q.conjugate(x), Q.conjugate(y))


def test_not_quadratic_extension():
    with pytest.raises(NotQuadraticExtension):
        sp.phi(field(3), np.array([1, 0]))
    with pytest.raises(NotQuadraticExtension):
        sp.phi(field(8), np.array([1, 0]))


def test_rel_trace_gf4():
    G = loop_field(4)
    assert G.rel_trace(1) == 0  # 1 + 1 in characteristic 2
    # omega + omega^2 = 1: the two roots of x^2+x+1 sum to 1
    assert G.rel_trace(2) == 1


def test_rel_trace_additive_gf9():
    Q = loop_field(9)
    for x, y in itertools.product(range(9), repeat=2):
        assert Q.rel_trace(Q.add(x, y)) == Q.base.add(Q.rel_trace(x), Q.rel_trace(y))


@pytest.mark.parametrize("order", QUADRATIC_ORDERS)
def test_rel_trace_fixed_by_conjugation_and_surjective(order):
    Q = loop_field(order)
    q = Q.base.order
    values = set()
    for x in range(Q.order):
        t = Q.rel_trace(x)
        assert t < q
        assert Q.conjugate(t) == t
        values.add(t)
    assert values == set(range(q))


def test_abs_trace():
    G = loop_field(4)
    assert G.abs_trace(2) == 1  # omega + omega^2
    assert G.abs_trace(0) == 0
    for p in (3, 5, 7):
        F = loop_field(p)
        for x in range(p):
            assert F.abs_trace(x) == x


@pytest.mark.parametrize("order", ORDERS)
def test_multiplicative_group_cyclic(order):
    F = field(order)
    target = F.order - 1
    found = False
    for g in range(1, F.order):
        k, x = 1, g
        while x != 1:
            x = F.mul(x, g)
            k += 1
        if k == target:
            found = True
            break
    assert found


@pytest.mark.parametrize("order", ORDERS)
def test_encoding_round_trip(order):
    F = field(order)
    B = F.base.order if F.base else F.order
    for x in range(F.order):
        coeffs = F.coeffs(x)
        assert len(coeffs) == F.degree
        assert sum(c * B ** i for i, c in enumerate(coeffs)) == x
        digits = [int(d) for d in linalg._codes(F).planes[:, x]]
        assert len(digits) == F.e and max(digits) < F.p
        assert sum(d * F.p ** i for i, d in enumerate(digits)) == x


@pytest.mark.parametrize("q", [6, 10, 11, 27])
def test_prime_spec_only_for_table_primes(q):
    # a spec exists exactly for the orders of errors.FIELDS
    for build in (FieldSpec, field):
        with pytest.raises(ValueError, match="unsupported field order"):
            build(q)


@pytest.mark.parametrize("modulus", [(1, 0, 1), (2, 0, 1), (2, 1, 2),
                                     (2, 5, 1), (2, -2, 1), (2, 1)])
def test_loop_oracle_rejects_faulty_entry(modulus):
    # the faults an entry of errors.FIELDS could carry, here as GF(9)'s: a = 0
    # (beta^q on the line through beta), reducible, non-monic, a coefficient
    # outside GF(3), and degree 1; test_tables_match_loop_oracle builds every
    # entry through this oracle, so none of them can ship
    with pytest.raises(ValueError):
        LoopField(base=loop_field(3), modulus=modulus)


def test_quadratic_field_links():
    for q in SUPPORTED_ORDERS:
        Q = quadratic_field(field(q))
        assert Q.base is field(q)
        assert Q.order == q * q
        assert Q is field(q * q)


def _array_attrs(F):
    return {k: v for k, v in vars(F).items() if isinstance(v, np.ndarray)}


def assert_same_tables(F, oracle):
    """Every array attribute equal in value, dtype and shape, and the same
    scalar attributes of the same types; the Gram planes and packed-word
    constants of F's kernel record (``linalg._codes(F)``) likewise."""
    arrays, expected = _array_attrs(F), _array_attrs(oracle)
    assert arrays.keys() == expected.keys()
    for name, table in arrays.items():
        want = expected[name]
        assert (table.dtype, table.shape) == (want.dtype, want.shape), name
        assert np.array_equal(table, want), name
    for name in ("p", "e", "order", "degree", "beta", "beta_conj",
                 "alt_normalizer"):
        got, want = getattr(F, name, None), getattr(oracle, name, None)
        assert (type(got), got) == (type(want), want), name
    T = linalg._codes(F)
    for name, want in loop_kernel_tables(oracle).items():
        got = getattr(T, name)
        assert type(got) is type(want) and np.shape(got) == np.shape(want), name
        assert np.asarray(got).dtype == np.asarray(want).dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("order", ORDERS)
def test_tables_match_loop_oracle(order):
    assert_same_tables(field(order), loop_field(order))


def test_import_builds_no_field():
    src = str(Path(eaqecne.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import eaqecne; print(eaqecne.gf.field.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
