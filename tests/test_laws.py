"""Algebraic laws of the paper over every supported q.

The minimum-weight scan runs on the preimage instead of GF(q^2) words; it
rests on phi preserving weight and being F_q-linear.  EA parameters must
satisfy k = n - c - l and m = l + 2c for every code.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import eaqec, linalg, symplectic as sp

from oracles import random_additive_code

fields = st.sampled_from(SUPPORTED_ORDERS).map(lambda q: quadratic_field(field(q)))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(fields, st.integers(1, 12), seeds)
def test_phi_preserves_weight(Q, n, seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, Q.order, size=n)
    w[rng.random(n) < 0.4] = 0
    assert sp.symp_weight(sp.phi_inv(Q, w)) == np.count_nonzero(w)


@settings(max_examples=200, deadline=None)
@given(fields, st.integers(1, 12), seeds)
def test_phi_is_base_field_linear(Q, n, seed):
    F = Q.base
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, F.order, size=(2, 2 * n))
    a = int(rng.integers(0, F.order))
    lhs = sp.phi(Q, F.add_table[F.mul_table[a, u], v])
    rhs = Q.add_table[Q.mul_table[a, sp.phi(Q, u)], sp.phi(Q, v)]
    assert np.array_equal(lhs, rhs)


@settings(max_examples=150, deadline=None)
@given(fields, st.integers(1, 7), st.data())
def test_eaqec_params_counts(Q, n, data):
    m = data.draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(data.draw(seeds))
    code = random_additive_code(Q, n, m, rng)
    P = eaqec.eaqec_params(code, compute_d=False)
    l = ac.radical(code).m
    assert P.k == n - P.c - l
    assert code.m == l + 2 * P.c
    # 2c is the rank of the symplectic Gram matrix of the code
    gram = sp.symp_gram(Q.base, code.preimage)
    assert 2 * P.c == linalg.rref(Q.base, gram)[1]
