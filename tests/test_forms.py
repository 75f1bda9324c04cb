"""Laws of the Gram-matrix form engine over every supported q.

Each fast route (``linalg.gram``, the 2x2 form blocks on the preimage, the
Gram-updated symplectic Gram-Schmidt) is checked against a scalar oracle or
a pinned output.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqecne.cli import main
from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import linalg, symplectic as sp

from oracles import (random_additive_code, random_subspace, scalar_inner,
                     subspace_eq, subspace_intersect)

GOLDEN = Path(__file__).with_name("golden_decompose.json")


def random_code(Q, rng, max_n=4):
    n = int(rng.integers(1, max_n + 1))
    return random_additive_code(Q, n, int(rng.integers(0, 2 * n + 1)), rng)


def scalar_witness(Q, G, form):
    for i in range(G.shape[0]):
        for j in range(i, G.shape[0]):
            if scalar_inner(Q, G[i], G[j], form) != 0:
                return (i, j)
    return None


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("form", ac.FORMS)
def test_code_gram_matches_scalar_oracle(q, form):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([31, q])
    for _ in range(8):
        code = random_code(Q, rng)
        G = code.generators
        gram = ac.code_gram(code, form)
        assert gram.shape == (code.m, code.m)
        for i in range(code.m):
            for j in range(code.m):
                expect = scalar_inner(Q, G[i], G[j], form)
                assert gram[i, j] == expect
                assert ac.inner(Q, G[i], G[j], form) == expect


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_form_blocks(q):
    Q = quadratic_field(field(q))
    F = Q.base
    assert ac.form_block(Q, "alternating") == sp.symplectic_block(F)
    (t00, t01), (t10, t11) = ac.form_block(Q, "trace")
    assert (t00, t01) == (t11, t10)           # symmetric, same on both halves
    det = F.sub(F.mul(t00, t11), F.mul(t01, t10))
    assert det != 0                           # the trace form is nondegenerate
    if Q.p == 2:
        assert ac.form_block(Q, "trace") == ((0, t01), (t01, 0))
    with pytest.raises(ValueError):
        ac.form_block(Q, "hermitian")


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("form", ac.DUAL_FORMS)
def test_dual_laws(q, form):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([37, q])
    for _ in range(8):
        code = random_code(Q, rng)
        d = ac.dual(code, form)
        assert code.m + d.m == 2 * code.n
        assert ac.dual(d, form) == code
        # every dual word is orthogonal to every code word
        gram = linalg.gram(Q.base, d.preimage,
                           sp.form_rows(Q.base, code.preimage, ac.form_block(Q, form)))
        assert not gram.any()
        if form == "alternating":
            assert np.array_equal(d.preimage, sp.symp_dual(Q.base, code.preimage))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_witnesses_match_scalar_scan(q):
    Q = quadratic_field(field(q))
    rng = np.random.default_rng([41, q])
    for trial in range(10):
        n = int(rng.integers(1, 5))
        if trial % 2:
            pre = sp.random_isotropic_basis(Q.base, n, int(rng.integers(0, n + 1)), rng)
            code = ac.AdditiveCode.from_preimage(Q, pre)
        else:
            code = random_code(Q, rng)
        for form in ac.FORMS:
            assert (ac.self_orthogonality_witness(code, form)
                    == scalar_witness(Q, code.generators, form))
        lin = ac.LinearCode(Q, linalg.random_matrix(Q, int(rng.integers(0, 3)), n, rng), n=n)
        assert ac.hermitian_witness(lin) == scalar_witness(Q, lin.matrix, "hermitian")


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_decompose_gram_laws(q):
    F = field(q)
    rng = np.random.default_rng([43, q])
    for _ in range(10):
        n = int(rng.integers(1, 5))
        S = random_subspace(F, int(rng.integers(0, 2 * n + 1)), 2 * n, rng)
        dec = sp.decompose(F, S)
        assert dec.l + 2 * dec.c == S.shape[0]
        rows = np.vstack([dec.radical, dec.pair_matrix()])
        assert subspace_eq(F, rows, S)
        G = sp.form_gram(F, rows, sp.symplectic_block(F))
        expect = np.zeros_like(G)
        for k in range(dec.c):
            e, f = dec.l + 2 * k, dec.l + 2 * k + 1
            expect[e, f], expect[f, e] = 1, F.neg(1)
        assert np.array_equal(G, expect)


@st.composite
def codes_with_isotropic_part(draw):
    """An additive code spanned by a random isotropic subspace and a few more
    random vectors, so that its radical is often nontrivial."""
    Q = quadratic_field(field(draw(st.sampled_from(SUPPORTED_ORDERS))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4))
    iso = sp.random_isotropic_basis(Q.base, n, draw(st.integers(0, n)), rng)
    extra = linalg.random_matrix(Q.base, draw(st.integers(0, 2)), 2 * n, rng)
    return ac.AdditiveCode.from_preimage(Q, np.vstack([iso, extra]))


@settings(max_examples=150, deadline=None)
@given(codes_with_isotropic_part(), st.sampled_from(ac.DUAL_FORMS))
def test_radical_matches_intersection_oracle(code, form):
    expect = subspace_intersect(code.base_field, code.preimage,
                                ac.dual(code, form).preimage)
    assert np.array_equal(ac.radical(code, form).preimage, expect)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_hermitian_radical_matches_intersection_oracle(q, seed, isotropic):
    """With `isotropic`, the code holds v = (1, x, 0, ...), x^(q+1) = -1, and
    otherwise rows of v's Hermitian dual, so v lies in its radical."""
    Q = quadratic_field(field(q))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    rows = linalg.random_matrix(Q, int(rng.integers(0, n + 1)), n, rng)
    if isotropic:
        v = np.zeros((1, n), dtype=np.int16)
        v[0, :2] = 1, next(x for x in range(Q.order)
                           if Q.add(Q.pow(x, q + 1), 1) == 0)
        perp = ac.LinearCode(Q, v).hermitian_dual().matrix
        rows = np.vstack([v, linalg.gram(Q, rows[:, :perp.shape[0]], perp.T)])
    code = ac.LinearCode(Q, rows, n=n)
    assert not isotropic or code.hermitian_radical().dim >= 1
    expect = subspace_intersect(Q, code.matrix, code.hermitian_dual().matrix)
    assert np.array_equal(code.hermitian_radical().matrix,
                          linalg.as_matrix(expect, cols=n))


def _golden_ids():
    return [f"q{e['q']}-{k}" for k, e in enumerate(json.loads(GOLDEN.read_text()))]


@pytest.mark.parametrize("k", range(len(_golden_ids())), ids=_golden_ids())
def test_decompose_golden(k, tmp_path, capsys):
    """Pinned decompose output, text and --symplectic, for seeded codes."""
    entry = json.loads(GOLDEN.read_text())[k]
    code = tmp_path / "c.code"
    pre = tmp_path / "c.pre"
    code.write_text(entry["code"])
    pre.write_text(entry["preimage"])
    for key, argv in (("decompose", ["decompose", str(code)]),
                      ("decompose_symplectic", ["decompose", str(pre), "--symplectic"])):
        assert main(argv) == 0
        assert capsys.readouterr().out == entry[key]
