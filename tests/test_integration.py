"""Cross-layer checks: codes built algebraically, certified by the dense
Pauli oracle."""

import numpy as np
import pytest

from eaqecne.gf import field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import eaqec, pauli

from oracles import random_additive_code

FIVE_Q = [[1, 0, 1, 2, 2], [0, 1, 2, 2, 1]]


def test_five_qudit_code_projector_rank():
    # the [[5,1,3]]_2 stabilizer group really fixes a 2-dimensional space
    Q = field(4)
    code = ac.LinearCode(Q, FIVE_Q).to_additive()
    params = eaqec.stabilizer_params(code)
    assert (params.k, params.d) == (1, 3)
    labels = pauli.labels_from_rows(2, code.preimage)
    for lab in labels:  # qubit labels must have even diagonal overlap
        assert sum(a * b for a, b in zip(lab.x, lab.z)) % 2 == 0
    assert pauli.codespace_dim(labels) == 2 ** params.k


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3)])
def test_random_stabilizer_codes_agree_with_projector(p, n):
    Q = quadratic_field(field(p))
    rng = np.random.default_rng(137 + p)
    for _ in range(10):
        m = int(rng.integers(1, n + 1))
        labels = pauli.random_stabilizer_labels(p, n, m, rng)
        rows = np.array([lab.symplectic_image() for lab in labels])
        code = ac.AdditiveCode.from_preimage(Q, rows)
        assert ac.is_self_orthogonal(code)
        params = eaqec.stabilizer_params(code, compute_d=False)
        assert pauli.codespace_dim(labels) == p ** params.k


def test_ea_radical_projector_rank():
    # the radical part of an EA-stabilizer image fixes a p^(n-l) space
    Q = field(9)
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = 3
        code = random_additive_code(Q, n, int(rng.integers(1, 5)), rng)
        dec = ac.radical_decompose(code)
        if dec.l == 0:
            continue
        labels = pauli.labels_from_rows(3, dec.radical.preimage)
        assert pauli.codespace_dim(labels) == 3 ** (n - dec.l)


def test_hermitian_double_dual():
    rng = np.random.default_rng(53)
    for q2 in (4, 9):
        Q = field(q2)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            D = ac.LinearCode(Q, rng.integers(0, q2, size=(int(rng.integers(0, n + 1)), n)),
                              n=n)
            dd = D.hermitian_dual().hermitian_dual()
            assert dd == D
            assert D.dim + D.hermitian_dual().dim == n
