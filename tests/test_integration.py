"""Cross-layer checks: codes built algebraically, certified by the dense
Pauli oracle, and the fields that the commands and the linear-code paths
row-reduce over."""

import numpy as np
import pytest

from eaqecne.cli import main
from eaqecne.gf import SUPPORTED_ORDERS, field, quadratic_field
from eaqecne import addcodes as ac
from eaqecne import eaqec, linalg, pauli

from oracles import count_rref, random_additive_code, random_matrix

FIVE_Q = [[1, 0, 1, 2, 2], [0, 1, 2, 2, 1]]


def test_five_qudit_code_projector_rank():
    # the [[5,1,3]]_2 stabilizer group really fixes a 2-dimensional space
    Q = field(4)
    code = ac.AdditiveCode.from_linear(Q, FIVE_Q)
    params = eaqec.stabilizer_params(code)
    assert (params.k, params.d) == (1, 3)
    labels = pauli.labels_from_rows(2, code.preimage)
    for lab in labels:  # qubit labels must have even diagonal overlap
        assert sum(a * b for a, b in zip(lab.x, lab.z)) % 2 == 0
    assert pauli.codespace_dim(labels) == 2 ** params.k


def test_reed_solomon_distance_is_k_plus_one():
    """RS_2 over all 9 points of GF(9) is Hermitian self-orthogonal and
    gives the quantum MDS code [[9,5,3]]_3; punctured once it is the EA code
    [[8,5,3;1]]_3.  Both distances are scanned, not declared: d = k + 1."""
    Q = field(9)
    code = ac.AdditiveCode.from_linear(Q, [[1] * 9, list(range(9))])
    assert ac.is_self_orthogonal(code)
    assert str(eaqec.stabilizer_params(code)) == "[[9,5,3]]_3"
    assert str(eaqec.puncture_to_eaqecc(code, c=1).params) == "[[8,5,3;1]]_3"
    scan = ac.min_weight_excluding_detail(ac.dual(code), code)
    assert (scan.d, scan.examined) == (3, (3 ** 14 - 3 ** 4) // 2)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3)])
def test_random_stabilizer_codes_agree_with_projector(p, n):
    Q = quadratic_field(field(p))
    rng = np.random.default_rng(137 + p)
    for _ in range(10):
        m = int(rng.integers(1, n + 1))
        labels = pauli.random_stabilizer_labels(p, n, m, rng)
        rows = np.array([lab.symplectic_image() for lab in labels])
        code = ac.AdditiveCode(Q, rows)
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
            D = ac.AdditiveCode.from_linear(
                Q, rng.integers(0, q2, size=(int(rng.integers(0, n + 1)), n)))
            perp = ac.dual(D)
            assert ac.AdditiveCode.from_linear(Q, perp.generators) == perp
            assert ac.dual(perp) == D
            assert D.m // 2 + perp.m // 2 == n


def test_elimination_runs_over_base_fields_only(tmp_path, monkeypatch, capsys):
    """Every rref the CLI commands and the from_linear paths run is over the
    base field GF(q) of the codes, never over GF(q^2)."""
    fields = count_rref(monkeypatch)
    Q = field(4)
    five = tmp_path / "five.code"
    five.write_text(ac.dump_code(ac.AdditiveCode.from_linear(Q, FIVE_Q)))
    blocks = {"G": [[3, 0, 1, 2]], "G2": [[0, 2, 3, 3], [2, 3, 1, 1]],
              "E": [[0, 2, 1], [3, 1, 3]]}
    for name, rows in blocks.items():
        (tmp_path / name).write_text(linalg.dump_matrix(Q, np.array(rows)))
    for argv in (["analyze", five], ["decompose", five], ["mindist", five],
                 ["combine"] + [tmp_path / name for name in blocks]):
        assert main([str(a) for a in argv]) == 0
        assert {F.order for F in fields} <= {2}, argv[0]
    assert fields
    capsys.readouterr()
    rng = np.random.default_rng(71)
    for q in SUPPORTED_ORDERS:
        Q = quadratic_field(field(q))
        fields.clear()
        alice = ac.AdditiveCode.from_linear(Q, random_matrix(Q, 2, 4, rng))
        # the all-ones word is Hermitian self-orthogonal at length q^2
        bob = ac.AdditiveCode.from_linear(Q, np.ones((1, q * q), dtype=np.int16))
        ac.dual(alice)
        ac.radical(alice)
        eaqec.combine_neb(alice, bob, compute_d=False)
        eaqec.puncture_to_eaqecc(bob, 1, compute_d=False)
        assert fields and all(F is Q.base for F in fields), q
