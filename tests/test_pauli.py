"""Dense Pauli matrices, commutation phases, and projector ranks."""

import itertools

import numpy as np
import pytest

from eaqecne.errors import (DimensionCap, NotAbelian, PhaseObstruction,
                            RangeError)
from eaqecne.gf import field
from eaqecne import pauli, symplectic as sp


def test_qubit_matrices():
    X = pauli.pauli_matrix(pauli.PauliLabel(2, 1, 0, (1,), (0,)))
    Z = pauli.pauli_matrix(pauli.PauliLabel(2, 1, 0, (0,), (1,)))
    assert np.allclose(X, np.array([[0, 1], [1, 0]]))
    assert np.allclose(Z, np.diag([1, -1]))
    I = pauli.pauli_matrix(pauli.PauliLabel.identity(2, 2))
    assert np.allclose(I, np.eye(4))


@pytest.mark.parametrize("p", [4, 8, 9, 6, 11])
def test_label_rejects_non_prime_or_unsupported_p(p):
    with pytest.raises(RangeError):
        pauli.PauliLabel(p, 1, 0, (1,), (0,))


def test_qutrit_z():
    w = np.exp(2j * np.pi / 3)
    Z = pauli.pauli_matrix(pauli.PauliLabel(3, 1, 0, (0,), (1,)))
    assert np.allclose(Z, np.diag([1, w, w ** 2]))
    X = pauli.pauli_matrix(pauli.PauliLabel(3, 1, 0, (1,), (0,)))
    expect = np.zeros((3, 3))
    expect[1, 0] = expect[2, 1] = expect[0, 2] = 1
    assert np.allclose(X, expect)


def test_matrices_unitary():
    rng = np.random.default_rng(0)
    for p, n in ((2, 2), (3, 1), (5, 1)):
        for _ in range(10):
            g = pauli.random_label(p, n, rng)
            M = pauli.pauli_matrix(g)
            assert np.allclose(M @ M.conj().T, np.eye(p ** n), atol=1e-9)


def test_dimension_cap():
    with pytest.raises(DimensionCap):
        pauli.pauli_matrix(pauli.PauliLabel.identity(3, 6))


def test_label_product_matches_matrix_product():
    # exhaustive for p=2, n <= 2, including phases
    for n in (1, 2):
        vecs = list(itertools.product(range(2), repeat=n))
        labels = [pauli.PauliLabel(2, n, ph, x, z)
                  for ph in range(2) for x in vecs for z in vecs]
        for g in labels:
            for h in labels:
                lhs = pauli.pauli_matrix(pauli.label_product(g, h))
                rhs = pauli.pauli_matrix(g) @ pauli.pauli_matrix(h)
                assert np.allclose(lhs, rhs, atol=1e-9)


def test_label_product_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = pauli.random_label(3, 2, rng)
        h = pauli.random_label(3, 2, rng)
        tau = pauli.label_product(g, h).symplectic_image()
        expect = (g.symplectic_image() + h.symplectic_image()) % 3
        assert np.array_equal(tau, expect)


def test_commutation_phase_examples():
    X = pauli.PauliLabel(2, 1, 0, (1,), (0,))
    Z = pauli.PauliLabel(2, 1, 0, (0,), (1,))
    assert pauli.commutation_phase(X, X) == 0
    assert pauli.commutation_phase(X, Z) == 1
    X3 = pauli.PauliLabel(3, 1, 0, (1,), (0,))
    Z3 = pauli.PauliLabel(3, 1, 0, (0,), (1,))
    Z3b = pauli.PauliLabel(3, 1, 0, (0,), (2,))
    assert pauli.commutation_phase(X3, Z3) == 1
    assert pauli.commutation_phase(X3, Z3b) == 2


@pytest.mark.parametrize("p", [2, 3])
def test_commutation_certifies_symplectic_exhaustive(p):
    F = field(p)
    vecs = list(itertools.product(range(p), repeat=1))
    labels = [pauli.PauliLabel(p, 1, 0, x, z) for x in vecs for z in vecs]
    for g in labels:
        for h in labels:
            s = pauli.commutation_phase(g, h)
            expect = sp.symp_inner(F, g.symplectic_image(), h.symplectic_image())
            assert s == expect


def test_commutation_phase_ignores_label_phases():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = pauli.random_label(3, 1, rng)
        h = pauli.random_label(3, 1, rng)
        g0 = pauli.PauliLabel(3, 1, 0, g.x, g.z)
        h0 = pauli.PauliLabel(3, 1, 0, h.x, h.z)
        assert pauli.commutation_phase(g, h) == pauli.commutation_phase(g0, h0)


def test_codespace_dim_trivial_cases():
    # S = {I, Z} on one qubit fixes |0>
    Z = pauli.PauliLabel(2, 1, 0, (0,), (1,))
    assert pauli.codespace_dim([Z]) == 1
    I = pauli.PauliLabel.identity(3, 2)
    assert pauli.codespace_dim([I]) == 9
    # empty generator set leaves the full space
    assert pauli.codespace_dim([], p=3, n=2) == 9
    with pytest.raises(ValueError):
        pauli.codespace_dim([])


def test_codespace_dim_law():
    rng = np.random.default_rng(5)
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for _ in range(10):
            m = int(rng.integers(1, n + 1))
            labels = pauli.random_stabilizer_labels(p, n, m, rng)
            assert pauli.codespace_dim(labels) == p ** (n - m)


def test_qubit_diagonal_labels_need_even_overlap():
    # X(1)Z(1) with any available phase squares to -I over p=2
    g = pauli.PauliLabel(2, 1, 0, (1,), (1,))
    with pytest.raises(PhaseObstruction):
        pauli.codespace_dim([g])
    labels = pauli.random_stabilizer_labels(2, 3, 2, np.random.default_rng(9))
    for lab in labels:
        assert sum(a * b for a, b in zip(lab.x, lab.z)) % 2 == 0


def test_codespace_dim_not_abelian():
    X = pauli.PauliLabel(2, 1, 0, (1,), (0,))
    Z = pauli.PauliLabel(2, 1, 0, (0,), (1,))
    with pytest.raises(NotAbelian):
        pauli.codespace_dim([X, Z])


def test_codespace_dim_phase_obstruction():
    # w*I is generated when a generator itself is a phased identity
    bad = pauli.PauliLabel(3, 1, 1, (0,), (0,))
    with pytest.raises(PhaseObstruction):
        pauli.codespace_dim([bad])


def test_phased_generator_set_still_works():
    # -Z on a qubit stabilizes |1>
    negZ = pauli.PauliLabel(2, 1, 1, (0,), (1,))
    assert pauli.codespace_dim([negZ]) == 1


def test_close_group_size():
    Z = pauli.PauliLabel(3, 2, 0, (0, 0), (1, 0))
    Z2 = pauli.PauliLabel(3, 2, 0, (0, 0), (0, 1))
    group = pauli.close_group([Z, Z2])
    assert len(group) == 9
