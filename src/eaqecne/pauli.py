"""Dense-matrix oracle for the generalized Pauli group over prime fields.

Labels carry a phase exponent i and shift/phase vectors x, z in F_p^n and
stand for the operator w^i X(x) Z(z), where on a single qudit
X(a)|j> = |j+a> and Z(b)|j> = w^(b*j), w = exp(2*pi*i/p).  Prime p only:
prime-power kets would need an arbitrary choice of F_p-basis, and the
certification work this module exists for is fully served at prime p.

Both laws are computed from the dense matrices M_g of the labels alone.
``commutation_phase`` finds the s with M_h M_g = w^s M_g M_h, which the
certification suite compares with the symplectic inner product
x_g.z_h - z_g.x_h of the label images.  ``codespace_dim`` multiplies the
generator averages (1/p) sum_{j<p} M_g^j, each the projector onto the +1
eigenspace of M_g, and returns the rank of the product: the dimension of
the common +1 eigenspace, p^(n-m) for m independent generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (PRIMES, DimensionCap, DimensionMismatch, NonPauliResult,
                     NotAbelian, PhaseObstruction, RangeError)
from .gf import field
from . import symplectic as sp

DEFAULT_DIM_CAP = 3 ** 5
_ATOL = 1e-9


@dataclass(frozen=True)
class PauliLabel:
    """w^phase X(x) Z(z) on n qudits of prime dimension p."""

    p: int
    n: int
    phase: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        if self.p not in PRIMES:
            raise RangeError(f"Pauli labels need a supported prime p, got {self.p}")
        if len(self.x) != self.n or len(self.z) != self.n:
            raise DimensionMismatch("x and z must have length n")
        object.__setattr__(self, "phase", self.phase % self.p)
        object.__setattr__(self, "x", tuple(v % self.p for v in self.x))
        object.__setattr__(self, "z", tuple(v % self.p for v in self.z))

    @classmethod
    def identity(cls, p: int, n: int) -> "PauliLabel":
        return cls(p, n, 0, (0,) * n, (0,) * n)

    def symplectic_image(self) -> np.ndarray:
        """The (x|z) row vector; phases are forgotten."""
        return np.array(self.x + self.z, dtype=np.int16)

    def __str__(self):
        return f"w^{self.phase} X{self.x} Z{self.z}"


def random_label(p: int, n: int, rng) -> PauliLabel:
    phase = int(rng.integers(0, p))
    return PauliLabel(p, n, phase,
                      tuple(int(v) for v in rng.integers(0, p, size=n)),
                      tuple(int(v) for v in rng.integers(0, p, size=n)))


def _check_pair(g: PauliLabel, h: PauliLabel):
    if g.p != h.p or g.n != h.n:
        raise DimensionMismatch("labels act on different systems")


def check_cap(p: int, n: int):
    if p ** n > DEFAULT_DIM_CAP:
        raise DimensionCap(f"p^n = {p ** n} exceeds the cap {DEFAULT_DIM_CAP}")


def pauli_matrix(g: PauliLabel) -> np.ndarray:
    """Dense unitary for the label, built as a Kronecker product."""
    check_cap(g.p, g.n)
    p = g.p
    omega = np.exp(2j * np.pi / p)
    out = np.array([[1.0 + 0j]])
    for a, b in zip(g.x, g.z):
        shift = np.zeros((p, p), dtype=complex)
        for j in range(p):
            shift[(j + a) % p, j] = 1.0
        single = shift @ np.diag(omega ** (b * np.arange(p)))
        out = np.kron(out, single)
    return (omega ** g.phase) * out


def commutation_phase(g: PauliLabel, h: PauliLabel) -> int:
    """The unique s with matrix(h) matrix(g) = w^s matrix(g) matrix(h).

    Resolved purely from dense matrices; equality with the symplectic inner
    product of the label images is what the certification suite asserts.
    """
    _check_pair(g, h)
    A = pauli_matrix(g)
    B = pauli_matrix(h)
    lhs = B @ A
    rhs = A @ B
    omega = np.exp(2j * np.pi / g.p)
    for s in range(g.p):
        if np.allclose(lhs, (omega ** s) * rhs, atol=_ATOL, rtol=0.0):
            return s
    raise NonPauliResult("matrices are not related by any root-of-unity phase")


def codespace_dim(generators) -> int:
    """Rank of the product of the generator averages (1/p) sum_{j<p} M_g^j.

    Needs at least one label; a set of identities fixes the full space.
    Generators must commute pairwise (checked through matrices) and each
    M_g^p must be I; the product is then the average over the generated
    group, which vanishes exactly when the group contains some w^i I with
    i != 0.  Both obstructions raise PhaseObstruction.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("codespace_dim needs at least one label")
    p, n = gens[0].p, gens[0].n
    check_cap(p, n)
    for a, b in itertools.combinations(gens, 2):
        if commutation_phase(a, b) != 0:
            raise NotAbelian(f"labels {a} and {b} do not commute")
    eye = np.eye(p ** n, dtype=complex)
    proj = eye
    for g in gens:
        M = pauli_matrix(g)
        total, power = np.zeros_like(eye), eye
        for _ in range(p):
            total += power
            power = power @ M
        if not np.allclose(power, eye, atol=_ATOL, rtol=0.0):
            raise PhaseObstruction(f"label {g} has a p-th power other than I")
        proj = proj @ total / p
    if not np.allclose(proj @ proj, proj, atol=_ATOL, rtol=0.0):
        raise NonPauliResult("generator average product is not idempotent")
    trace = proj.trace()
    rank = round(trace.real)
    if abs(trace - rank) > 1e-6:
        raise NonPauliResult(f"projector trace {trace} is not close to an integer")
    if rank == 0:
        raise PhaseObstruction("generated group contains a phased identity")
    return int(rank)


def labels_from_rows(p: int, rows) -> list[PauliLabel]:
    """Phase-free labels from (x|z) rows of a symplectic basis matrix."""
    rows = np.atleast_2d(np.asarray(rows))
    n = rows.shape[1] // 2
    return [PauliLabel(p, n, 0, tuple(int(v) for v in r[:n]),
                       tuple(int(v) for v in r[n:])) for r in rows]


def random_stabilizer_labels(p: int, n: int, m: int, rng) -> list[PauliLabel]:
    """Random independent isotropic generator set whose group has no
    phased identity.

    Over p = 2 a phase-free label squares to w^(x.z) I, so every generator
    additionally needs x.z even; the diagonal form x.z is additive on
    isotropic spans, hence generator evenness covers the whole group.  Odd
    p needs no extra condition (p-th powers pick up p(p-1)/2 * x.z = 0).
    """
    basis = sp.random_isotropic_basis(field(p), n, m, rng,
                                      zero_diagonal=(p == 2))
    return labels_from_rows(p, basis)
