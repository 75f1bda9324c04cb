"""Dense-matrix oracle for the generalized Pauli group over prime fields.

Labels carry a phase exponent i and shift/phase vectors x, z in F_p^n and
stand for the operator w^i X(x) Z(z), where on a single qudit
X(a)|j> = |j+a> and Z(b)|j> = w^(b*j), w = exp(2*pi*i/p).  Prime p only:
prime-power kets would need an arbitrary choice of F_p-basis, and the
certification work this module exists for is fully served at prime p.

Composing labels follows the operator algebra:
    (X(x)Z(z)) (X(x')Z(z')) = w^(z.x') X(x+x') Z(z+z'),
so two labels g, h satisfy h g = w^s g h with s = x_g.z_h - z_g.x_h, the
symplectic inner product of their images.  ``commutation_phase`` extracts s
from dense matrices in exactly that orientation and never consults the
symplectic shortcut, so comparing the two routes stays a real check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionCap, DimensionMismatch, NonPauliResult,
                     NotAbelian, PhaseObstruction, RangeError)
from .gf import SUPPORTED_ORDERS, field
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
        if self.p not in SUPPORTED_ORDERS or field(self.p).base is not None:
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

    def is_identity_class(self) -> bool:
        return not any(self.x) and not any(self.z)

    def __str__(self):
        return f"w^{self.phase} X{self.x} Z{self.z}"


def random_label(p: int, n: int, rng, with_phase: bool = True) -> PauliLabel:
    phase = int(rng.integers(0, p)) if with_phase else 0
    return PauliLabel(p, n, phase,
                      tuple(int(v) for v in rng.integers(0, p, size=n)),
                      tuple(int(v) for v in rng.integers(0, p, size=n)))


def label_product(g: PauliLabel, h: PauliLabel) -> PauliLabel:
    """Label of the operator product g h."""
    _check_pair(g, h)
    p = g.p
    cross = sum(a * b for a, b in zip(g.z, h.x)) % p
    return PauliLabel(p, g.n, g.phase + h.phase + cross,
                      tuple(a + b for a, b in zip(g.x, h.x)),
                      tuple(a + b for a, b in zip(g.z, h.z)))


def _check_pair(g: PauliLabel, h: PauliLabel):
    if g.p != h.p or g.n != h.n:
        raise DimensionMismatch("labels act on different systems")


def check_cap(p: int, n: int, cap: int):
    if p ** n > cap:
        raise DimensionCap(f"p^n = {p ** n} exceeds the cap {cap}")


def pauli_matrix(g: PauliLabel, cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Dense unitary for the label, built as a Kronecker product."""
    check_cap(g.p, g.n, cap)
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


def commutation_phase(g: PauliLabel, h: PauliLabel,
                      cap: int = DEFAULT_DIM_CAP, atol: float = _ATOL) -> int:
    """The unique s with matrix(h) matrix(g) = w^s matrix(g) matrix(h).

    Resolved purely from dense matrices; equality with the symplectic inner
    product of the label images is what the certification suite asserts.
    """
    _check_pair(g, h)
    check_cap(g.p, g.n, cap)
    A = pauli_matrix(g, cap)
    B = pauli_matrix(h, cap)
    lhs = B @ A
    rhs = A @ B
    omega = np.exp(2j * np.pi / g.p)
    for s in range(g.p):
        if np.allclose(lhs, (omega ** s) * rhs, atol=atol, rtol=0.0):
            return s
    raise NonPauliResult("matrices are not related by any root-of-unity phase")


def close_group(generators) -> list[PauliLabel]:
    """Breadth-first closure under label products (exact F_p arithmetic)."""
    gens = list(generators)
    if not gens:
        return []
    p, n = gens[0].p, gens[0].n
    for g in gens:
        _check_pair(gens[0], g)
    seen = {}
    frontier = [PauliLabel.identity(p, n)]
    seen[(frontier[0].phase, frontier[0].x, frontier[0].z)] = frontier[0]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                prod = label_product(cur, g)
                key = (prod.phase, prod.x, prod.z)
                if key not in seen:
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def codespace_dim(generators, cap: int = DEFAULT_DIM_CAP,
                  atol: float = _ATOL, *, p: int | None = None,
                  n: int | None = None) -> int:
    """Rank of the group-average projector of a stabilizer generator set.

    Generators must commute pairwise (checked through matrices) and the
    generated group must contain no w^i I with i != 0.  An empty set fixes
    the full space; pass p and n explicitly for that case.
    """
    gens = [g for g in generators]
    if not gens:
        if p is None or n is None:
            raise ValueError("empty generator set needs explicit p and n")
        gens = [PauliLabel.identity(p, n)]
    p, n = gens[0].p, gens[0].n
    check_cap(p, n, cap)
    for a, b in itertools.combinations(gens, 2):
        if commutation_phase(a, b, cap, atol) != 0:
            raise NotAbelian(f"labels {a} and {b} do not commute")
    group = close_group(gens)
    for g in group:
        if g.is_identity_class() and g.phase != 0:
            raise PhaseObstruction(f"group contains w^{g.phase} I")
    dim = p ** n
    proj = np.zeros((dim, dim), dtype=complex)
    for g in group:
        proj += pauli_matrix(g, cap)
    proj /= len(group)
    if not np.allclose(proj @ proj, proj, atol=atol, rtol=0.0):
        raise NonPauliResult("group average is not idempotent")
    trace = proj.trace()
    rank = round(trace.real)
    if abs(trace - rank) > 1e-6:
        raise NonPauliResult(f"projector trace {trace} is not close to an integer")
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
