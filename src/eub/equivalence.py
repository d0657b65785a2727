"""Permutation/phase equivalence of unitaries and the dephased form.

V = P1 D1 U D2 P2 with permutation matrices P1, P2 and diagonal unitary
D1, D2. All quantities this package computes from a unitary (submatrix
norm coefficients, every bound) depend only on the equivalence class;
the tests exercise that invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import STATE_NORM_TOL, _as_generator, _square_matrix, require_unitary


@dataclass(frozen=True)
class EquivalenceTransform:
    left_perm: np.ndarray
    left_phases: np.ndarray
    right_phases: np.ndarray
    right_perm: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.left_perm, dtype=int)
        rp = np.asarray(self.right_perm, dtype=int)
        lph = np.asarray(self.left_phases, dtype=complex)
        rph = np.asarray(self.right_phases, dtype=complex)
        for name, arr in (("left_perm", lp), ("right_perm", rp)):
            if arr.ndim != 1 or sorted(arr.tolist()) != list(range(arr.size)):
                raise ValueError(f"{name} is not a permutation of 0..n-1")
        for name, arr in (("left_phases", lph), ("right_phases", rph)):
            if arr.ndim != 1 or not np.abs(np.abs(arr) - 1.0).max() <= STATE_NORM_TOL:
                raise ValueError(f"{name} entries must be unimodular")
        if not (lp.size == rp.size == lph.size == rph.size):
            raise ValueError("transform parts disagree on the dimension")
        object.__setattr__(self, "left_perm", lp)
        object.__setattr__(self, "right_perm", rp)
        object.__setattr__(self, "left_phases", lph)
        object.__setattr__(self, "right_phases", rph)

    @property
    def dim(self) -> int:
        return self.left_perm.size


def perm_matrix(perm) -> np.ndarray:
    """Permutation matrix P with P[i, perm[i]] = 1."""
    perm = np.asarray(perm, dtype=int)
    p = np.zeros((perm.size, perm.size))
    p[np.arange(perm.size), perm] = 1.0
    return p


def apply_transform(u: np.ndarray, t: EquivalenceTransform) -> np.ndarray:
    """P1 D1 U D2 P2; unitary iff u is."""
    u = _square_matrix(u)
    if u.shape[0] != t.dim:
        raise ValueError(f"transform dimension {t.dim} does not match matrix {u.shape[0]}")
    v = t.left_phases[:, None] * u * t.right_phases[None, :]
    return perm_matrix(t.left_perm) @ v @ perm_matrix(t.right_perm)


def random_transform(n: int, source) -> EquivalenceTransform:
    """Random equivalence transform; source is an RngSeed or Generator."""
    g = _as_generator(source)
    return EquivalenceTransform(
        left_perm=g.permutation(n),
        left_phases=np.exp(2j * np.pi * g.random(n)),
        right_phases=np.exp(2j * np.pi * g.random(n)),
        right_perm=g.permutation(n),
    )


def _phases_of(v: np.ndarray) -> np.ndarray:
    mag = np.abs(v)
    # a zero entry is already real nonnegative; its phase is unconstrained
    return np.where(mag == 0.0, 1.0 + 0.0j, v / np.where(mag == 0.0, 1.0, mag))


def dephase(u: np.ndarray) -> np.ndarray:
    """Equivalent matrix with real nonnegative first row and first column.

    Uses diagonal phase factors only (identity permutations), so exactly
    the (N-1)^2 lower-right phases remain free. Idempotent.
    """
    u = require_unitary(_square_matrix(u))  # one matrix, not a stack
    v = u * _phases_of(u[0, :]).conj()[None, :]
    return _phases_of(v[:, 0]).conj()[:, None] * v


def canonical_rotation_angle(u: np.ndarray) -> float:
    """Angle theta in [0, pi/4] whose plane rotation is equivalent to u.

    Dimension 2 only. The largest entry modulus of a 2 x 2 unitary is at
    least 1/sqrt(2), so arccos of it already lands in [0, pi/4]; the fold
    guards rounding at the midpoint.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2 x 2 matrix, got shape {u.shape}")
    u = require_unitary(u)
    theta = math.acos(min(float(np.abs(u).max()), 1.0))
    return min(theta, math.pi / 2.0 - theta)
