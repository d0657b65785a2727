"""Parametric matrix families and the order-3 unistochastic cross-section.

Families: plane rotations O(theta), cyclic shifts, fractional powers of
the shift through its Fourier eigenbasis, Fourier matrices, and the
two-parameter bistochastic slice B(a, b) = a P + b P^2 + (1 - a - b) I
of order 3. A 3 x 3 bistochastic matrix is unistochastic iff the three
column link lengths sqrt(B_1j B_2j) satisfy the triangle inequality; the
lift construction realizes a witness unitary and validates itself by its
reconstruction residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_ladder, bound_mu
from .entropy import clamp_negative
from .matrices import (
    DEGENERATE_LINK,
    LIFT_RESIDUAL_TOL,
    LINK_TRIANGLE_TOL,
    NEGATIVE_CLAMP,
    PROB_SUM_TOL,
)


def rotation_matrix(theta: float) -> np.ndarray:
    """Plane rotation by theta, as a complex 2 x 2 unitary."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def cyclic_shift(n: int) -> np.ndarray:
    """Circular shift permutation: entry 1 at (i, i+1 mod n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    p = np.zeros((n, n), dtype=complex)
    p[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return p


def fourier_matrix(n: int) -> np.ndarray:
    """F[j, k] = e^(2 pi i j k / n) / sqrt(n); all entry moduli 1/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(2j * np.pi * jk / n) / math.sqrt(n)


def permutation_power(n: int, beta: float) -> np.ndarray:
    """Fractional power of the cyclic shift, P^beta.

    The shift diagonalizes in the Fourier basis with eigenphases
    2 pi k / n, k = 0..n-1; P^beta scales those phases by beta on the
    principal branch (no wrap to negative frequencies). Unitary for all
    real beta, continuous, with exact endpoints at beta = 0 and 1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    f = fourier_matrix(n)
    phases = np.exp(2j * np.pi * np.arange(n) * beta / n)
    return (f * phases[None, :]) @ f.conj().T


@dataclass(frozen=True)
class BirkhoffPoint:
    """Simplex coordinates of the bistochastic slice; a, b >= 0, a+b <= 1.

    Each of the weights a, b and 1 - a - b may be negative by at most
    NEGATIVE_CLAMP (rounding debris); anything beyond raises ValueError.
    """

    a: float
    b: float

    def __post_init__(self):
        lo = -NEGATIVE_CLAMP
        if not (self.a >= lo and self.b >= lo and self.a + self.b <= 1.0 + NEGATIVE_CLAMP):
            raise ValueError(f"point ({self.a}, {self.b}) outside the simplex")


def birkhoff_matrix(p: BirkhoffPoint) -> np.ndarray:
    """a P + b P^2 + (1 - a - b) I as a real doubly stochastic 3 x 3 matrix."""
    shift = cyclic_shift(3).real
    return p.a * shift + p.b * (shift @ shift) + (1.0 - p.a - p.b) * np.eye(3)


def _check_bistochastic_3(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (3, 3):
        raise ValueError(f"expected a 3 x 3 matrix, got shape {b.shape}")
    b = clamp_negative(b, "negative entry {:.3e}")
    bad = max(np.abs(b.sum(axis=0) - 1.0).max(), np.abs(b.sum(axis=1) - 1.0).max())
    if not bad <= PROB_SUM_TOL:
        raise ValueError(f"row/column sums deviate from 1 by {bad:.3e}")
    return b


def _links(b: np.ndarray) -> np.ndarray:
    # column link lengths between the first two rows
    return np.sqrt(b[0, :] * b[1, :])


def unistochastic_check_3(b) -> bool:
    """Whether a 3 x 3 bistochastic matrix is the squared-modulus pattern
    of some unitary: triangle inequality on the three column links."""
    links = _links(_check_bistochastic_3(b))
    return bool(2.0 * links.max() <= links.sum() + LINK_TRIANGLE_TOL)


def unistochastic_lift_3(b) -> np.ndarray:
    """Dephased unitary whose squared entry moduli reproduce b.

    Entry moduli are fixed as sqrt(b). The second-row phases close the
    link triangle (law of cosines via circle intersection), and the third
    row is the conjugated cross product of the first two, which is the
    unique unit vector orthogonal to both up to phase. Boundary points
    (degenerate triangles) are handled by the same construction.
    """
    b = _check_bistochastic_3(b)
    links = _links(b)
    if 2.0 * links.max() > links.sum() + LINK_TRIANGLE_TOL:
        raise ValueError("matrix is not unistochastic: link triangle inequality fails")
    mods = np.sqrt(b)

    phi = np.zeros(3)
    if links.max() > DEGENERATE_LINK:
        anchor = int(np.argmax(links))
        i, j = [idx for idx in range(3) if idx != anchor]
        la, li, lj = links[anchor], links[i], links[j]
        # close the triangle: walk la along +x, then li, then lj back home
        px = (la * la + lj * lj - li * li) / (2.0 * la)
        py = math.sqrt(max(lj * lj - px * px, 0.0))
        phi[i] = math.atan2(py, px - la)
        phi[j] = math.atan2(-py, -px)

    row0 = mods[0].astype(complex)
    row1 = mods[1] * np.exp(1j * phi)
    row2 = np.conj(np.cross(row0, row1))
    nrm = np.linalg.norm(row2)
    if nrm > 0.0:
        row2 = row2 / nrm
    if abs(row2[0]) > 0.0:
        row2 = row2 * (row2[0].conj() / abs(row2[0]))
    return np.vstack([row0, row1, row2])


def lift_residual(u: np.ndarray, b) -> float:
    """Max deviation of |u|^2 from the target bistochastic matrix."""
    return float(np.abs(np.abs(np.asarray(u)) ** 2 - np.asarray(b, dtype=float)).max())


@dataclass(frozen=True)
class ScanRecord:
    a: float
    b: float
    feasible: bool
    b_mu: float | None
    b_ladder_2: float | None
    diff: float | None


def cross_section_scan(grid_step: float, alpha) -> list:
    """Scan the simplex slice on a regular grid.

    For each (a, b) with a + b <= 1 + NEGATIVE_CLAMP: record feasibility;
    where feasible, lift to a unitary and record the gap between the
    max-entry bound and the order-alpha two-step ladder bound. Deterministic output ordering,
    sorted by (a, b). A lift that fails its own reconstruction residual
    aborts the scan: that is an implementation bug, not data.
    """
    if not (0.0 < grid_step <= 0.1):
        raise ValueError("grid_step must lie in (0, 0.1]")
    steps = int(round(1.0 / grid_step))
    records = []
    for ia in range(steps + 1):
        a = ia * grid_step
        for ib in range(steps + 1 - ia):
            bb = ib * grid_step
            # the same edge allowance as BirkhoffPoint, so every kept point
            # is a valid one
            if a + bb > 1.0 + NEGATIVE_CLAMP:
                continue
            mat = birkhoff_matrix(BirkhoffPoint(min(a, 1.0), min(bb, 1.0)))
            if not unistochastic_check_3(mat):
                records.append(ScanRecord(a, bb, False, None, None, None))
                continue
            u = unistochastic_lift_3(mat)
            resid = lift_residual(u, mat)
            if resid > LIFT_RESIDUAL_TOL:
                raise RuntimeError(
                    f"lift residual {resid:.3e} at ({a}, {bb}) exceeds {LIFT_RESIDUAL_TOL:g}"
                )
            report = bound_ladder(u, alpha)
            mu = bound_mu(u)
            b2 = float(report.ladder[1])
            records.append(ScanRecord(a, bb, True, mu, b2, mu - b2))
    return records
