"""Parametric matrix families and the order-3 unistochastic cross-section.

Families: plane rotations O(theta), cyclic shifts, fractional powers of
the shift through its Fourier eigenbasis, Fourier matrices, and the
two-parameter bistochastic slice B(a, b) = a P + b P^2 + (1 - a - b) I
of order 3. A 3 x 3 bistochastic matrix is unistochastic iff the three
column link lengths sqrt(B_1j B_2j) satisfy the triangle inequality; the
lift construction realizes a witness unitary and validates itself by its
reconstruction residual.

The slice's matrices, their checks (simplex weights, bistochastic sums,
link triangle), the lift and its residual work on one matrix or on a stack
of them, each matrix on its own, so the cross-section scan checks its whole
grid and lifts its feasible points in one call each, and the single-matrix
functions are the same rules on one matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# the scan calls bounds.ladder_from_coefficients through the module, where
# bench/tracer.py wraps it; bound_ladder and bound_mu are imported only for
# the tracer's WRAPS, which names them
from . import bounds
from .bounds import bound_ladder, bound_mu  # noqa: F401
from .entropy import _check_order
from .matrices import (
    DEGENERATE_LINK,
    LIFT_RESIDUAL_TOL,
    LINK_TRIANGLE_TOL,
    NEGATIVE_CLAMP,
    PROB_SUM_TOL,
    _checked_record,
    _clamp_debris,
    _first_failure,
    _unit_normalized,
    _unit_reduce,
)
from .submatrices import _checked_coefficients


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


class BirkhoffPoint(_checked_record("BirkhoffPoint", "a b")):
    """Simplex coordinates of the bistochastic slice; a, b >= 0, a+b <= 1.

    Each of the weights a, b and 1 - a - b may be negative by at most
    NEGATIVE_CLAMP (rounding debris); anything beyond raises ValueError,
    naming the first such point. a and b may also be arrays of one shape,
    a stack of points, each checked by the same rule.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        wa, wb = np.broadcast_arrays(a, b)
        i = _first_failure((np.minimum(wa, wb) >= -NEGATIVE_CLAMP) & (wa + wb <= 1.0 + NEGATIVE_CLAMP))
        if i is not None:
            raise ValueError(f"point ({wa.flat[i]}, {wb.flat[i]}) outside the simplex")
        return super().__new__(cls, a, b)


def birkhoff_matrix(p: BirkhoffPoint) -> np.ndarray:
    """a P + b P^2 + (1 - a - b) I as a real doubly stochastic 3 x 3 matrix.

    For a stack of points, one matrix per point on the trailing axes.
    """
    # the weights 1 - a - b, a and b gathered onto the patterns of I, P and
    # P^2, as float64; adding 0.0 turns a weight of -0.0 into the 0.0 that
    # the sum a P + b P^2 + (1 - a - b) I gives there
    a, b = np.asarray(p.a), np.asarray(p.b)
    return np.add(np.stack([1.0 - a - b, a, b], -1), 0.0, dtype=float)[..., [[0, 1, 2], [2, 0, 1], [1, 2, 0]]]


def _check_bistochastic_3(b) -> np.ndarray:
    # 3 x 3 matrices on the trailing axes, clamped and checked matrix by
    # matrix; the first failing matrix names its entry or deviation.
    b = np.asarray(b, dtype=float)
    if b.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3 x 3 matrices on the trailing axes, got shape {b.shape}")
    b, lows, clean = _clamp_debris(b, (-2, -1))
    dev = np.maximum(np.abs(_unit_reduce(np.add, b, -2) - 1.0), np.abs(_unit_reduce(np.add, b, -1) - 1.0))
    sums = _unit_reduce(np.maximum, dev, -1)
    bad = _first_failure(clean & (sums <= PROB_SUM_TOL))
    if bad is not None:
        if not clean.flat[bad]:
            raise ValueError(f"negative entry {lows.flat[bad]:.3e}")
        raise ValueError(f"row/column sums deviate from 1 by {sums.flat[bad]:.3e}")
    return b


def _link_triangle(b) -> tuple:
    # validated b, its column links (rows 0 and 1) and whether they close a
    # triangle, per matrix of a stack on the trailing axes
    b = _check_bistochastic_3(b)
    links = np.sqrt(b[..., 0, :] * b[..., 1, :])
    return b, links, 2.0 * _unit_reduce(np.maximum, links, -1) <= _unit_reduce(np.add, links, -1) + LINK_TRIANGLE_TOL


def unistochastic_check_3(b) -> bool:
    """Whether a 3 x 3 bistochastic matrix is the squared-modulus pattern
    of some unitary: triangle inequality on the three column links."""
    if np.ndim(b) != 2:
        raise ValueError(f"expected a 3 x 3 matrix, got shape {np.shape(b)}")
    return bool(_link_triangle(b)[2])


def unistochastic_lift_3(b) -> np.ndarray:
    """Dephased unitary whose squared entry moduli reproduce b.

    Entry moduli are fixed as sqrt(b). The second-row phases close the
    link triangle (law of cosines via circle intersection), and the third
    row is the conjugated cross product of the first two, which is the
    unique unit vector orthogonal to both up to phase. Boundary points
    (degenerate triangles) are handled by the same construction.

    A stack of matrices on the trailing axes lifts matrix by matrix, each
    to the bits of its lift alone; one matrix is a stack with no leading axes.
    """
    b, links, closes = _link_triangle(b)
    if not closes.all():
        raise ValueError("matrix is not unistochastic: link triangle inequality fails")
    mods = np.sqrt(b)

    # Close each triangle: walk the longest link la along +x, then li, then
    # lj back home (i < j the other two columns). All-degenerate links keep
    # zero phases, and a step the one-matrix arithmetic skips (zero norm,
    # zero first entry) leaves its matrix untouched, signed zeros included.
    with np.errstate(divide="ignore", invalid="ignore"):
        others = np.array([[1, 2], [0, 2], [0, 1]])[links.argmax(axis=-1)]
        la = _unit_reduce(np.maximum, links, -1)
        li, lj = np.moveaxis(np.take_along_axis(links, others, -1), -1, 0)
        px = (la * la + lj * lj - li * li) / (2.0 * la)
        py = np.sqrt(np.maximum(lj * lj - px * px, 0.0))
        # atan2(py, px - la) and atan2(-py, -px) with the bits of math.atan2:
        # numpy's complex log takes its phase from the C library's atan2,
        # which np.arctan2 does not
        z = np.empty(others.shape, dtype=complex)
        z.real, z.imag = np.stack([px - la, -px], -1), np.stack([py, -py], -1)
        phi = np.zeros(links.shape)
        np.put_along_axis(phi, others, np.log(z).imag, -1)
        phi = np.where((la > DEGENERATE_LINK)[..., None], phi, 0.0)

        row0 = mods[..., 0, :].astype(complex)
        row1 = mods[..., 1, :] * np.exp(1j * phi)
        row2 = np.conj(np.cross(row0, row1))
        row2 = _unit_normalized(row2)
        first = np.hypot(row2[..., :1].real, row2[..., :1].imag)
        row2 = np.where(first > 0.0, row2 * (np.conj(row2[..., :1]) / first), row2)
    return np.stack([row0, row1, row2], axis=-2)


def lift_residual(u: np.ndarray, b) -> np.ndarray:
    """Max deviation of |u|^2 from the target bistochastic matrix, per matrix of a stack."""
    return _unit_reduce(np.maximum, np.abs(np.abs(np.asarray(u)) ** 2 - np.asarray(b, dtype=float)), (-2, -1))


# The scan's cost grows with its grid's (steps + 1)(steps + 2)/2 points. At
# steps 0.01-0.001 (5151-501,501 points, 2-core box, one BLAS thread) one
# in-process `eub scan` took 2.1-2.6 us and a tracemalloc peak of 387-394
# bytes a point, and the peak RSS of a process that had run a small scan
# grew by 0.32-0.43 kB a point; at this limit that is about 2.6 s, 0.39 GB
# traced and 0.43 GB RSS. Step 0.001 passes; a finer grid is refused before
# any array is built (step 1e-4 would hold about 5e7 points, 1e-300 more
# than a float can count).
MAX_SCAN_POINTS = 1_000_000


class ScanColumns(NamedTuple):
    """The cross-section scan as columns, in (a, b) grid order.

    a, b and feasible hold one entry per grid point; b_mu and b_ladder_2
    one per feasible point, in the same order.
    """

    a: np.ndarray
    b: np.ndarray
    feasible: np.ndarray
    b_mu: np.ndarray
    b_ladder_2: np.ndarray


def cross_section_scan(grid_step: float, alpha) -> ScanColumns:
    """Scan the simplex slice on a regular grid.

    For each (a, b) with a + b <= 1 + NEGATIVE_CLAMP: record feasibility;
    where feasible, lift to a unitary and record the max-entry bound and
    the order-alpha two-step ladder bound. Deterministic output ordering,
    sorted by (a, b). A lift that fails its own reconstruction residual
    aborts the scan at the first such point in grid order: that is an
    implementation bug, not data.

    The grid's Birkhoff matrices are built and checked as one stack, and
    the feasible ones are lifted and residual-checked as one stack. The
    lifts then pass the checks of ``s_coefficients`` as one stack, and one
    ``s_coefficients_batch`` and one ``ladder_from_coefficients`` call give
    the bounds of ``bound_mu`` and ``bound_ladder`` at every lift. A grid
    of more than MAX_SCAN_POINTS points, and an order that ``bound_ladder``
    refuses, are refused with ValueError before any array is built.
    """
    if not (0.0 < grid_step <= 0.1):
        raise ValueError("grid_step must lie in (0, 0.1]")
    # Python floats, so a step whose inverse overflows counts inf points
    steps = float(np.rint(1.0 / grid_step))
    points = (steps + 1.0) * (steps + 2.0) / 2.0
    if points > MAX_SCAN_POINTS:
        raise ValueError(f"grid_step {grid_step!r} gives {points:.4g} grid points, more than the limit {MAX_SCAN_POINTS}")
    alpha = _check_order(alpha)
    steps = int(steps)
    index = np.arange(steps + 1)
    ia, ib = np.nonzero(np.add.outer(index, index) <= steps)
    a, b = ia * grid_step, ib * grid_step
    # the same edge allowance as BirkhoffPoint, so every kept point is a
    # valid one
    kept = a + b <= 1.0 + NEGATIVE_CLAMP
    a, b = a[kept], b[kept]
    mats = birkhoff_matrix(BirkhoffPoint(np.minimum(a, 1.0), np.minimum(b, 1.0)))
    feasible = _link_triangle(mats)[2]
    # (0, 0), the identity, is always feasible, so the stack is never empty
    mats = mats[feasible]
    lifts = unistochastic_lift_3(mats)
    resid = lift_residual(lifts, mats)
    bad = _first_failure(resid <= LIFT_RESIDUAL_TOL)
    if bad is not None:
        x, y = a[feasible][bad].item(), b[feasible][bad].item()
        raise RuntimeError(f"lift residual {resid[bad]:.3e} at ({x}, {y}) exceeds {LIFT_RESIDUAL_TOL:g}")
    report = bounds.ladder_from_coefficients(_checked_coefficients(lifts), alpha)
    return ScanColumns(a, b, feasible, report.b_mu, report.ladder[:, 1])
