import math

import numpy as np
import pytest

from eub import (
    BirkhoffPoint,
    birkhoff_matrix,
    bound_ladder,
    bound_mu,
    cross_section_scan,
    cyclic_shift,
    fourier_matrix,
    is_unitary,
    lift_residual,
    permutation_power,
    rotation_matrix,
    unistochastic_check_3,
    unistochastic_lift_3,
)
from eub.matrices import NEGATIVE_CLAMP

SEED = 31337


def test_cyclic_shift_pattern():
    p = cyclic_shift(3)
    assert np.array_equal(p, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    for n in (2, 3, 5):
        pn = np.linalg.matrix_power(cyclic_shift(n), n)
        assert np.array_equal(pn, np.eye(n))
    with pytest.raises(ValueError):
        cyclic_shift(1)


def test_fourier2_is_hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert np.allclose(fourier_matrix(2), h, atol=1e-15)


def test_rotation_matrix_basic():
    assert np.allclose(rotation_matrix(0.0), np.eye(2), atol=1e-15)
    r = rotation_matrix(math.pi / 2)
    assert np.allclose(np.abs(r), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
    assert is_unitary(rotation_matrix(1.234))


def test_rotation_bound_symmetry():
    "Bounds at theta and pi/2 - theta coincide."
    for theta in np.linspace(0.0, math.pi / 4, 9):
        u = rotation_matrix(theta)
        v = rotation_matrix(math.pi / 2 - theta)
        assert abs(bound_mu(u) - bound_mu(v)) <= 1e-12
        r1 = bound_ladder(u, 1.0).ladder
        r2 = bound_ladder(v, 1.0).ladder
        assert np.max(np.abs(r1 - r2)) <= 1e-12


def test_permutation_power_endpoints():
    for n in (2, 3, 4, 5):
        assert np.allclose(permutation_power(n, 0.0), np.eye(n), atol=1e-12)
        assert np.allclose(permutation_power(n, 1.0), cyclic_shift(n), atol=1e-12)
        assert np.allclose(permutation_power(n, float(n)), np.eye(n), atol=1e-12)


def test_permutation_power_half_frozen():
    expect = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
    assert np.allclose(permutation_power(2, 0.5), expect, atol=1e-14)
    sq = permutation_power(2, 0.5)
    assert np.allclose(sq @ sq, cyclic_shift(2), atol=1e-13)


def test_permutation_power_group_law():
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        b1 = float(rng.uniform(0, n))
        b2 = float(rng.uniform(0, n))
        lhs = permutation_power(n, b1) @ permutation_power(n, b2)
        rhs = permutation_power(n, b1 + b2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_permutation_power_unitary_along_path():
    for n in (2, 3, 4):
        for beta in np.linspace(0.0, float(n), 17):
            assert is_unitary(permutation_power(n, float(beta)))


def test_birkhoff_point_validation():
    BirkhoffPoint(0.0, 0.0)
    BirkhoffPoint(0.5, 0.5)
    with pytest.raises(ValueError):
        BirkhoffPoint(-0.1, 0.5)
    with pytest.raises(ValueError):
        BirkhoffPoint(0.6, 0.6)


def test_birkhoff_matrix_corners():
    p = cyclic_shift(3)
    assert np.allclose(birkhoff_matrix(BirkhoffPoint(0.0, 0.0)), np.eye(3), atol=1e-15)
    assert np.allclose(birkhoff_matrix(BirkhoffPoint(1.0, 0.0)), p, atol=1e-15)
    assert np.allclose(birkhoff_matrix(BirkhoffPoint(0.0, 1.0)), p @ p, atol=1e-15)
    flat = birkhoff_matrix(BirkhoffPoint(1.0 / 3.0, 1.0 / 3.0))
    assert np.allclose(flat, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_unistochastic_check_known_points():
    assert unistochastic_check_3(np.eye(3))
    assert unistochastic_check_3(np.full((3, 3), 1.0 / 3.0))
    assert unistochastic_check_3(birkhoff_matrix(BirkhoffPoint(1.0, 0.0)))
    # edge midpoints sit outside the feasible region
    assert not unistochastic_check_3(birkhoff_matrix(BirkhoffPoint(0.5, 0.5)))
    assert not unistochastic_check_3(birkhoff_matrix(BirkhoffPoint(0.0, 0.5)))
    assert not unistochastic_check_3(birkhoff_matrix(BirkhoffPoint(0.5, 0.0)))
    with pytest.raises(ValueError):
        unistochastic_check_3(np.eye(2))
    with pytest.raises(ValueError):
        unistochastic_check_3(np.array([[0.9, 0.1, 0.1], [0.1, 0.9, 0.0], [0.0, 0.0, 0.9]]))


def test_unistochastic_lift_reconstructs():
    """Feasible points lift to a unitary whose squared moduli reproduce B."""
    rng = np.random.default_rng(SEED)
    found = 0
    while found < 60:
        a, b = rng.uniform(0, 1, size=2)
        if a + b > 1.0:
            continue
        mat = birkhoff_matrix(BirkhoffPoint(float(a), float(b)))
        if not unistochastic_check_3(mat):
            continue
        u = unistochastic_lift_3(mat)
        assert is_unitary(u)
        assert lift_residual(u, mat) <= 1e-9
        found += 1


def test_unistochastic_lift_rejects_infeasible():
    with pytest.raises(ValueError, match="triangle"):
        unistochastic_lift_3(birkhoff_matrix(BirkhoffPoint(0.5, 0.5)))


def test_lift_center_exact():
    mat = np.full((3, 3), 1.0 / 3.0)
    u = unistochastic_lift_3(mat)
    assert lift_residual(u, mat) <= 1e-12


def test_scan_smoke():
    records = cross_section_scan(0.1, 1.0)
    assert len(records) == 66
    keys = [(r.a, r.b) for r in records]
    assert keys == sorted(keys)
    by_key = {(round(r.a, 9), round(r.b, 9)): r for r in records}
    assert by_key[(0.0, 0.0)].feasible
    assert by_key[(1.0, 0.0)].feasible
    assert by_key[(0.0, 1.0)].feasible
    assert not by_key[(0.5, 0.5)].feasible
    corner = by_key[(0.0, 0.0)]
    assert corner.b_mu == pytest.approx(0.0, abs=1e-12)
    assert corner.diff == pytest.approx(0.0, abs=1e-12)
    infeasible = by_key[(0.0, 0.5)]
    assert infeasible.b_mu is None and infeasible.diff is None


def test_scan_step_just_above_a_grid_divisor():
    # 20 steps of 0.05000000002 overshoot the edge a + b = 1 by 4e-10: those
    # points lie outside the simplex and are skipped, not passed on to
    # BirkhoffPoint, which refuses them
    records = cross_section_scan(0.05000000002, 1.0)
    assert len(records) == 210
    assert all(r.a + r.b <= 1.0 + NEGATIVE_CLAMP for r in records)


def test_scan_grid_step_validation():
    with pytest.raises(ValueError):
        cross_section_scan(0.0, 1.0)
    with pytest.raises(ValueError):
        cross_section_scan(0.2, 1.0)
