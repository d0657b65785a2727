import contextlib
import io
import itertools
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
import eub.bounds as bounds
import eub.cli as cli
import eub.families as families
import eub.submatrices as submatrices
from eub.families import _check_bistochastic_3, _link_triangle
from eub.matrices import DEGENERATE_LINK, LIFT_RESIDUAL_TOL, NEGATIVE_CLAMP, _first_failure

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


def _hex(x):
    return None if x is None else float(x).hex()


def _per_point_scan(grid_step, alpha):
    # The scan as one loop over grid points: every matrix checked on its own
    # and every report from the validated single-matrix bounds.
    steps = int(round(1.0 / grid_step))
    records = []
    for ia in range(steps + 1):
        a = ia * grid_step
        for ib in range(steps + 1 - ia):
            b = ib * grid_step
            if a + b > 1.0 + NEGATIVE_CLAMP:
                continue
            mat = birkhoff_matrix(BirkhoffPoint(min(a, 1.0), min(b, 1.0)))
            if not unistochastic_check_3(mat):
                records.append((a, b, False, None, None, None))
                continue
            u = unistochastic_lift_3(mat)
            assert lift_residual(u, mat) <= LIFT_RESIDUAL_TOL
            mu = bound_mu(u)
            b2 = float(bound_ladder(u, alpha).ladder[1])
            records.append((a, b, True, mu, b2, mu - b2))
    return records


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("grid_step", [0.1, 0.05])
def test_scan_matches_per_point_oracle(grid_step, alpha):
    got = [
        (_hex(r.a), _hex(r.b), r.feasible, _hex(r.b_mu), _hex(r.b_ladder_2), _hex(r.diff))
        for r in cross_section_scan(grid_step, alpha)
    ]
    want = [(_hex(a), _hex(b), ok, _hex(mu), _hex(b2), _hex(d)) for a, b, ok, mu, b2, d in _per_point_scan(grid_step, alpha)]
    assert got == want


def _cli_scan_feasible(grid_step):
    # the feasible rows that `eub scan` prints, at order 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["scan", "--grid-step", str(grid_step)]) == 0
    return sum(line.split(",")[2] == "1" for line in out.getvalue().splitlines()[1:])


def _spy_batch(monkeypatch):
    calls = []
    batch = submatrices.s_coefficients_batch

    def spy(u_batch):
        calls.append(np.shape(u_batch))
        return batch(u_batch)

    def refuse(*args, **kwargs):
        raise AssertionError("per-point call in the scan")

    monkeypatch.setattr(submatrices, "s_coefficients_batch", spy)
    for module, name in ((submatrices, "s_coefficients"), (bounds, "s_coefficients"), (families, "bound_ladder")):
        monkeypatch.setattr(module, name, refuse)
    return calls


def test_scan_computes_s_in_one_batch(monkeypatch):
    calls = _spy_batch(monkeypatch)
    records = cross_section_scan(0.05, 1.0)
    assert calls == [(sum(r.feasible for r in records), 3, 3)]


def test_cli_scan_computes_s_in_one_batch(monkeypatch):
    calls = _spy_batch(monkeypatch)
    n = _cli_scan_feasible(0.05)
    assert calls == [(n, 3, 3)]


def _spy_ladder(monkeypatch):
    calls = []
    ladder = bounds.ladder_from_coefficients

    def spy(sc, alpha):
        calls.append(np.shape(sc.s))
        return ladder(sc, alpha)

    monkeypatch.setattr(bounds, "ladder_from_coefficients", spy)
    return calls


def test_scan_ladders_in_one_call(monkeypatch):
    calls = _spy_ladder(monkeypatch)
    records = cross_section_scan(0.05, 1.0)
    assert calls == [(sum(r.feasible for r in records), 3)]


def test_cli_scan_ladders_in_one_call(monkeypatch):
    calls = _spy_ladder(monkeypatch)
    n = _cli_scan_feasible(0.05)
    assert calls == [(n, 3)]


def _spy_lift(monkeypatch):
    calls = []
    for name in ("unistochastic_lift_3", "lift_residual"):
        def spy(*args, _rule=getattr(families, name), _name=name):
            calls.append((_name, np.shape(args[0])))
            return _rule(*args)

        monkeypatch.setattr(families, name, spy)
    return calls


def test_scan_lifts_and_checks_residuals_in_one_call(monkeypatch):
    calls = _spy_lift(monkeypatch)
    records = cross_section_scan(0.05, 1.0)
    n = sum(r.feasible for r in records)
    assert calls == [("unistochastic_lift_3", (n, 3, 3)), ("lift_residual", (n, 3, 3))]


def test_cli_scan_lifts_and_checks_residuals_in_one_call(monkeypatch):
    calls = _spy_lift(monkeypatch)
    n = _cli_scan_feasible(0.05)
    assert calls == [("unistochastic_lift_3", (n, 3, 3)), ("lift_residual", (n, 3, 3))]


def test_scan_refuses_a_nan_lift_residual(monkeypatch):
    # NaN is not <= the tolerance, so it fails like any residual above it
    monkeypatch.setattr(families, "lift_residual", lambda u, mat: np.full(np.shape(u)[:-2], np.nan))
    with pytest.raises(RuntimeError, match=r"lift residual nan at \(0\.0, 0\.0\)"):
        cross_section_scan(0.1, 1.0)


def test_scan_refuses_a_lift_that_is_not_unitary(monkeypatch):
    # the moduli stay exact, so the lift residual passes; rotating the phase
    # of u[1, 0] breaks the orthogonality of rows 0 and 1 wherever it is nonzero
    lift = families.unistochastic_lift_3

    def rotated(mat):
        u = lift(mat)
        u[..., 1, 0] *= np.exp(0.5j)
        return u

    monkeypatch.setattr(families, "unistochastic_lift_3", rotated)
    with pytest.raises(ValueError, match="unitarity residual"):
        cross_section_scan(0.1, 1.0)


def test_birkhoff_stack_is_pointwise():
    rng = np.random.default_rng(SEED)
    ab = rng.dirichlet(np.ones(3), size=40)[:, :2]
    stack = birkhoff_matrix(BirkhoffPoint(ab[:, 0], ab[:, 1]))
    assert stack.shape == (40, 3, 3)
    for (a, b), mat in zip(ab, stack):
        assert np.array_equal(mat, birkhoff_matrix(BirkhoffPoint(float(a), float(b))))
    _, links, closes = _link_triangle(stack)
    for mat, row, ok in zip(stack, links, closes):
        _, single_links, single_ok = _link_triangle(mat)
        assert np.array_equal(row, single_links) and ok == single_ok == unistochastic_check_3(mat)


def test_birkhoff_matrix_has_the_bits_of_the_product_sum():
    # a P + b P^2 + (1 - a - b) I summed as three full products, against the
    # gather of the three weights, on scan grids, random points, the corners
    # and weights of -0.0 and of rounding debris
    shift = cyclic_shift(3).real

    def product_sum(a, b):
        a, b = np.asarray(a)[..., None, None], np.asarray(b)[..., None, None]
        return a * shift + b * (shift @ shift) + (1.0 - a - b) * np.eye(3)

    points = []
    for step in (0.1, 0.05, 0.03, 0.0333, 0.07, 0.01):
        i, j = np.divmod(np.arange(int(1 / step + 1) ** 2), int(1 / step + 1))
        inside = i + j <= 1 / step
        points.append((i[inside] * step, j[inside] * step))
    ab = np.random.default_rng(SEED).dirichlet(np.ones(3), size=2000)[:, :2]
    points.append((ab[:, 0], ab[:, 1]))
    points += [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1 / 3, 1 / 3), (-0.0, 0.5), (0.5, -0.0), (-0.0, -0.0)]
    points += [(-NEGATIVE_CLAMP, 0.4), (0.6, -NEGATIVE_CLAMP), (0.5, 0.5 + NEGATIVE_CLAMP)]
    # integer and float32 weights, whose 1 - a - b the sum takes in their own type
    points += [(0, 1), (np.array([0, 1]), np.array([0, 0])), (ab[:50, 0].astype(np.float32), ab[:50, 1].astype(np.float32))]
    for a, b in points:
        got, want = birkhoff_matrix(BirkhoffPoint(a, b)), product_sum(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (a, b)


def test_birkhoff_stack_names_the_first_point_outside():
    with pytest.raises(ValueError, match=r"point \(0.7, 0.4\) outside the simplex"):
        BirkhoffPoint(np.array([0.2, 0.7, 0.9]), np.array([0.3, 0.4, 0.5]))


def test_bistochastic_stack_raises_the_single_message():
    good = np.full((3, 3), 1.0 / 3.0)
    bad = np.array([[0.9, 0.1, 0.1], [0.1, 0.9, 0.0], [0.0, 0.0, 0.9]])
    with pytest.raises(ValueError) as single:
        unistochastic_check_3(bad)
    with pytest.raises(ValueError) as stacked:
        _check_bistochastic_3(np.array([good, bad, bad * 0.5]))
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ValueError, match="expected a 3 x 3 matrix"):
        unistochastic_check_3(np.array([good, good]))


def test_bistochastic_stack_names_the_first_matrix_not_the_most_negative_entry():
    # matrix 0 fails by its sums; matrix 1's entry -2e-11 is the stack's minimum
    first, later = np.eye(3), np.eye(3)
    first[0, 0] = 0.9
    later[0, 1], later[0, 0] = -2e-11, 1.0 + 2e-11
    with pytest.raises(ValueError) as single:
        _check_bistochastic_3(first)
    assert str(single.value) == "row/column sums deviate from 1 by 1.000e-01"
    for check in (_check_bistochastic_3, unistochastic_lift_3):
        with pytest.raises(ValueError) as stacked:
            check(np.array([first, later]))
        assert str(stacked.value) == str(single.value)


def _slice_stack():
    # 20 unistochastic matrices of the slice, near its center
    ab = np.random.default_rng(SEED).dirichlet(np.full(3, 50.0), size=20)[:, :2]
    stack = birkhoff_matrix(BirkhoffPoint(ab[:, 0], ab[:, 1]))
    assert _link_triangle(stack)[2].all()
    return stack


def _planted_stack():
    # the slice stack with a row-sum deviation of 3e-9 planted in matrix 7
    # and a larger one, 5e-8, in matrix 12
    stack = _slice_stack()
    stack[7, 0, 0] += 3e-9
    stack[12, 2, 1] += 5e-8
    return stack


def test_stack_checks_name_the_first_failing_matrix():
    stack = _planted_stack()
    with pytest.raises(ValueError) as single:
        _check_bistochastic_3(stack[7])
    assert str(single.value) == "row/column sums deviate from 1 by 3.000e-09"
    for check in (_check_bistochastic_3, _link_triangle, unistochastic_lift_3):
        with pytest.raises(ValueError) as stacked:
            check(stack)
        assert str(stacked.value) == str(single.value)
    # a NaN in matrix 7 fails it first too
    stack[7, 1, 2] = np.nan
    with pytest.raises(ValueError, match="row/column sums deviate from 1 by nan"):
        _check_bistochastic_3(stack)


def test_an_empty_stack_lifts_to_an_empty_stack():
    # as birkhoff_matrix gives for an empty set of points: every stack
    # function returns its results for no matrix
    empty = birkhoff_matrix(BirkhoffPoint(np.zeros(0), np.zeros(0)))
    assert empty.shape == (0, 3, 3)
    u = unistochastic_lift_3(empty)
    assert u.shape == (0, 3, 3) and u.dtype == complex
    assert lift_residual(u, empty).shape == (0,)
    b, links, closes = _link_triangle(empty)
    assert b.shape == (0, 3, 3) and links.shape == (0, 3) and closes.shape == (0,)


def test_lift_residual_stack_names_the_first_failing_lift():
    # the lifts of clean targets, checked against targets that miss them in
    # matrices 7 and 12: each residual has the bits of its matrix's alone,
    # and the first above LIFT_RESIDUAL_TOL is matrix 7's
    lifts, targets = unistochastic_lift_3(_slice_stack()), _planted_stack()
    resid = lift_residual(lifts, targets)
    assert resid.shape == (20,)
    for i, (u, mat) in enumerate(zip(lifts, targets)):
        assert resid[i].hex() == float(lift_residual(u, mat)).hex()
    assert _first_failure(resid <= LIFT_RESIDUAL_TOL) == 7
    assert resid[7] == pytest.approx(3e-9, rel=1e-6) and resid[12] == pytest.approx(5e-8, rel=1e-6)


def test_scan_refuses_a_grid_past_the_limit_before_building_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(families, "birkhoff_matrix", refuse)
    monkeypatch.setattr(families, "BirkhoffPoint", refuse)
    # the whole messages are pinned with the other refusals in test_matrices
    for step in (1e-300, 1e-6):
        with pytest.raises(ValueError, match=f"more than the limit {families.MAX_SCAN_POINTS}"):
            cross_section_scan(step, 1.0)


def _scalar_lift_3(b):
    # The one-matrix construction the stacked lift replaced, kept as its
    # oracle: per-matrix control flow, math.atan2 and np.linalg.norm.
    b, links, closes = _link_triangle(np.asarray(b, dtype=float))
    assert closes
    mods = np.sqrt(b)
    phi = np.zeros(3)
    if links.max() > DEGENERATE_LINK:
        anchor = int(np.argmax(links))
        i, j = [idx for idx in range(3) if idx != anchor]
        la, li, lj = links[anchor], links[i], links[j]
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


def _feasible_grid(step):
    steps = int(round(1.0 / step))
    ab = np.array([(ia * step, ib * step) for ia in range(steps + 1) for ib in range(steps + 1 - ia)])
    mats = birkhoff_matrix(BirkhoffPoint(*np.minimum(ab, 1.0).T))
    return mats[_link_triangle(mats)[2]]


def _lift_test_matrices():
    # the scan grids' feasible points, random feasible points of the whole
    # Birkhoff polytope, the six permutations (degenerate links) and J/3
    perms = np.array([np.eye(3)[list(p)] for p in itertools.permutations(range(3))])
    weights = np.random.default_rng(SEED).dirichlet(np.ones(6), size=12000)
    polytope = np.einsum("kp,pij->kij", weights, perms)
    polytope = polytope[_link_triangle(polytope)[2]][:5000]
    assert len(polytope) == 5000
    return np.concatenate([_feasible_grid(0.01), _feasible_grid(0.005), polytope, perms, np.full((1, 3, 3), 1.0 / 3.0)])


def test_lift_stack_is_bit_identical_to_the_scalar_construction():
    mats = _lift_test_matrices()
    stack = unistochastic_lift_3(mats)
    assert stack.shape == mats.shape
    for mat, lifted in zip(mats, stack):
        want = _scalar_lift_3(mat).tobytes()
        assert lifted.tobytes() == want
        assert unistochastic_lift_3(mat).tobytes() == want
    assert lift_residual(stack, mats).shape == (len(mats),)
    half = len(mats) // 2
    assert unistochastic_lift_3(mats[: 2 * half].reshape(2, half, 3, 3)).tobytes() == stack[: 2 * half].tobytes()


def test_lift_stack_refuses_any_infeasible_matrix():
    mats = birkhoff_matrix(BirkhoffPoint(np.array([0.0, 0.5, 1 / 3]), np.array([0.0, 0.5, 1 / 3])))
    with pytest.raises(ValueError, match="link triangle"):
        unistochastic_lift_3(mats)
    with pytest.raises(ValueError, match="3 x 3 matrices on the trailing axes"):
        unistochastic_lift_3(np.eye(4))
