import math

import numpy as np
import pytest

from eub import (
    RngSeed,
    bound_deutsch,
    bound_ladder,
    bound_mu,
    check_stochastic,
    classical_bound,
    classical_mixture_entropy,
    eur_lhs,
    fourier_matrix,
    haar_unitary,
    ladder_from_coefficients,
    majorizes,
    majorizing_vector,
    renyi_entropy,
    rotation_matrix,
    s_coefficients,
    slomczynski_check,
)
from eub.bounds import _q_rows
from eub.submatrices import SubmatrixCoefficients

SEED = 70707


def test_majorizing_vector_rotation():
    mv = majorizing_vector(s_coefficients(rotation_matrix(math.pi / 4)))
    assert mv.q_full[0] == pytest.approx(0.7285533905932737, abs=1e-15)
    assert mv.q_full.sum() == pytest.approx(1.0, abs=1e-14)
    assert len(mv.truncations) == 1
    assert np.allclose(mv.truncations[0], mv.q_full, atol=1e-15)


def test_majorizing_vector_truncation_chain():
    "Q^(1) majorizes Q^(2) majorizes ... majorizes Q = Q^(N-1)."
    for i, n in enumerate((3, 4, 5, 6)):
        u = haar_unitary(n, RngSeed(SEED + i))
        mv = majorizing_vector(s_coefficients(u))
        assert len(mv.truncations) == n - 1
        for k, t in enumerate(mv.truncations, start=1):
            assert t.size == k + 1
            assert t.sum() == pytest.approx(1.0, abs=1e-12)
        for a, b in zip(mv.truncations, mv.truncations[1:]):
            assert majorizes(a, b)
        assert np.allclose(mv.truncations[-1], mv.q_full, atol=1e-15)


def _hand_built(s):
    s = np.array(s)
    return SubmatrixCoefficients(n=s.size, s=s, r=((1.0 + s) / 2.0) ** 2)


def test_q_rows_rejects_non_monotone_s():
    # r_2 - r_1 = 0.5625 - 0.64: far outside the clamp window
    with pytest.raises(ValueError, match="below clamp window"):
        _q_rows(np.array([[0.6, 0.5, 1.0]]), 2)
    with pytest.raises(ValueError, match="below clamp window"):
        majorizing_vector(_hand_built([0.6, 0.5, 1.0]))


def test_one_ulp_dip_is_zeroed():
    s = [0.6, 0.6 - 1e-15, 1.0]
    q = _q_rows(np.array([s]), 2)[0]
    assert q[1] == 0.0
    assert np.all(q >= 0.0) and q.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(majorizing_vector(_hand_built(s)).q_full, q)


def test_closed_form_bounds():
    for n in range(2, 7):
        assert bound_mu(fourier_matrix(n)) == pytest.approx(math.log(n), abs=1e-12)
    r = rotation_matrix(math.pi / 4)
    assert bound_deutsch(r) == pytest.approx(0.31669436764074993, abs=1e-15)
    assert bound_mu(r) == pytest.approx(math.log(2), abs=1e-14)
    assert bound_deutsch(np.eye(3)) == 0.0
    assert bound_mu(np.eye(3)) == 0.0


def test_deutsch_never_beats_mu():
    for i in range(40):
        u = haar_unitary(2 + i % 5, RngSeed(SEED + 10 + i))
        assert bound_deutsch(u) <= bound_mu(u) + 1e-12


def test_ladder_report():
    f3 = fourier_matrix(3)
    rep = bound_ladder(f3, 1.0)
    assert rep.n == 3
    assert rep.ladder.shape == (2,)
    assert rep.ladder[0] <= rep.ladder[1] + 1e-12
    # strictly below ln 3: the two-step bound does not reach MU sharpness here
    assert rep.ladder[1] < math.log(3) - 1e-3
    assert rep.b_mu == pytest.approx(math.log(3), abs=1e-12)

    rep_inf = bound_ladder(f3, math.inf)
    # min-entropy of every truncation is -ln R_1
    assert np.allclose(rep_inf.ladder, rep_inf.b_deutsch, atol=1e-12)


def test_ladder_from_coefficients_consistency():
    u = haar_unitary(5, RngSeed(SEED + 60))
    sc = s_coefficients(u)
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        direct = bound_ladder(u, a)
        shared = ladder_from_coefficients(sc, a)
        assert np.array_equal(direct.ladder, shared.ladder)
        assert direct.b_mu == shared.b_mu


@pytest.mark.parametrize("alpha", [float("nan"), -2.0, -math.inf])
def test_ladder_rejects_bad_order_at_every_n(alpha):
    # N = 1 has no rungs, so the order is checked before any is evaluated
    for u in (np.eye(1), fourier_matrix(3)):
        with pytest.raises(ValueError, match="entropy order"):
            bound_ladder(u, alpha)


@pytest.mark.parametrize("alpha", [float("nan"), -1.0, -math.inf])
def test_ladder_checks_order_before_s(alpha, monkeypatch):
    # a bad order is refused before the s chain, the costly step, is computed
    def no_s(*args, **kwargs):
        raise AssertionError("s_coefficients called before the order check")

    monkeypatch.setattr("eub.bounds.s_coefficients", no_s)
    with pytest.raises(ValueError, match="entropy order"):
        bound_ladder(fourier_matrix(11), alpha)


def test_bound_report_json():
    rep = bound_ladder(fourier_matrix(2), math.inf)
    obj = rep.to_json()
    assert obj["alpha"] == "inf"
    assert obj["n"] == 2
    assert isinstance(obj["ladder"], list)
    obj2 = bound_ladder(fourier_matrix(2), 2.0).to_json()
    assert obj2["alpha"] == 2.0


def test_eur_lhs_fourier_sharp():
    """A basis state hits H(p) + H(q) = ln N under the Fourier transform."""
    for n in (2, 3, 5):
        psi = np.zeros(n, dtype=complex)
        psi[0] = 1.0
        val = eur_lhs(fourier_matrix(n), psi, 1.0)
        assert val == pytest.approx(math.log(n), abs=1e-12)


def test_eur_lhs_identity():
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    assert eur_lhs(np.eye(2), psi, 1.0) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_eur_lhs_validation():
    with pytest.raises(ValueError, match="dimension"):
        eur_lhs(np.eye(3), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="norm"):
        eur_lhs(np.eye(2), np.array([1.0, 1.0]), 1.0)


def test_eur_lhs_dominates_ladder_fuzz():
    rng = np.random.default_rng(SEED)
    for i in range(25):
        n = int(rng.integers(2, 6))
        u = haar_unitary(n, RngSeed(SEED + 200 + i))
        sc = s_coefficients(u)
        for a in (0.5, 1.0, 3.0, math.inf):
            apex = ladder_from_coefficients(sc, a).ladder[-1]
            for _ in range(5):
                psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                psi /= np.linalg.norm(psi)
                assert eur_lhs(u, psi, a) >= apex - 1e-10


def test_check_stochastic():
    t = np.array([[0.2, 0.5], [0.8, 0.5]])
    check_stochastic(t)
    with pytest.raises(ValueError, match="row-stochastic"):
        check_stochastic(np.array([[0.2, 0.8], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        check_stochastic(np.array([[0.2, 0.5], [0.7, 0.5]]))
    with pytest.raises(ValueError):
        check_stochastic(np.array([[-0.1, 0.5], [1.1, 0.5]]))


def test_classical_bound_exact_cases():
    assert classical_bound(np.eye(4)) == 0.0
    for n in (2, 3, 4, 5, 6):
        flat = np.full((n, n), 1.0 / n)
        assert classical_bound(flat) == math.log(n)


def test_classical_mixture_entropy_cases():
    n = 3
    flat = np.full((n, n), 1.0 / n)
    p = np.array([0.2, 0.3, 0.5])
    assert classical_mixture_entropy(flat, p) == pytest.approx(math.log(n), abs=1e-12)
    assert classical_mixture_entropy(np.eye(n), p) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        classical_mixture_entropy(flat, np.array([0.5, 0.5]))


def test_slomczynski_point_mass():
    # with a point-mass input both inequalities collapse to equalities
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        t = rng.exponential(size=(n, n))
        t /= t.sum(axis=0, keepdims=True)
        for i in range(n):
            p = np.zeros(n)
            p[i] = 1.0
            assert slomczynski_check(t, p)
            assert classical_mixture_entropy(t, p) == pytest.approx(
                renyi_entropy(t[:, i], 1.0), abs=1e-12
            )


def test_classical_fuzz():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        t = rng.exponential(size=(n, n))
        t /= t.sum(axis=0, keepdims=True)
        p = rng.exponential(size=n)
        p /= p.sum()
        assert slomczynski_check(t, p)
        total = renyi_entropy(p, 1.0) + renyi_entropy(t @ p, 1.0)
        assert total >= classical_bound(t) - 1e-10
