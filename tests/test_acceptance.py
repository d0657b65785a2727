"""End-to-end acceptance checks, one test per contract item.

ac01-ac03, ac09 and ac10 are self-contained and state their tolerances
inline. ac04-ac08 run the verify suite's check for their claim over
independent streams of a pinned seed, so each claim has one
implementation; they assert that the named tolerances those checks read
from the numeric contract in matrices.py keep their contract values.
Run with -v to get one pass/fail line per item.
"""

import math
import time

import numpy as np
import pytest

import eub.cli as cli
from eub import (
    BirkhoffPoint,
    RngSeed,
    beat_rate,
    birkhoff_matrix,
    bound_deutsch,
    bound_ladder,
    bound_mu,
    classical_bound,
    cross_section_scan,
    fourier_matrix,
    ladder_from_coefficients,
    lift_residual,
    majorization_fuzz,
    matrices,
    permutation_power,
    rotation_matrix,
    s_coefficients,
    unistochastic_lift_3,
)


def test_ac01_fourier_sharpness():
    "bound_mu on the n-point Fourier matrix equals ln n within 1e-12."
    for n in range(2, 9):
        assert abs(bound_mu(fourier_matrix(n)) - math.log(n)) <= 1e-12


def test_ac02_beat_rates():
    """Win rate of the top ladder rung over the max-entry bound on Haar
    samples matches the reference values within 0.012, in under 10 minutes."""
    anchors = {2: 0.814, 3: 0.971, 4: 0.972, 5: 0.984, 6: 0.991}
    t0 = time.monotonic()
    for n, anchor in anchors.items():
        res = beat_rate(n, 100_000, RngSeed(20240202))
        assert abs(res.rate - anchor) <= 0.012, f"n={n}: {res.rate} vs {anchor}"
    assert time.monotonic() - t0 < 600.0


def test_ac03_product_majorization_fuzz():
    "10^4 Haar (U, psi) pairs per dimension: p x q never escapes Q."
    for n in range(2, 7):
        rep = majorization_fuzz(n, 10_000, RngSeed(30303 + n))
        assert rep.violations == 0, f"n={n}: {rep.violations} violations"
        assert rep.worst_slack >= -1e-10


def _failing_streams(check, seed, streams):
    # (stream, message) of every stream of seed on which a verify check fails
    results = ((i, check(RngSeed(seed, stream=i))) for i in range(streams))
    return [(i, detail) for i, (ok, detail) in results if not ok]


def test_ac04_ladder_chain_and_lhs():
    """Ladder rungs ascend within 1e-12 at every order, and the entropy sum
    of random states stays above the top rung within 1e-10: verify's
    ladder check over 200 streams, 2000 draws and 50k entropy sums per n."""
    assert (matrices.LADDER_MONOTONE_TOL, matrices.ENTROPY_TOL) == (1e-12, 1e-10)
    assert _failing_streams(cli._verify_ladder, 40404, 200) == []


def test_ac05_deutsch_relation():
    """The (1+c)/2 closed form never exceeds the -2 ln c form (1e-12), and
    its underlying max product is attained by the two-subspace maximizer
    (1e-10): verify's Deutsch check over 10 streams, 200 draws per n, and
    the rotation family."""
    assert (matrices.CLOSED_FORM_ORDER_TOL, matrices.MAX_PRODUCT_TOL) == (1e-12, 1e-10)
    assert _failing_streams(cli._verify_deutsch, 50505, 10) == []
    rotations = np.array([rotation_matrix(float(theta)) for theta in np.linspace(0.0, math.pi / 2, 11)])
    assert (bound_deutsch(rotations) <= bound_mu(rotations) + matrices.CLOSED_FORM_ORDER_TOL).all()


def test_ac06_two_subspace_extremal_suite():
    """Random subspace pairs: the 1 + sigma_1 value is an upper bound (1e-10),
    is attained (1e-10) with equal subspace weights (1e-10), and matches the
    block-matrix top eigenvalue (1e-12): verify's extremal check over 100
    streams, 500 pairs and 100k random states per n."""
    assert (matrices.OVERLAP_SUM_TOL, matrices.BLOCK_EIGENVALUE_TOL) == (1e-10, 1e-12)
    assert _failing_streams(cli._verify_extremal, 60606, 100) == []


def test_ac07_equivalence_invariance():
    """Random (U, transform) pairs: coefficients and all bounds at five
    orders agree before and after within 1e-10: verify's transform check
    over 100 streams, 1000 pairs per n."""
    assert matrices.TRANSFORM_INVARIANCE_TOL == 1e-10
    assert _failing_streams(cli._verify_transform_invariance, 70707, 100) == []


def test_ac08_classical_analogue():
    """Random column-stochastic (T, P) instances satisfy the mixture
    inequalities and H(P) + H(TP) >= -ln(max entry) within 1e-10: verify's
    classical check over 20 streams, 10^4 trials; the identity and flat
    matrices give 0 and ln n exactly."""
    assert matrices.ENTROPY_TOL == 1e-10
    assert _failing_streams(cli._verify_classical, 80808, 20) == []
    for n in range(2, 7):
        assert classical_bound(np.eye(n)) == 0.0
        assert classical_bound(np.full((n, n), 1.0 / n)) == math.log(n)


def test_ac09_cross_section_scan():
    """At grid step 0.01 the feasible set matches an independent link-cri-
    terion recomputation; every feasible lift reproduces its matrix within
    1e-9; the flat center keeps a strictly positive bound improvement."""
    records = cross_section_scan(0.01, 1.0)
    assert len(records) == 5151
    n_feasible = 0
    for rec in records:
        mat = birkhoff_matrix(BirkhoffPoint(min(rec.a, 1.0), min(rec.b, 1.0)))
        links = np.sqrt(np.clip(mat[0, :] * mat[1, :], 0.0, None))
        feasible = 2.0 * float(links.max()) <= float(links.sum()) + 1e-12
        assert feasible == rec.feasible, f"flag mismatch at ({rec.a}, {rec.b})"
        if rec.feasible:
            n_feasible += 1
            u = unistochastic_lift_3(mat)
            assert lift_residual(u, mat) <= 1e-9
            assert rec.diff == pytest.approx(rec.b_mu - rec.b_ladder_2, abs=1e-15)
        else:
            assert rec.b_mu is None and rec.b_ladder_2 is None and rec.diff is None
    assert 0 < n_feasible < len(records)

    center = birkhoff_matrix(BirkhoffPoint(1.0 / 3.0, 1.0 / 3.0))
    u = unistochastic_lift_3(center)
    assert bound_mu(u) - bound_ladder(u, 1.0).ladder[1] > 0.0


def test_ac10_family_sweeps():
    """Rotation curves are symmetric about the quarter turn, cyclic-power
    curves vanish at integer powers, and ladders ascend pointwise."""
    thetas = np.linspace(0.0, math.pi / 2, 21)
    reports = [bound_ladder(rotation_matrix(float(t)), 1.0) for t in thetas]
    for rep, mirror in zip(reports, reversed(reports)):
        assert abs(rep.b_mu - mirror.b_mu) <= 1e-10
        assert abs(rep.b_deutsch - mirror.b_deutsch) <= 1e-10
        assert np.max(np.abs(rep.ladder - mirror.ladder)) <= 1e-10
    for rep in (reports[0], reports[-1]):
        assert rep.b_mu <= 1e-12 and rep.ladder[-1] <= 1e-12

    for n in (3, 4, 5):
        for beta in np.linspace(0.0, 1.0, 21):
            u = permutation_power(n, float(beta))
            sc = s_coefficients(u)
            for alpha in (1.0, math.inf):
                rep = ladder_from_coefficients(sc, alpha)
                assert np.all(np.diff(rep.ladder) >= -1e-12)
                if beta in (0.0, 1.0):
                    assert rep.b_mu <= 1e-12
                    assert rep.ladder[-1] <= 1e-12
