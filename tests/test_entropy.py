import math

import numpy as np
import pytest

from eub import majorizes, renyi_entropy, schur_concavity_witness, tensor_product
from eub.bounds import _q_rows, check_stochastic
from eub.entropy import check_probability_vector, clamp_negative
from eub.families import _check_bistochastic_3

SEED = 8831

ALPHAS = (0.0, 0.5, 1.0, 2.0, 5.0, math.inf)


def random_dist(rng, n):
    p = rng.exponential(size=n)
    return p / p.sum()


def test_uniform_closed_form():
    for n in (1, 2, 3, 5, 8):
        u = np.full(n, 1.0 / n)
        for a in ALPHAS:
            assert renyi_entropy(u, a) == pytest.approx(math.log(n), abs=1e-12)


def test_point_mass_closed_form():
    p = np.array([0.0, 1.0, 0.0])
    for a in ALPHAS:
        assert renyi_entropy(p, a) == pytest.approx(0.0, abs=1e-14)


def test_alpha_two_collision_form():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        p = random_dist(rng, int(rng.integers(2, 9)))
        expect = -math.log(float((p**2).sum()))
        assert renyi_entropy(p, 2.0) == pytest.approx(expect, rel=1e-12)


def test_alpha_zero_counts_support():
    p = np.array([0.5, 0.5, 0.0, 0.0])
    assert renyi_entropy(p, 0.0) == pytest.approx(math.log(2), abs=1e-14)


def test_min_entropy():
    p = np.array([0.7, 0.2, 0.1])
    assert renyi_entropy(p, math.inf) == pytest.approx(-math.log(0.7), abs=1e-14)


def test_monotone_in_alpha():
    "H_alpha is nonincreasing in alpha."
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        p = random_dist(rng, int(rng.integers(2, 10)))
        vals = [renyi_entropy(p, a) for a in ALPHAS]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        p = random_dist(rng, 6)
        q = rng.permutation(p)
        for a in (0.5, 1.0, 3.0, math.inf):
            assert renyi_entropy(p, a) == pytest.approx(renyi_entropy(q, a), abs=1e-12)


def test_continuity_at_one():
    # the generic branch must hand off smoothly to the Shannon branch
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        p = random_dist(rng, int(rng.integers(2, 8)))
        h1 = renyi_entropy(p, 1.0)
        assert abs(renyi_entropy(p, 1.0 + 1e-8) - h1) <= 1e-6
        assert abs(renyi_entropy(p, 1.0 - 1e-8) - h1) <= 1e-6


def test_large_alpha_does_not_underflow():
    p = np.array([0.6, 0.4])
    h = renyi_entropy(p, 4000.0)
    assert math.isfinite(h)
    assert abs(h - renyi_entropy(p, math.inf)) < 1e-3


def test_tensor_product_additivity():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        p = random_dist(rng, int(rng.integers(2, 6)))
        q = random_dist(rng, int(rng.integers(2, 6)))
        pq = tensor_product(p, q)
        assert pq.size == p.size * q.size
        assert pq.sum() == pytest.approx(1.0, abs=1e-12)
        for a in (0.0, 0.5, 1.0, 2.0, math.inf):
            expect = renyi_entropy(p, a) + renyi_entropy(q, a)
            assert renyi_entropy(pq, a) == pytest.approx(expect, abs=1e-12)


def test_majorizes_examples():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])
    assert majorizes([0.5, 0.5], [0.5, 0.5])
    # zero padding: shorter vector compared against longer
    assert majorizes([1.0], [0.25, 0.25, 0.25, 0.25])
    assert majorizes([0.5, 0.3, 0.2], [0.5, 0.25, 0.25])
    assert not majorizes([0.4, 0.3, 0.3], [0.5, 0.25, 0.25])


def test_majorizes_order_free():
    # input order must not matter
    assert majorizes([0.0, 1.0], [0.3, 0.2, 0.5])
    assert majorizes([0.2, 0.5, 0.3], [0.25, 0.5, 0.25])


def test_majorizes_transitive_fuzz():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        y = random_dist(rng, n)
        x = t_transform(rng, y)
        w = t_transform(rng, x)
        assert majorizes(y, x)
        assert majorizes(x, w)
        assert majorizes(y, w)


def t_transform(rng, y):
    # mix two coordinates; the result is majorized by y
    y = np.array(y, dtype=float)
    i, j = rng.choice(y.size, size=2, replace=False)
    t = float(rng.uniform())
    yi, yj = y[i], y[j]
    y[i] = t * yi + (1.0 - t) * yj
    y[j] = (1.0 - t) * yi + t * yj
    return y


def test_schur_concavity_witness():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        y = random_dist(rng, int(rng.integers(2, 7)))
        x = t_transform(rng, y)
        for a in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert schur_concavity_witness(x, y, a)
    with pytest.raises(ValueError, match="majorize"):
        schur_concavity_witness([1.0, 0.0], [0.5, 0.5], 1.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        renyi_entropy([0.5, 0.6], 1.0)  # sums to 1.1
    with pytest.raises(ValueError):
        renyi_entropy([1.5, -0.5], 1.0)
    with pytest.raises(ValueError, match="entropy order"):
        renyi_entropy([0.5, 0.5], -1.0)
    with pytest.raises(ValueError, match="entropy order"):
        renyi_entropy([0.5, 0.5], float("nan"))
    # tiny negative noise is clamped, not rejected
    assert renyi_entropy([1.0, -1e-13], 1.0) == pytest.approx(0.0, abs=1e-12)


def _q_dip(d):
    # s_2 chosen so that r_2 = r_1 - d, with r_1 = ((1 + 0.6) / 2)^2 = 0.64
    return _q_rows(np.array([[0.6, 2.0 * math.sqrt(0.64 - d) - 1.0, 1.0]]), 2)


# Each caller of clamp_negative, fed an input whose most negative entry is -d.
CLAMP_CALLERS = {
    "probability_vector": (
        lambda d: check_probability_vector([0.5 + d, 0.5, -d]),
        "negative component",
    ),
    "stochastic": (
        lambda d: check_stochastic([[1.0 + d, 0.5], [-d, 0.5]]),
        "negative entry .* in stochastic matrix",
    ),
    "bistochastic_3": (
        lambda d: _check_bistochastic_3([[1.0 + d, -d, 0.0], [-d, 1.0 + d, 0.0], [0.0, 0.0, 1.0]]),
        "negative entry",
    ),
    "q_rows": (_q_dip, "below clamp window"),
}


@pytest.mark.parametrize("caller", sorted(CLAMP_CALLERS))
def test_clamp_window_edge(caller):
    check, message = CLAMP_CALLERS[caller]
    assert float(np.min(check(0.5e-12))) == 0.0
    with pytest.raises(ValueError, match=message):
        check(2e-12)


def test_clamp_negative_passes_nonnegative_input_through():
    x = np.array([0.0, 0.25, 0.75])
    assert clamp_negative(x, "unused {}") is x
