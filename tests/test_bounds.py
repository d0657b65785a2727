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
    permutation_power,
    renyi_entropy,
    rotation_matrix,
    s_coefficients,
    slomczynski_check,
)
import eub.bounds as bounds
from eub.bounds import _classical_entropies, _classical_slacks, _q_rows
from eub.submatrices import SubmatrixCoefficients, _checked_coefficients

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


def test_stacked_q_names_the_first_row_beyond_the_window():
    # row 0 dips by 9.5e-12, row 1 by 9.5e-10: the stack raises row 0's message
    s = np.array([[0.9, 0.9 - 1e-11, 1.0], [0.9, 0.9 - 1e-9, 1.0]])
    with pytest.raises(ValueError) as single:
        majorizing_vector(_hand_built(s[0]))
    assert "-9.500e-12 below clamp window" in str(single.value)
    stacked = SubmatrixCoefficients(n=3, s=s, r=((1.0 + s) / 2.0) ** 2)
    for build in (majorizing_vector, lambda sc: ladder_from_coefficients(sc, 1.0)):
        with pytest.raises(ValueError) as caught:
            build(stacked)
        assert str(caught.value) == str(single.value)


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
    truncations = majorizing_vector(sc).truncations
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        direct = bound_ladder(u, a)
        shared = ladder_from_coefficients(sc, a)
        assert np.array_equal(direct.ladder, shared.ladder)
        assert direct.b_mu == shared.b_mu
        # each rung is the validated entropy of its truncation, bit for bit
        assert [v.hex() for v in shared.ladder.tolist()] == [renyi_entropy(t, a).hex() for t in truncations]


def test_ladder_from_coefficients_refuses_a_nan_s():
    # the public entry checks each rung's Q^(k), which a NaN s leaves NaN
    with pytest.raises(ValueError, match="sums to nan"):
        ladder_from_coefficients(_hand_built([0.6, math.nan, 1.0]), 1.0)


def test_stacked_ladder_rows_match_single_reports():
    # a Haar draw, the Fourier matrix (tied s entries) and P^(1/2) per N; the
    # closed forms of the stack are those of each matrix alone as well
    for n in range(2, 12):
        us = [haar_unitary(n, RngSeed(SEED + 400 + n)), fourier_matrix(n), permutation_power(n, 0.5)]
        for closed_form in (bound_deutsch, bound_mu):
            singles = [closed_form(u) for u in us]
            assert all(type(v) is float for v in singles)
            assert [float(v).hex() for v in closed_form(np.array(us))] == [v.hex() for v in singles]
        stacked = _checked_coefficients(np.array(us))
        singles = [SubmatrixCoefficients(n=n, s=s, r=r) for s, r in zip(stacked.s, stacked.r)]
        mv = majorizing_vector(stacked)
        for i, sc in enumerate(singles):
            one = majorizing_vector(sc)
            assert np.array_equal(mv.q_full[i], one.q_full)
            assert all(np.array_equal(t[i], t1) for t, t1 in zip(mv.truncations, one.truncations, strict=True))
        for a in (0.0, 0.5, 1.0, 2.0, math.inf):
            rep = ladder_from_coefficients(stacked, a)
            assert rep.ladder.shape == (3, n - 1)
            for i, sc in enumerate(singles):
                one = ladder_from_coefficients(sc, a)
                assert [v.hex() for v in rep.ladder[i].tolist()] == [v.hex() for v in one.ladder.tolist()]
                assert float(rep.b_deutsch[i]).hex() == one.b_deutsch.hex()
                assert float(rep.b_mu[i]).hex() == one.b_mu.hex()


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


def test_eur_lhs_takes_the_last_axis_as_the_state():
    # a (2, 2) stack is two states of dimension 2, not one of dimension 4
    with pytest.raises(ValueError, match="state dimension 2 does not match matrix 4"):
        eur_lhs(np.eye(4), np.full((2, 2), 0.5), 1.0)
    with pytest.raises(ValueError, match="state dimension"):
        eur_lhs(np.eye(2), np.full((1, 1, 2), math.sqrt(0.5)), 1.0)
    with pytest.raises(ValueError, match="state norm"):
        eur_lhs(np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]]), 1.0)
    # a stack of P unitaries takes P stacks of states, each of the ambient dimension
    us = np.array([np.eye(2)] * 3)
    for psi in (np.eye(2)[:1], np.full((2, 1, 2), math.sqrt(0.5)), np.full((3, 1, 2), math.sqrt(0.5))[:, :, None]):
        with pytest.raises(ValueError, match="for a stack of 3 unitaries"):
            eur_lhs(us, psi, 1.0)
    with pytest.raises(ValueError, match="state dimension 4 does not match matrix 2"):
        eur_lhs(us, np.full((3, 2, 4), 0.5), 1.0)
    with pytest.raises(ValueError, match=r"state norm squared 2\.0"):
        eur_lhs(us, np.array([[[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 1.0]]]), 1.0)


def _scalar_eur_lhs(u, psi, a):
    # the one-state arithmetic the stack rule replaced, kept as its oracle
    p = np.abs(psi) ** 2
    q = np.abs(u @ psi) ** 2
    return renyi_entropy(p / p.sum(), a) + renyi_entropy(q / q.sum(), a)


def test_eur_lhs_stack_rows_match_single_states():
    # rows of a state stack against one U, and of a stack of four U with six
    # states each (the Fourier matrix among them), are their one-state calls
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4, 5, 6, 8, 11):
        us = np.array([haar_unitary(n, RngSeed(SEED + 300 + n, stream=j)) for j in range(3)] + [fourier_matrix(n)])
        psi = rng.standard_normal((4, 6, n)) + 1j * rng.standard_normal((4, 6, n))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        psi[:, 0] = np.eye(n)[n - 1]
        for a in (0.0, 0.5, 1.0, 2.0, math.inf):
            rows = eur_lhs(us[0], psi[0], a)
            assert rows.shape == (6,)
            assert [float(v).hex() for v in rows] == [eur_lhs(us[0], v, a).hex() for v in psi[0]]
            assert [float(v).hex() for v in rows] == [_scalar_eur_lhs(us[0], v, a).hex() for v in psi[0]]
            stacked = eur_lhs(us, psi, a)
            assert stacked.shape == (4, 6)
            singles = [eur_lhs(u, v, a).hex() for u, states in zip(us, psi) for v in states]
            assert [float(v).hex() for v in stacked.ravel()] == singles


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


def test_classical_slacks_known_answers():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 5):
        p = rng.exponential(size=n)
        p /= p.sum()
        h_p = renyi_entropy(p, 1.0)
        # T = I: H(TP) = H(P), zero mixture entropy, bound -ln 1 = 0
        eye = np.eye(n)
        assert _classical_slacks(*_classical_entropies(eye, p), classical_bound(eye)) == (
            h_p, 0.0, 2.0 * h_p,
        )
        # flat T: H(TP) = mixture = -ln kappa = ln n
        flat = np.full((n, n), 1.0 / n)
        slacks = _classical_slacks(*_classical_entropies(flat, p), classical_bound(flat))
        assert slacks == pytest.approx((0.0, h_p, h_p), abs=1e-12)
        # a basis input: both mixture inequalities are equalities, bit for bit
        t = rng.exponential(size=(n, n))
        t /= t.sum(axis=0, keepdims=True)
        for j in range(n):
            e_j = np.zeros(n)
            e_j[j] = 1.0
            slacks = _classical_slacks(*_classical_entropies(t, e_j), classical_bound(t))
            assert slacks[:2] == (0.0, 0.0)


def test_classical_column_entropies_once_per_t(monkeypatch):
    # H(t[:, i]) depends on T only: ten inputs against one T take the four
    # column entropies, H(TP) and H(P) in one call each, and give each input
    # the numbers of its own call
    rng = np.random.default_rng(SEED)
    t = rng.exponential(size=(4, 4))
    t /= t.sum(axis=0, keepdims=True)
    ps = rng.dirichlet(np.ones(4), size=10)
    fresh = [_classical_entropies(t, p) for p in ps]
    calls = []
    entropy = bounds.renyi_entropy
    monkeypatch.setattr(bounds, "renyi_entropy", lambda x, a: calls.append(1) or entropy(x, a))
    stacked = _classical_entropies(t, ps)
    assert [tuple(float(c[i]) for c in stacked) for i in range(len(ps))] == fresh
    assert len(calls) == 3


def test_slomczynski_check_validates_t_once(monkeypatch):
    # the two mixture inequalities need no bound: one stochastic check of T
    calls = []
    check = bounds.check_stochastic
    monkeypatch.setattr(bounds, "check_stochastic", lambda t: calls.append(1) or check(t))
    t = np.array([[0.7, 0.2], [0.3, 0.8]])
    assert slomczynski_check(t, np.array([0.4, 0.6]))
    assert len(calls) == 1


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


# The T of trial 170 of the classical check at seed 2**64 - 1, whose bound
# -ln kappa differs in its last bit between math.log and np.log.
_LOG_SPLIT_T = [
    [float.fromhex("0x1.2eb9fbcdc4e7cp-2"), float.fromhex("0x1.239efac465696p-2")],
    [float.fromhex("0x1.68a302191d8c2p-1"), float.fromhex("0x1.6e30829dcd4b5p-1")],
]


def _classical_cases(n, rng):
    # 12 (T, P) pairs at order n: random pairs, P with zero weights, T with
    # tied largest entries, and at n = 2 the T where math.log and np.log split
    ts = rng.exponential(size=(12, n, n))
    ts /= ts.sum(axis=1, keepdims=True)
    ps = rng.exponential(size=(12, n))
    ps[3:6, rng.integers(n)] = 0.0
    ps[5, :] = 0.0
    ps[5, n - 1] = 1.0
    ps /= ps.sum(axis=1, keepdims=True)
    ts[6] = np.eye(n)
    ts[7] = np.full((n, n), 1.0 / n)
    ts[8, :, 0] = ts[8, :, 1]
    if n == 2:
        ts[9] = _LOG_SPLIT_T
    return ts, ps


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("n", range(2, 7))
def test_classical_stack_rows_match_single_calls(n):
    # one P row per T of a stack, and many P rows against one T, give each
    # trial the bits of its single-T call
    ts, ps = _classical_cases(n, np.random.default_rng(SEED + n))
    singles = [_classical_entropies(t, p) + (classical_bound(t),) for t, p in zip(ts, ps)]
    assert all(type(v) is float for row in singles for v in row)
    stacked = _classical_entropies(ts, ps) + (classical_bound(ts),)
    assert all(np.shape(column) == (12,) for column in stacked)
    for column, single in zip(stacked, zip(*singles)):
        assert _hex(column) == _hex(single)
    # the mixture is Python's sum over the columns in order, zero weights skipped
    columns = [[renyi_entropy(t[:, i], 1.0) for i in range(n)] for t in ts]
    oracle = [sum(p[i] * h[i] for i in range(n) if p[i] > 0.0) for p, h in zip(ps, columns)]
    assert _hex(stacked[0]) == _hex(oracle)
    single_slacks = [_classical_slacks(*row) for row in singles]
    assert [_hex(c) for c in _classical_slacks(*stacked)] == [_hex(c) for c in zip(*single_slacks)]
    against_one = _classical_entropies(ts[0], ps)
    for column, single in zip(against_one, zip(*[_classical_entropies(ts[0], p) for p in ps])):
        assert _hex(column) == _hex(single)
    # a stack of one is a stack: arrays, not floats
    assert np.shape(classical_bound(ts[:1])) == (1,)
    assert np.shape(_classical_entropies(ts[:1], ps[:1])[0]) == (1,)


def test_classical_bound_stays_math_log_per_matrix():
    kappa = _LOG_SPLIT_T[1][1]
    stack = np.array([np.eye(2), _LOG_SPLIT_T, np.full((2, 2), 0.5)])
    assert _hex(classical_bound(stack)) == _hex([0.0, -math.log(kappa), math.log(2.0)])
    assert classical_bound(np.array(_LOG_SPLIT_T)).hex() == (-math.log(kappa)).hex()


_BAD_STOCHASTIC = {
    "negative": ([[1.0 + 2e-12, 0.5], [-2e-12, 0.5]], "negative entry -2.000e-12 in stochastic matrix"),
    "columns": ([[0.5, 0.5], [0.25, 0.25]], "column sums deviate from 1 by 2.500e-01"),
    "rows": ([[0.2, 0.8], [0.5, 0.5]], "rows sum to 1 but columns do not"),
}


@pytest.mark.parametrize("first", sorted(_BAD_STOCHASTIC))
@pytest.mark.parametrize("later", sorted(_BAD_STOCHASTIC))
def test_stochastic_stack_first_bad_matrix_raises_its_single_message(first, later):
    # a good matrix, the first bad one, then a second bad one: the stack raises
    # the first bad matrix's own message, whatever comes after it
    bad, message = _BAD_STOCHASTIC[first]
    with pytest.raises(ValueError) as single:
        check_stochastic(bad)
    assert str(single.value).startswith(message)
    second = _BAD_STOCHASTIC[later][0] if later != first else [[-1.0, 0.5], [2.0, 0.5]]
    stack = np.array([np.full((2, 2), 0.5), bad, second])
    for check in (check_stochastic, classical_bound, lambda t: _classical_entropies(t, np.full((3, 2), 0.5))):
        with pytest.raises(ValueError) as stacked:
            check(stack)
        assert str(stacked.value) == str(single.value)


def test_classical_stack_first_bad_row_raises_its_single_message():
    t = np.full((3, 3), 1.0 / 3.0)
    rows = np.array([[0.2, 0.3, 0.5], [0.5, 0.5, 0.5], [1.5, -0.5, 0.0]])
    with pytest.raises(ValueError, match=r"probability vector sums to 1\.5, not 1"):
        _classical_entropies(t, rows)
    with pytest.raises(ValueError, match="negative component -5.000e-01"):
        _classical_entropies(t, rows[[0, 2, 1]])
    with pytest.raises(ValueError, match="weight vector length 2 does not match 3 columns"):
        _classical_entropies(t, np.full((4, 2), 0.5))
    with pytest.raises(ValueError, match="2 weight vectors for a stack of 3 matrices"):
        _classical_entropies(np.array([t, t, t]), rows[:1].repeat(2, axis=0))
