import json
import math

import numpy as np
import pytest

import eub.montecarlo as montecarlo
import eub.submatrices as submatrices
from eub import RngSeed, beat_rate, bound_gap_stats, haar_unitary, majorization_fuzz
from eub.cli import main
from eub.matrices import BEAT_RATE_N2, philox_key
from eub.montecarlo import _haar_from_ginibre
from eub.submatrices import s_coefficients_batch

SEED = 1717


def test_beat_rate_reproducible():
    a = beat_rate(3, 400, RngSeed(SEED))
    b = beat_rate(3, 400, RngSeed(SEED))
    assert a.wins == b.wins
    assert a.rate == b.rate
    c = beat_rate(3, 400, RngSeed(SEED, stream=1))
    assert c.wins != a.wins  # different stream, different draw


def test_beat_rate_sanity_n2():
    res = beat_rate(2, 2000, RngSeed(SEED))
    assert res.n == 2
    assert res.samples == 2000
    assert 0.75 < res.rate < 0.88
    assert res.wins == round(res.rate * 2000)


def _n2_threshold():
    # For Haar U(2), t = |U_11|^2 is uniform on [0, 1], so c^2 = max(t, 1 - t)
    # is uniform on [1/2, 1] and s = (c, 1). The ladder top H(r, 1 - r),
    # r = ((1 + c)/2)^2, beats -2 ln c exactly when c^2 > t*, the root of
    # H(r, 1 - r) = -ln t: below it at t = 1/2, above it at t = 0.99
    def excess(t):
        r = ((1.0 + math.sqrt(t)) / 2.0) ** 2
        return -r * math.log(r) - (1.0 - r) * math.log(1.0 - r) + math.log(t)

    lo, hi = 0.5, 0.99
    assert excess(lo) < 0.0 < excess(hi)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    return (lo + hi) / 2.0


def test_beat_rate_n2_matches_the_exact_rate():
    # the rate is P(c^2 > t*) = 2(1 - t*), about 0.81434, the reference
    # that verify's beat-rate check and ac02 read
    exact = 2.0 * (1.0 - _n2_threshold())
    assert abs(BEAT_RATE_N2 - exact) <= 1e-9
    samples = 20000
    res = beat_rate(2, samples, RngSeed(SEED + 4))
    assert abs(res.rate - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / samples)


def test_beat_rate_stderr_formula():
    res = beat_rate(2, 500, RngSeed(SEED + 1))
    expect = math.sqrt(res.rate * (1.0 - res.rate) / 500)
    assert res.stderr == pytest.approx(expect, abs=1e-15)


def test_beat_rate_single_sample():
    res = beat_rate(2, 1, RngSeed(SEED + 2))
    assert res.wins in (0, 1)
    assert res.rate in (0.0, 1.0)


def test_beat_rate_k_levels():
    # level 1 is the weakest rung, level n-1 the strongest
    low = beat_rate(3, 400, RngSeed(SEED + 3), k=1)
    high = beat_rate(3, 400, RngSeed(SEED + 3), k=2)
    assert low.wins <= high.wins
    with pytest.raises(ValueError):
        beat_rate(3, 10, RngSeed(0), k=0)
    with pytest.raises(ValueError):
        beat_rate(3, 10, RngSeed(0), k=3)


def _no_sampling(monkeypatch):
    def fail(*args):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(montecarlo, "_haar_batch", fail)


def test_bad_order_refused_before_sampling(monkeypatch):
    _no_sampling(monkeypatch)
    for alpha in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="entropy order"):
            bound_gap_stats(3, 50, alpha, RngSeed(0))


def test_dimension_guard_before_sampling(monkeypatch):
    _no_sampling(monkeypatch)
    message = "dimension 13 exceeds the enumeration guard \\(12\\)"
    with pytest.raises(ValueError, match=message):
        beat_rate(13, 1, RngSeed(0))
    with pytest.raises(ValueError, match=message):
        bound_gap_stats(13, 1, 1.0, RngSeed(0))
    with pytest.raises(ValueError, match=message):
        majorization_fuzz(13, 1, RngSeed(0))
    with pytest.raises(ValueError, match="n must be >= 2"):
        bound_gap_stats(1, 5, 1.0, RngSeed(0))
    with pytest.raises(ValueError, match="samples must be >= 1"):
        beat_rate(2, 0, RngSeed(0))
    with pytest.raises(ValueError, match="pairs must be >= 1"):
        majorization_fuzz(3, 0, RngSeed(0))


def test_beat_rate_json():
    res = beat_rate(2, 50, RngSeed(9, stream=4))
    obj = res.to_json()
    assert obj["n"] == 2
    assert obj["samples"] == 50
    assert obj["seed"] == {"seed": 9, "stream": 4}
    assert obj["wins"] == res.wins
    assert 0.0 <= obj["rate"] <= 1.0


def test_majorization_fuzz_clean():
    "Product distributions never escape the majorizing vector."
    for n in (2, 3, 4):
        rep = majorization_fuzz(n, 500, RngSeed(SEED + n))
        assert rep.violations == 0
        assert rep.worst_slack >= -1e-10
        assert rep.pairs == 500
        obj = rep.to_json()
        assert obj["violations"] == 0
        assert obj["n"] == n


@pytest.mark.parametrize("n", [2, 3, 5])
def test_majorization_fuzz_counts_violations(n, monkeypatch, capsys):
    """Pairs the check must reject are all counted, with the exact slack,
    and ``eub fuzz`` exits 1 with its report on stdout.

    Identity unitaries and basis states give p (x) q = e0 (x) e0, whose first
    partial sum is 1; against a uniform Q, whose first is 1/n, every pair
    falls short by 1 - 1/n."""

    def identity_batch(n, rng, start, count, with_state):
        psi = np.zeros((count, n), dtype=complex)
        psi[:, 0] = 1.0
        return np.broadcast_to(np.eye(n, dtype=complex), (count, n, n)).copy(), psi

    monkeypatch.setattr(montecarlo, "_haar_batch", identity_batch)
    monkeypatch.setattr(montecarlo, "_q_rows", lambda s, k: np.full((len(s), k + 1), 1.0 / (k + 1)))
    rep = majorization_fuzz(n, 40, RngSeed(SEED))
    assert rep.violations == rep.pairs == 40
    assert rep.worst_slack == pytest.approx(1.0 / n - 1.0, abs=1e-15)
    assert main(["fuzz", "--n", str(n), "--pairs", "40"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["violations"] == obj["pairs"] == 40 and obj["worst_slack"] == rep.worst_slack


def test_majorization_fuzz_reports_a_nan_slack_as_the_worst(monkeypatch, capsys):
    # one NaN partial-sum slack in 100 pairs is one violation and the worst
    # slack, not hidden behind the clean pairs' minimum
    slack = montecarlo._majorization_slack

    def one_nan(y, x):
        out = slack(y, x)
        out[17, 4] = math.nan
        return out

    monkeypatch.setattr(montecarlo, "_majorization_slack", one_nan)
    rep = majorization_fuzz(3, 100, RngSeed(SEED))
    assert rep.violations == 1 and math.isnan(rep.worst_slack)
    assert main(["fuzz", "--n", "3", "--pairs", "100"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["violations"] == 1 and math.isnan(obj["worst_slack"])


def test_majorization_fuzz_reproducible():
    a = majorization_fuzz(3, 200, RngSeed(44))
    b = majorization_fuzz(3, 200, RngSeed(44))
    assert a.worst_slack == b.worst_slack


@pytest.mark.parametrize("n, pairs, seed", [(3, 300, SEED + 3), (4, 2000, 0), (8, 200, 0)])
def test_majorization_fuzz_measures_states_as_eur_lhs_does(n, pairs, seed):
    # the worst slack, to the bit, of the fuzz's own Haar draws measured one
    # state at a time as test_bounds._scalar_eur_lhs does: p = |psi|^2 and
    # q = |U psi|^2, each divided by its sum. (4, 2000, 0) is the pinned
    # `fuzz --n 4` digest run
    rng = RngSeed(seed)
    u, psi = montecarlo._haar_batch(n, rng, 0, pairs, True)
    pq = []
    for ui, v in zip(u, psi):
        p = np.abs(v) ** 2
        q = np.abs(ui @ v) ** 2
        pq.append(np.outer(p / p.sum(), q / q.sum()).ravel())
    slack = montecarlo._majorization_slack(montecarlo._q_rows(s_coefficients_batch(u), n - 1), np.array(pq))
    assert majorization_fuzz(n, pairs, rng).worst_slack.hex() == slack.min().hex()


def test_gap_stats():
    stats = bound_gap_stats(3, 300, 1.0, RngSeed(SEED + 10))
    assert stats.n == 3
    assert stats.samples == 300
    lo, hi, cnt = stats.hist_mu
    bins = montecarlo._GAP_BINS
    assert lo.size == bins and hi.size == bins and cnt.size == bins and cnt.sum() == 300
    lo_d, hi_d, cnt_d = stats.hist_deutsch
    assert cnt_d.sum() == 300
    assert np.all(lo < hi)
    # the weaker closed form always leaves a bigger gap below the ladder
    assert stats.mean_deutsch >= stats.mean_mu
    qs = stats.quantiles_mu
    assert set(qs) == {"0.05", "0.25", "0.5", "0.75", "0.95"}
    vals = [qs[k] for k in ("0.05", "0.25", "0.5", "0.75", "0.95")]
    assert vals == sorted(vals)


def test_gap_stats_json():
    stats = bound_gap_stats(2, 100, 1.0, RngSeed(SEED + 11))
    obj = stats.to_json()
    assert obj["n"] == 2
    assert obj["samples"] == 100
    assert "quantiles_mu" in obj and "quantiles_deutsch" in obj
    assert "hist_mu" not in obj  # histograms travel as CSV, not JSON


def test_results_do_not_depend_on_chunking(monkeypatch):
    def run():
        rate = beat_rate(3, 50, RngSeed(SEED + 20))
        fuzz = majorization_fuzz(3, 50, RngSeed(SEED + 21))
        gaps = bound_gap_stats(3, 50, 1.0, RngSeed(SEED + 22))
        # the fused pass behind `mc --gap-hist`, wins and gaps from one ladder
        fused_rate, fused = montecarlo._beat_and_gaps(3, 50, RngSeed(SEED + 23), 2, 1.0)
        return (
            (rate.wins, fuzz.violations, fuzz.worst_slack, gaps.mean_mu, gaps.mean_deutsch),
            (gaps.quantiles_mu, gaps.quantiles_deutsch, fused_rate.wins, fused.mean_mu, fused.quantiles_mu),
            gaps.hist_mu + gaps.hist_deutsch + fused.hist_mu + fused.hist_deutsch,
        )

    default = run()
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    chunked = run()
    assert default[:2] == chunked[:2]
    for a, b in zip(default[2], chunked[2]):
        assert np.array_equal(a, b)
    assert all(h.size == montecarlo._GAP_BINS for h in default[2])


# draws per beat rate at each n for the full-chain comparison: several
# chunks at n <= 4, and few draws where a full chain costs most
DECIDED_SAMPLES = {2: 2500, 3: 2500, 4: 2500, 5: 1200, 6: 400, 7: 120, 8: 40, 9: 12}


def _full_chain_wins(n, samples, rng, k):
    # the count on full chains, chunk by chunk as the ensemble draws them
    wins = 0
    for start in range(0, samples, montecarlo._CHUNK):
        u, _ = montecarlo._haar_batch(n, rng, start, min(montecarlo._CHUNK, samples - start), False)
        s = s_coefficients_batch(u)
        shannon = montecarlo._renyi_rows(montecarlo._q_rows(s, k), 1.0)
        wins += int(np.count_nonzero(shannon > montecarlo._closed_forms(s[:, 0])[1]))
    return wins


@pytest.mark.parametrize("n", sorted(DECIDED_SAMPLES))
def test_decided_wins_equal_the_full_chain_count(n):
    """Wins-only beat rates, whose draws stop at the rung that decides them,
    count what full chains count, at every rung k."""
    for seed in (SEED + 30, SEED + 31, SEED + 32):
        for k in sorted({1, n // 2, n - 1}):
            rng = RngSeed(seed)
            assert beat_rate(n, DECIDED_SAMPLES[n], rng, k).wins == _full_chain_wins(n, DECIDED_SAMPLES[n], rng, k), (seed, k)


def _solve(f, lo, hi, target):
    # the float t in [lo, hi] nearest where the monotone f crosses target
    rising = f(hi) > f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    return lo


def test_near_ties_stay_undecided():
    """A row whose B^j, or whose loss bound, is within DECIDED_MARGIN / 2 of
    -2 ln c on either side is neither a win nor a loss; at twice the margin
    it is decided. Rows (s_1, s_2) = (0.7, t) at j = 2 and k = 5: B^2 rises
    through -2 ln 0.7 for t in [0.7, 0.85], and the loss bound falls
    through it for t in [0.8, 1]."""
    j, k, c = 2, 5, 0.7
    delta = montecarlo.DECIDED_MARGIN
    mu = montecarlo._closed_forms(np.array([c]))[1][0]

    def rung(t):
        return montecarlo._renyi_rows(montecarlo._q_rows(np.array([[c, t]]), j), 1.0)[0]

    def loss_bound(t):
        q = montecarlo._q_rows(np.array([[c, t]]), j)
        split = np.concatenate([q[:, :j], np.repeat(q[:, j:] / (k - j + 1), k - j + 1, axis=1)], axis=1)
        return montecarlo._renyi_rows(split, 1.0)[0]

    for f, lo, hi, decides in ((rung, 0.7, 0.85, "win"), (loss_bound, 0.8, 1.0, "loss")):
        for offset in (-2.0, -0.5, 0.5, 2.0):
            t = _solve(f, lo, hi, mu + offset * delta)
            assert abs(f(t) - (mu + offset * delta)) < 1e-14
            won, lost = montecarlo._decided(np.array([[c, t]]), j, k)
            assert (bool(won[0]), bool(lost[0])) == (
                decides == "win" and offset == 2.0,
                decides == "loss" and offset == -2.0,
            ), (decides, offset)


def test_beat_rate_calls_the_kernel_once_a_chunk(monkeypatch):
    """beat_rate hands each chunk to the module's s_coefficients_batch as
    one positional (batch, n, n) stack with a stop rule, which the
    benchmark's tracer times and sizes by that argument."""
    calls = []
    kernel = montecarlo.s_coefficients_batch

    def spy(*args, **kwargs):
        calls.append((tuple(np.shape(a) for a in args), set(kwargs), callable(kwargs.get("stop"))))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "s_coefficients_batch", spy)
    wins = beat_rate(5, 3000, RngSeed(SEED + 33)).wins
    assert calls == [(((2048, 5, 5),), {"stop"}, True), (((952, 5, 5),), {"stop"}, True)]
    monkeypatch.undo()
    assert wins == _full_chain_wins(5, 3000, RngSeed(SEED + 33), 4)


def test_decided_draws_skip_the_later_rungs(monkeypatch):
    """At n = 8 the strips and the 2- and 3-row classes decide nearly every
    draw, wins and losses both, so few draws reach the pruned classes of
    rung 7 (none on this seed); with --gap-hist's full chains every draw
    does."""
    decided, heights = [], []
    rule, pruned_max = montecarlo._decided, submatrices._pruned_max
    monkeypatch.setattr(montecarlo, "_decided", lambda s, j, k: decided.append(rule(s, j, k)) or decided[-1])
    monkeypatch.setattr(submatrices, "_pruned_max", lambda tables, *a: heights.append(len(tables.views[0])) or pruned_max(tables, *a))
    wins = beat_rate(8, 200, RngSeed(SEED + 35)).wins
    assert sum(int(w.sum()) for w, _ in decided) > 150 and sum(int(lost.sum()) for _, lost in decided) > 0
    assert max(heights, default=0) < 20
    heights.clear()
    assert montecarlo._beat_and_gaps(8, 200, RngSeed(SEED + 35), 7, 1.0)[0].wins == wins
    assert heights and min(heights) == 200


@pytest.mark.parametrize("alpha", [1.0, 2.0, math.inf])
def test_bound_gap_stats_runs_the_gap_hist_pass(alpha):
    """bound_gap_stats is the `mc --gap-hist` pass at the top rung, field by
    field, whether its top rung is the wins' Shannon rung (alpha = 1) or
    not, and that pass's wins on full chains are beat_rate's, whose draws
    stop at their deciding rung."""
    rng = RngSeed(SEED + 36)
    stats = bound_gap_stats(5, 300, alpha, rng)
    beat, fused = montecarlo._beat_and_gaps(5, 300, rng, 4, alpha)
    for field in montecarlo.GapStats._fields:
        mine, theirs = getattr(stats, field), getattr(fused, field)
        if field.startswith("hist_"):
            assert len(mine) == len(theirs) == 3
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs)), field
        else:
            assert mine == theirs, field
    assert beat.wins == beat_rate(5, 300, rng).wins


def _reference_haar_batch(n, rng, start, count, with_state):
    # the per-index loop the chunked sampler replaces: one jumped generator per
    # sample, the Ginibre parts drawn as two matrices, then the state's, which
    # is normalised alone
    z = np.empty((count, n, n), dtype=complex)
    psi = np.empty((count, n), dtype=complex) if with_state else None
    for off in range(count):
        g = np.random.Generator(np.random.Philox(key=philox_key(rng)).jumped(start + off))
        z[off] = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        if with_state:
            v = g.standard_normal(n) + 1j * g.standard_normal(n)
            psi[off] = v / np.linalg.norm(v)
    return _haar_from_ginibre(z), psi


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("start", [0, 2**40])
@pytest.mark.parametrize("with_state", [False, True])
def test_haar_batch_matches_per_index_loop(n, start, with_state):
    rng = RngSeed(SEED + n, stream=7)
    u, psi = montecarlo._haar_batch(n, rng, start, 40, with_state)
    ref_u, ref_psi = _reference_haar_batch(n, rng, start, 40, with_state)
    assert np.array_equal(u, ref_u)
    if with_state:
        assert np.array_equal(psi, ref_psi)
    else:
        assert psi is None


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("start", [0, 2**40])
def test_haar_rows_do_not_depend_on_the_batch(n, start):
    """Row i of a 2048-draw chunk is, bit for bit, the draw of sample start + i
    alone, state included; U is C-contiguous, and haar_unitary is row 0."""
    rng = RngSeed(SEED + 40 + n, stream=3)
    u, psi = montecarlo._haar_batch(n, rng, start, 2048, True)
    assert u.flags.c_contiguous
    for i in range(2048):
        one, one_psi = montecarlo._haar_batch(n, rng, start + i, 1, True)
        assert np.array_equal(one[0], u[i]) and np.array_equal(one_psi[0], psi[i]), i
    if start == 0:
        assert np.array_equal(haar_unitary(n, rng), u[0])


EPS = np.finfo(float).eps
# Bounds on the Haar factor U of Z = U R, in units of eps: the max-norm of
# U U^dag - I; the strictly lower part and the imaginary diagonal of
# R = U^dag Z, over eps |Z|_2; and |U - U_QR|_max over kappa(Z) eps, U_QR the
# LAPACK QR route. Over 100,000 Ginibre draws per n = 1..12 they read at most
# 3, 1.2 and 3.0 (the QR route's own residual reached 10 eps).
_RESIDUAL_EPS = 4
_TRIANGLE_EPS = 4
_AGREEMENT_EPS = 8


def _qr_with_phases(z):
    # the LAPACK route to the same factor: Q times the phases of R's diagonal
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _check_factor(z, u):
    # U is unitary, and R = U^dag Z is upper triangular with a real, positive diagonal
    assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(z.shape[-1])).max() <= _RESIDUAL_EPS * EPS
    r = u.conj().swapaxes(-1, -2) @ z
    scale = _TRIANGLE_EPS * EPS * np.linalg.norm(z, 2, axis=(-2, -1))
    assert np.all(np.abs(np.tril(r, -1)).max(axis=(-2, -1), initial=0.0) <= scale)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.all(np.abs(d.imag).max(axis=-1) <= scale) and np.all(d.real > 0)


def _check_agrees_with_qr(z, u, kappa_of=None):
    # within kappa(Z) eps of the QR route, kappa taken of kappa_of (default z)
    sv = np.linalg.svd(z if kappa_of is None else kappa_of, compute_uv=False)
    tol = _AGREEMENT_EPS * EPS * sv[..., 0] / sv[..., -1]
    assert np.all(np.abs(u - _qr_with_phases(z)).max(axis=(-2, -1)) <= tol)


def _ginibre(n, count, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal((count, n, n)) + 1j * g.standard_normal((count, n, n))


@pytest.mark.parametrize("n", range(1, 13))
def test_haar_factor_is_unitary_with_a_positive_triangular_r(n):
    z = _ginibre(n, 512, SEED + 50 + n)
    u = _haar_from_ginibre(z)
    assert u.flags.c_contiguous
    _check_factor(z, u)
    _check_agrees_with_qr(z, u)
    # a single matrix is the stack of one's factor
    assert np.array_equal(_haar_from_ginibre(z[3]), u[3])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12])
def test_haar_factor_on_hard_inputs(n):
    z = _ginibre(n, 128, SEED + 70 + n)
    # a unitary Z is its own factor, with R = I
    q = _qr_with_phases(z)
    assert np.abs(_haar_from_ginibre(q) - q).max() <= 2 * _RESIDUAL_EPS * EPS
    # an upper-triangular Z's factor is the phases of its diagonal
    t = np.triu(z)
    d = np.diagonal(t, axis1=1, axis2=2)
    assert np.abs(_haar_from_ginibre(t) - (d / np.abs(d))[:, None, :] * np.eye(n)).max() <= _RESIDUAL_EPS * EPS
    # a column scaled by 1e-8: the factor does not see column scales, so it
    # stays within kappa eps of the unscaled Z's
    scaled = z.copy()
    scaled[:, :, n // 2] *= 1e-8
    u = _haar_from_ginibre(scaled)
    _check_factor(scaled, u)
    _check_agrees_with_qr(scaled, u, kappa_of=z)
    # two nearly parallel columns, kappa about 1e10: still unitary to a few eps
    near = z.copy()
    near[:, :, 1] = near[:, :, 0] + 1e-10 * near[:, :, 1]
    sv = np.linalg.svd(near, compute_uv=False)
    assert np.median(sv[:, 0] / sv[:, -1]) > 1e9
    u = _haar_from_ginibre(near)
    _check_factor(near, u)
    _check_agrees_with_qr(near, u)


def test_haar_batch_refuses_a_chunk_past_the_last_index_before_drawing(monkeypatch):
    # a chunk whose indices would reach 2**64 fails on its range, not on the
    # first index past it after the ones below have been drawn
    draws = []
    make = montecarlo.sample_generator

    class Counting:
        def __init__(self, g):
            self.bit_generator = g.bit_generator
            self._g = g

        def standard_normal(self, **kw):
            draws.append(1)
            return self._g.standard_normal(**kw)

    monkeypatch.setattr(montecarlo, "sample_generator", lambda rng, index: Counting(make(rng, index)))
    rng = RngSeed(SEED, stream=7)
    with pytest.raises(ValueError, match=r"sample indices 18446744073709551612\.\.18446744073709551616 out of range"):
        montecarlo._haar_batch(3, rng, 2**64 - 4, 5, False)
    assert draws == []
    # the last index itself is drawn, as the per-index reference draws it
    u, _ = montecarlo._haar_batch(3, rng, 2**64 - 4, 4, False)
    assert len(draws) == 4 and np.array_equal(u, _reference_haar_batch(3, rng, 2**64 - 4, 4, False)[0])


# The Haar law's known moments: E|tr U^j|^2 = min(j, n) (Diaconis and
# Shahshahani, J. Appl. Probab. 31A (1994)) and, as |U_ij|^2 follows
# Beta(1, n - 1), E|U_ij|^4 = 2/(n(n + 1)). A QR factor without the phases of
# R's diagonal keeps E|U_11|^2 = 1/n but misses E|tr U|^2 = 1 by tens of
# standard errors. Each mean must lie within LAW_SIGMAS standard errors of
# the sample itself.
LAW_SIGMAS = 4.0


def _within_sigmas(values, expected):
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - expected) <= LAW_SIGMAS * se


@pytest.mark.parametrize("n", [2, 3, 5])
def test_haar_batch_follows_the_haar_law(n):
    u = montecarlo._haar_batch(n, RngSeed(SEED, stream=3), 0, 4000, False)[0]
    power = np.eye(n)
    for j in (1, 2, 3):
        power = power @ u
        trace = np.trace(power, axis1=1, axis2=2)
        assert _within_sigmas(np.abs(trace) ** 2, min(j, n)), j
    # every entry has the law of U_11, so each draw's mean over its entries
    # is one independent sample of E|U_11|^4
    assert _within_sigmas((np.abs(u) ** 4).mean(axis=(1, 2)), 2.0 / (n * (n + 1)))
