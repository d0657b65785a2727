"""Haar-ensemble experiments: beat rates, majorization fuzzing, gap statistics.

All experiments are deterministic given (seed, stream): sample ``index``
draws from its own block of the run's Philox stream, starting at counter
(0, 0, index, 0) for index 0 .. 2**64 - 1 (``matrices._seek``), so results
do not depend on chunking or worker scheduling. ``_haar_batch`` is the
package's one Haar draw: a Ginibre matrix Z and the unitary factor of
Z = U R with R's diagonal real and positive, computed for the whole stack
at once and with the same bits at any batch size (``_haar_from_ginibre``).
Sample i of a run is the same matrix whether an ensemble, the verify suite
or ``haar_unitary`` (sample 0) asks for it. The experiments share one ensemble
loop, ``_ensemble``, which draws the Haar unitaries (and states) chunk by
chunk, one generator per chunk, and runs each chunk through the batched
s-vector kernel. ``beat_rate`` and ``bound_gap_stats`` are two
summaries of one pass over it, ``_beat_and_gaps``. ``majorization_fuzz``
takes p and q from ``bounds._distributions``, as ``eur_lhs`` does, and pads
Q with zeros to p (x) q's n^2 components (``entropy._majorization_slack``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _closed_forms, _distributions, _q_rows
from .entropy import _check_order, _majorization_slack, _order_json, _renyi_rows
from .matrices import MAJORIZATION_TOL, RngSeed, _seek, _unit_normalized, sample_generator
from .submatrices import MAX_ENUMERATION_DIM, s_coefficients_batch

_CHUNK = 2048


@dataclass(frozen=True)
class BeatRateResult:
    """Fraction of Haar draws where the ladder bound beats the max-entry bound."""

    n: int
    samples: int
    wins: int
    rate: float
    stderr: float
    seed: RngSeed

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "samples": int(self.samples),
            "wins": int(self.wins),
            "rate": float(self.rate),
            "stderr": float(self.stderr),
            "seed": self.seed.to_json(),
        }


@dataclass(frozen=True)
class FuzzReport:
    """Majorization fuzz outcome; violations are data, not exceptions."""

    n: int
    pairs: int
    violations: int
    worst_slack: float
    seed: RngSeed

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "pairs": int(self.pairs),
            "violations": int(self.violations),
            "worst_slack": float(self.worst_slack),
            "seed": self.seed.to_json(),
        }


@dataclass(frozen=True)
class GapStats:
    """Summary of ladder-minus-closed-form gaps over a Haar ensemble."""

    n: int
    samples: int
    alpha: float
    seed: RngSeed
    mean_mu: float
    mean_deutsch: float
    quantiles_mu: dict
    quantiles_deutsch: dict
    hist_mu: tuple
    hist_deutsch: tuple

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "samples": int(self.samples),
            "alpha": _order_json(self.alpha),
            "seed": self.seed.to_json(),
            "mean_mu": float(self.mean_mu),
            "mean_deutsch": float(self.mean_deutsch),
            "quantiles_mu": self.quantiles_mu,
            "quantiles_deutsch": self.quantiles_deutsch,
        }


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    # The unitary factor U of Z = U R with R's diagonal real and positive. The
    # factorisation is unique, so U is QR's Q times the phases of R's diagonal:
    # the correction that makes the law Haar, whatever the Ginibre scale
    # (Mezzadri, Notices AMS 54 (2007)). Classical Gram-Schmidt with a second
    # pass ("twice is enough": Giraud, Langou, Rozloznik, Comput. Math. Appl.
    # 50 (2005)), one column at a time over the whole stack: each matrix goes
    # through the same operations at any batch size, so its bits do not depend
    # on its batch. Works on a single matrix or a stack; U is built by rows,
    # as U^T, and returned C-contiguous. The columns keep this float-view norm,
    # not matrices._unit_normalized, the row-norm rule of states: that rule
    # made the factor 7-24% slower at n = 2, 4 and 8 (2048 draws, one BLAS
    # thread) and moved 63-86% of U's entries, changing every Haar draw.
    z = np.asarray(z, dtype=complex)
    ut = np.empty(z.shape, dtype=complex)
    for j in range(z.shape[-1]):
        v = z[..., :, j, None]
        for _ in range(2 if j else 0):
            # v -= Q Q^dag v over the first j columns Q, Q^dag v = conj(Q^T conj(v))
            q = ut[..., :j, :]
            v = v - q.swapaxes(-1, -2) @ (q @ v.conj()).conj()
        w = np.ascontiguousarray(v[..., 0]).view(np.float64)
        ut[..., j, :] = (w / np.sqrt((w * w).sum(-1, keepdims=True))).view(complex)
    return np.ascontiguousarray(ut.swapaxes(-1, -2))


def _haar_batch(n: int, rng: RngSeed, start: int, count: int, with_state: bool):
    # One generator per chunk, re-seeked to each sample index; the chunk's
    # index range is checked before the first draw. Row off of `draws` holds
    # sample start + off's normals in draw order: the Ginibre real and
    # imaginary parts, then the optional state's, so the unitaries do not
    # depend on with_state.
    g = sample_generator(rng, start)
    nn = n * n
    draws = np.empty((count, 2 * nn + (2 * n if with_state else 0)))
    for off in _seek(g.bit_generator, rng, start, count):
        g.standard_normal(out=draws[off])
    z = (draws[:, :nn] + 1j * draws[:, nn : 2 * nn]).reshape(count, n, n)
    psi = None
    if with_state:
        psi = _unit_normalized(draws[:, 2 * nn : 2 * nn + n] + 1j * draws[:, 2 * nn + n :])
    return _haar_from_ginibre(z), psi


def haar_unitary(n: int, rng: RngSeed) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure: sample 0 of the run (seed, stream).

    The same matrix as the first draw of every ensemble on that run.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _haar_batch(n, rng, 0, 1, False)[0][0]


def _check_ensemble(n: int, count: int, what: str) -> None:
    # The argument rule of every ensemble, run before any sampling; `what`
    # names the count in the error text.
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > MAX_ENUMERATION_DIM:
        raise ValueError(f"dimension {n} exceeds the enumeration guard ({MAX_ENUMERATION_DIM})")
    if count < 1:
        raise ValueError(f"{what} must be >= 1")


def _ensemble(n: int, count: int, rng: RngSeed, with_state: bool = False):
    # The one chunked ensemble loop: yields (start, u, psi, s) for sample
    # indices start .. start + len(u) - 1, with s from the batch kernel.
    for start in range(0, count, _CHUNK):
        u, psi = _haar_batch(n, rng, start, min(_CHUNK, count - start), with_state)
        yield start, u, psi, s_coefficients_batch(u)


_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
# equal-width bins of each gap histogram (GapStats.hist_mu, hist_deutsch)
_GAP_BINS = 60


def _gap_summary(gaps: np.ndarray):
    # mean, quantiles and histogram (bin_lo, bin_hi, count) of one gap array
    cnt, edges = np.histogram(gaps, bins=_GAP_BINS)
    quantiles = {str(q): float(np.quantile(gaps, q)) for q in _QUANTILES}
    return float(gaps.mean()), quantiles, (edges[:-1].copy(), edges[1:].copy(), cnt)


def _beat_and_gaps(n: int, samples: int, rng: RngSeed, k, alpha):
    # The one pass behind beat_rate (k given), bound_gap_stats (alpha given)
    # and `mc --gap-hist` (both): each chunk is drawn and kernelled once. The
    # Shannon rung B^k counts wins over -2 ln c, the top rung B_alpha^{n-1}
    # gives the gaps, and at (k, alpha) = (n - 1, 1) the two are one ladder.
    # Returns (BeatRateResult or None, GapStats or None).
    _check_ensemble(n, samples, "samples")
    if k is not None and not (1 <= k <= n - 1):
        raise ValueError(f"ladder level k={k} out of range 1..{n - 1}")
    if alpha is not None:
        alpha = _check_order(alpha)
    wins = 0
    gaps_mu, gaps_d = (None, None) if alpha is None else (np.empty(samples), np.empty(samples))
    for start, _, _, s in _ensemble(n, samples, rng):
        b_deutsch, b_mu = _closed_forms(s[:, 0])
        if k is not None:
            shannon = _renyi_rows(_q_rows(s, k), 1.0)
            wins += int(np.count_nonzero(shannon > b_mu))
        if alpha is not None:
            shared = k == n - 1 and alpha == 1.0
            top = shannon if shared else _renyi_rows(_q_rows(s, n - 1), alpha)
            gaps_mu[start : start + len(s)] = top - b_mu
            gaps_d[start : start + len(s)] = top - b_deutsch
    rate = wins / samples
    stderr = math.sqrt(rate * (1.0 - rate) / samples)
    beat = None if k is None else BeatRateResult(n, samples, wins, rate, stderr, rng)
    if alpha is None:
        return beat, None
    mean_mu, qs_mu, hist_mu = _gap_summary(gaps_mu)
    mean_d, qs_d, hist_d = _gap_summary(gaps_d)
    stats = GapStats(n, samples, alpha, rng, mean_mu, mean_d, qs_mu, qs_d, hist_mu, hist_d)
    return beat, stats


def beat_rate(n: int, samples: int, rng: RngSeed, k: int | None = None) -> BeatRateResult:
    """Count Haar draws where the Shannon ladder bound strictly beats -2 ln c.

    The ladder level defaults to the strongest one, k = n - 1 (the full
    majorizing vector); lower levels can be compared via ``k``. Ties count
    as non-wins.
    """
    return _beat_and_gaps(n, samples, rng, n - 1 if k is None else k, None)[0]


def majorization_fuzz(n: int, pairs: int, rng: RngSeed) -> FuzzReport:
    """Check p (x) q against Q on Haar (U, psi) pairs.

    p and q come from ``bounds._distributions``, as in ``eur_lhs``. Each pair's
    flattened product distribution must be majorized by Q, whose partial sums
    count as 1.0 past its n components, within MAJORIZATION_TOL. Expected
    violations: zero; any hit is an implementation bug, reported with the
    worst partial-sum slack, and a NaN slack is a violation and the worst.
    """
    _check_ensemble(n, pairs, "pairs")
    violations = 0
    worst = math.inf  # np.minimum keeps a NaN, which min() would drop
    for _, u, psi, s in _ensemble(n, pairs, rng, with_state=True):
        p, q = _distributions(u, psi)
        pq = (p[:, :, None] * q[:, None, :]).reshape(-1, n * n)
        slack = _majorization_slack(_q_rows(s, n - 1), pq)
        worst = np.minimum(worst, slack.min())
        violations += int(np.count_nonzero(~(slack.min(axis=1) >= -MAJORIZATION_TOL)))
    return FuzzReport(n=n, pairs=pairs, violations=violations, worst_slack=float(worst), seed=rng)


def bound_gap_stats(n: int, samples: int, alpha, rng: RngSeed) -> GapStats:
    """Distribution of the top ladder bound minus each closed-form bound.

    Gaps to -2 ln c and to the Deutsch value, each summarised by its mean,
    the ``_QUANTILES`` and a ``_GAP_BINS``-bin histogram.
    """
    return _beat_and_gaps(n, samples, rng, None, alpha)[1]
