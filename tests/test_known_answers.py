"""Known answers for the chain s_1..s_N that share no code with the kernel.

Each comes from an exact structural fact, so it checks s_coefficients at
sizes where the one-block-at-a-time oracle, max_norm_over_shape, is too
slow to run. A sort-free majorization oracle checks, beside the sorted
partial sums of entropy._majorization_slack, the pairs that the fuzz and
the chain check compare.
"""

import numpy as np
import pytest

import eub.cli as cli
import eub.montecarlo as montecarlo
from eub import RngSeed, fourier_matrix, haar_unitary, majorization_fuzz, s_coefficients
from eub.entropy import _majorization_slack
from eub.matrices import MAJORIZATION_TOL
from eub.submatrices import _translation_symmetry

SEED = 626262
EPS = np.finfo(float).eps
# Two computations of one exact value agree to a few ulps: the paths below
# round differently (a Kronecker form runs the full enumeration where F_pq
# visits one block per translation orbit, and a direct sum's blocks hold
# exact zeros), and read at most 1.5 EPS apart in trials at N <= 15.
AGREE = 4 * EPS


def _direct_sum(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=complex)
    out[: len(a), : len(a)], out[len(a) :, len(a) :] = a, b
    return out


@pytest.mark.parametrize("dim", range(2, 17))
def test_fourier_chain_reaches_one_at_its_least_support(dim):
    """||U[R, C]|| = 1 exactly when a unit vector supported on C maps into
    the span of R, so s_k = 1 from the least |supp v| + |supp U v| over v != 0,
    minus 1, on. For F_N that least value is the least d + N/d over the
    divisors d of N (Donoho, Stark, SIAM J. Appl. Math. 49, 906 (1989);
    Meshulam, Eur. J. Combin. 27, 63 (2006)), N + 1 at prime N, where every
    minor of F_p is nonzero (Chebotarev). s_k counts as 1 within 2 EPS: F_8
    reaches 1 - EPS / 2 on its reduced path. The rung before stays below 1 by
    1e-5 or more: the smallest such gap at N <= 12 is 4.0e-5, at N = 11, and
    at N = 14-16 it is 0.055 or more. N = 13 is prime, and its gap is only
    2.67e-6, so there the rung before stays below 1 by 1e-6 or more. Past
    the guard the chains of N = 14-16 stop at their first exact 1, at k =
    8, 9 and 8, and F13's reaches 1 only at k = N, so each costs at most
    about 0.2 s."""
    first = min(d + dim // d for d in range(1, dim + 1) if dim % d == 0) - 1
    s = s_coefficients(fourier_matrix(dim), allow_large=dim > 12).s
    assert np.all(s[first - 1 :] >= 1.0 - 2 * EPS), s
    if first > 1:
        assert s[first - 2] < 1.0 - (1e-6 if dim == 13 else 1e-5), s


@pytest.mark.parametrize("na,nb", [(3, 4), (4, 6), (5, 5), (6, 8)])
def test_direct_sum_chain_is_the_larger_of_its_parts(na, nb):
    """A block of A + B (direct sum) is block-diagonal, so its norm is the
    larger of its parts' norms, and the semiperimeter is best spent on one
    part: s_k(A + B) = max(s^A_min(k, N_A), s^B_min(k, N_B)), within AGREE.
    H6 + H8 is past the guard, and its chain stops at k = 6, where H6's
    reaches 1."""
    a = haar_unitary(na, RngSeed(SEED, na))
    b = haar_unitary(nb, RngSeed(SEED + 1, nb))
    s = s_coefficients(_direct_sum(a, b), allow_large=na + nb > 12).s
    sa, sb = s_coefficients(a).s, s_coefficients(b).s
    k = np.arange(1, na + nb + 1)
    want = np.maximum(sa[np.minimum(k, na) - 1], sb[np.minimum(k, nb) - 1])
    assert np.max(np.abs(s - want)) <= AGREE, (s, want)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (2, 7)])
def test_kronecker_fourier_matches_fourier(p, q):
    """For coprime p and q, F_p (x) F_q is F_pq with its rows and columns
    permuted (the Good-Thomas index map), and s is invariant under those
    permutations, so the two chains agree within AGREE. The detector finds
    no translation symmetry on the Kronecker form, so this checks the full
    enumeration against F_pq's reduced one; past the guard at F_2 (x) F_7,
    whose chain stops at k = 8."""
    kron = np.kron(fourier_matrix(p), fourier_matrix(q))
    assert not _translation_symmetry(kron[None]).any()
    large = p * q > 12
    s = s_coefficients(kron, allow_large=large).s
    assert np.max(np.abs(s - s_coefficients(fourier_matrix(p * q), allow_large=large).s)) <= AGREE


# The sort-free slack sums at most 36 entries in [0, 1] per side, so it
# rounds by a few tens of EPS at worst; on the pairs below it read at most
# 3 EPS below 0 and below the partial-sum slack, and the sums 2 EPS apart.
SORT_FREE_TOL = 64 * EPS


def _sort_free_slack(y_rows, x_rows):
    # Per row, the least over t of sum_i max(y_i - t, 0) - sum_i max(x_i - t, 0),
    # t running over the entries of x and y and the zero of the padding. For
    # equal sums, x is majorized by y iff it is >= 0 (Marshall, Olkin, Arnold,
    # Inequalities: Theory of Majorization and Its Applications, 2nd ed.,
    # Springer (2011)): no sort and no partial sums. Zero-padding the shorter
    # side adds nothing to its sums at t >= 0.
    t = np.concatenate([y_rows, x_rows, np.zeros((len(x_rows), 1))], axis=1)[:, None, :]
    excess = np.maximum(y_rows[:, :, None] - t, 0.0).sum(axis=1) - np.maximum(x_rows[:, :, None] - t, 0.0).sum(axis=1)
    return excess.min(axis=1)


def _compared_pairs(monkeypatch, module, run):
    # the (y, x) pairs that run hands to module._majorization_slack
    pairs = []

    def spy(y_rows, x_rows):
        pairs.append((y_rows, x_rows))
        return _majorization_slack(y_rows, x_rows)

    monkeypatch.setattr(module, "_majorization_slack", spy)
    run()
    assert pairs
    return pairs


def _check_beside_partial_sums(y_rows, x_rows):
    # both oracles find x majorized by y on every row; the sort-free slack,
    # at t among x's entries, is never below the partial-sum one, up to rounding
    partial = _majorization_slack(y_rows, x_rows).min(axis=1)
    sort_free = _sort_free_slack(y_rows, x_rows)
    assert np.abs(y_rows.sum(axis=1) - x_rows.sum(axis=1)).max() <= SORT_FREE_TOL
    assert (partial >= -MAJORIZATION_TOL).all()
    assert sort_free.min() >= -SORT_FREE_TOL
    assert (sort_free >= partial - SORT_FREE_TOL).all()


def test_sort_free_oracle_on_fuzz_pairs(monkeypatch):
    """The fuzz's (Q, p (x) q) pairs at n = 2..6: p (x) q is majorized by Q
    under both oracles, Q zero-padded from n to n^2 entries."""
    pairs = _compared_pairs(monkeypatch, montecarlo, lambda: [majorization_fuzz(n, 300, RngSeed(SEED)) for n in range(2, 7)])
    assert sorted({x.shape[1] for _, x in pairs}) == [4, 9, 16, 25, 36]
    for y_rows, x_rows in pairs:
        _check_beside_partial_sums(y_rows, x_rows)


def test_sort_free_oracle_on_chain_truncations(monkeypatch):
    """verify's chain check, Q^(k + 1) majorized by Q^(k) at n = 3..6: both
    oracles accept every pair, and both refuse every reversed pair, whose
    partial-sum slack is below -6e-6 on these draws."""
    pairs = _compared_pairs(monkeypatch, cli, lambda: cli._verify_chain(RngSeed(SEED)))
    for y_rows, x_rows in pairs:
        _check_beside_partial_sums(y_rows, x_rows)
        assert (_majorization_slack(x_rows, y_rows).min(axis=1) < -MAJORIZATION_TOL).all()
        assert (_sort_free_slack(x_rows, y_rows) < -MAJORIZATION_TOL).all()
