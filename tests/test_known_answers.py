"""Known answers for the chain s_1..s_N that share no code with the kernel.

Each comes from an exact structural fact, so it checks s_coefficients at
sizes where the one-block-at-a-time oracle, max_norm_over_shape, is too
slow to run.
"""

import numpy as np
import pytest

from eub import RngSeed, fourier_matrix, haar_unitary, s_coefficients
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


@pytest.mark.parametrize("dim", range(2, 13))
def test_fourier_chain_reaches_one_at_its_least_support(dim):
    """||U[R, C]|| = 1 exactly when a unit vector supported on C maps into
    the span of R, so s_k = 1 from the least |supp v| + |supp U v| over v != 0,
    minus 1, on. For F_N that least value is the least d + N/d over the
    divisors d of N (Donoho, Stark, SIAM J. Appl. Math. 49, 906 (1989);
    Meshulam, Eur. J. Combin. 27, 63 (2006)), N + 1 at prime N, where every
    minor of F_p is nonzero (Chebotarev). s_k counts as 1 within 2 EPS: F_8
    reaches 1 - EPS / 2 on its reduced path. The rung before stays below 1 by
    1e-5 or more: the smallest such gap at N <= 12 is 4.0e-5, at N = 11."""
    first = min(d + dim // d for d in range(1, dim + 1) if dim % d == 0) - 1
    s = s_coefficients(fourier_matrix(dim)).s
    assert np.all(s[first - 1 :] >= 1.0 - 2 * EPS), s
    if first > 1:
        assert s[first - 2] < 1.0 - 1e-5, s


@pytest.mark.parametrize("na,nb", [(3, 4), (4, 6), (5, 5)])
def test_direct_sum_chain_is_the_larger_of_its_parts(na, nb):
    """A block of A + B (direct sum) is block-diagonal, so its norm is the
    larger of its parts' norms, and the semiperimeter is best spent on one
    part: s_k(A + B) = max(s^A_min(k, N_A), s^B_min(k, N_B)), within AGREE."""
    a = haar_unitary(na, RngSeed(SEED, na))
    b = haar_unitary(nb, RngSeed(SEED + 1, nb))
    s = s_coefficients(_direct_sum(a, b)).s
    sa, sb = s_coefficients(a).s, s_coefficients(b).s
    k = np.arange(1, na + nb + 1)
    want = np.maximum(sa[np.minimum(k, na) - 1], sb[np.minimum(k, nb) - 1])
    assert np.max(np.abs(s - want)) <= AGREE, (s, want)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4)])
def test_kronecker_fourier_matches_fourier(p, q):
    """For coprime p and q, F_p (x) F_q is F_pq with its rows and columns
    permuted (the Good-Thomas index map), and s is invariant under those
    permutations, so the two chains agree within AGREE. The detector finds
    no translation symmetry on the Kronecker form, so this checks the full
    enumeration against F_pq's reduced one."""
    kron = np.kron(fourier_matrix(p), fourier_matrix(q))
    assert not _translation_symmetry(kron[None]).any()
    s = s_coefficients(kron).s
    assert np.max(np.abs(s - s_coefficients(fourier_matrix(p * q)).s)) <= AGREE
