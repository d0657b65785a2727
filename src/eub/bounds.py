"""Entropy lower bounds for a pair of bases joined by a unitary.

Builds the majorizing vector Q and its truncations Q^(k) from the
submatrix norm coefficients, evaluates the resulting bound ladder
B_alpha^k = H_alpha(Q^(k)) next to the two classical closed forms
(the Deutsch value -2 ln((1+c)/2) and the Maassen-Uffink value -2 ln c,
c the largest entry modulus), and carries the analogous machinery for
column-stochastic matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _check_order, check_probability_vector, clamp_negative, renyi_entropy
from .matrices import ENTROPY_TOL, PROB_SUM_TOL, STATE_NORM_TOL, require_unitary
from .submatrices import SubmatrixCoefficients, s_coefficients


@dataclass(frozen=True)
class MajorizingVector:
    """Q and its truncations; truncations[k-1] is Q^(k), length k + 1."""

    q_full: np.ndarray
    truncations: tuple


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one unitary and one entropy order.

    ladder[k-1] = H_alpha(Q^(k)), stored ascending in k, so the array is
    nondecreasing and ladder[-1] is the strongest bound of the family.
    """

    n: int
    alpha: float
    b_deutsch: float
    b_mu: float
    ladder: np.ndarray

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "alpha": "inf" if math.isinf(self.alpha) else float(self.alpha),
            "deutsch": float(self.b_deutsch),
            "mu": float(self.b_mu),
            "ladder": [float(v) for v in self.ladder],
        }


def _q_rows(s_rows: np.ndarray, k: int) -> np.ndarray:
    # The only builder of Q^(k) = (r_1, r_2 - r_1, ..., r_k - r_{k-1}, 1 - r_k),
    # r = ((1 + s) / 2)^2, one row per s vector of the stack. Components go
    # negative only by rounding where consecutive r tie; clamp_negative zeroes
    # those and raises on anything beyond the clamp window.
    r = ((1.0 + s_rows) / 2.0) ** 2
    head = np.diff(r[:, :k], prepend=0.0, axis=1)
    q = np.concatenate([head, (1.0 - r[:, k - 1])[:, None]], axis=1)
    q = clamp_negative(q, "majorizing vector component {:.3e} below clamp window")
    return q / q.sum(axis=1, keepdims=True)


def majorizing_vector(sc: SubmatrixCoefficients) -> MajorizingVector:
    """Q = (r_1, r_2 - r_1, ..., r_N - r_{N-1}) plus all truncations Q^(k).

    Built from sc.s, with r_k = ((1 + s_k)/2)^2, by the same ``_q_rows``
    the ensembles use. Monotone s makes every component nonnegative;
    components down to -NEGATIVE_CLAMP (rounding where consecutive r_k
    tie) are zeroed and the vector renormalized, and a more negative one
    raises ValueError.
    """
    if sc.n == 1:
        return MajorizingVector(q_full=np.array([1.0]), truncations=())
    truncs = tuple(_q_rows(sc.s[None], k)[0] for k in range(1, sc.n))
    return MajorizingVector(q_full=truncs[-1], truncations=truncs)


def _max_entry_modulus(u: np.ndarray) -> float:
    return float(np.abs(u).max())


def bound_deutsch(u: np.ndarray) -> float:
    """-2 ln((1 + c) / 2) with c the largest entry modulus of a unitary."""
    u = require_unitary(u)
    return -2.0 * math.log((1.0 + _max_entry_modulus(u)) / 2.0) + 0.0


def bound_mu(u: np.ndarray) -> float:
    """-2 ln c with c the largest entry modulus of a unitary."""
    u = require_unitary(u)
    return -2.0 * math.log(_max_entry_modulus(u)) + 0.0


def ladder_from_coefficients(sc: SubmatrixCoefficients, alpha) -> BoundReport:
    """Bound report from precomputed coefficients; see ``bound_ladder``.

    Useful when several orders are evaluated for one matrix: the s
    computation dominates and can be shared.
    """
    a = _check_order(alpha)
    mv = majorizing_vector(sc)
    c = float(sc.s[0])
    ladder = np.array([renyi_entropy(t, a) for t in mv.truncations])
    return BoundReport(
        n=sc.n,
        alpha=a,
        b_deutsch=-2.0 * math.log((1.0 + c) / 2.0) + 0.0,
        b_mu=-2.0 * math.log(c) + 0.0,
        ladder=ladder,
    )


def bound_ladder(u: np.ndarray, alpha, allow_large: bool = False) -> BoundReport:
    """Evaluate the full bound report for one unitary and one order.

    ladder[k-1] = H_alpha(Q^(k)); the closed-form bounds are filled from
    c = s_1 so every number in the report shares one s computation. The
    order is checked before s is computed.
    """
    a = _check_order(alpha)
    return ladder_from_coefficients(s_coefficients(u, allow_large=allow_large), a)


def eur_lhs(u: np.ndarray, psi: np.ndarray, alpha) -> float:
    """H_alpha(p) + H_alpha(q) for p_i = |psi_i|^2, q_j = |(U psi)_j|^2."""
    u = require_unitary(u)
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != u.shape[0]:
        raise ValueError(f"state dimension {psi.size} does not match matrix {u.shape[0]}")
    nrm = float(np.vdot(psi, psi).real)
    if not abs(nrm - 1.0) <= STATE_NORM_TOL:
        raise ValueError(
            f"state norm squared {nrm!r} deviates from 1 beyond {STATE_NORM_TOL:g}"
        )
    p = np.abs(psi) ** 2
    q = np.abs(u @ psi) ** 2
    # rounding from the product is absorbed before the entropy evaluation
    p = p / p.sum()
    q = q / q.sum()
    return renyi_entropy(p, alpha) + renyi_entropy(q, alpha)


# --- classical analogue -----------------------------------------------------


def check_stochastic(t) -> np.ndarray:
    """Validate a column-stochastic matrix (columns sum to 1)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2d array")
    t = clamp_negative(t, "negative entry {:.3e} in stochastic matrix")
    col = t.sum(axis=0)
    if not np.abs(col - 1.0).max() <= PROB_SUM_TOL:
        row = t.sum(axis=1)
        if np.abs(row - 1.0).max() <= PROB_SUM_TOL:
            raise ValueError(
                "rows sum to 1 but columns do not; row-stochastic input "
                "is rejected rather than transposed"
            )
        raise ValueError(f"column sums deviate from 1 by {np.abs(col - 1.0).max():.3e}")
    return t


def _classical_entropies(t, p) -> tuple:
    # Validates (t, p) once; returns (mixture entropy, H(TP), H(P)), the three
    # numbers every classical check compares.
    t = check_stochastic(t)
    p = check_probability_vector(p)
    if p.size != t.shape[1]:
        raise ValueError(f"weight vector length {p.size} does not match {t.shape[1]} columns")
    mixture = sum(p[i] * renyi_entropy(t[:, i], 1.0) for i in range(t.shape[1]) if p[i] > 0.0)
    return float(mixture), renyi_entropy(t @ p, 1.0), renyi_entropy(p, 1.0)


def _mixture_inequalities_hold(lower: float, mid: float, h_p: float) -> bool:
    # lower <= mid <= lower + h_p within ENTROPY_TOL, for the triple
    # (mixture entropy, H(TP), H(P)) of _classical_entropies
    return (lower - ENTROPY_TOL <= mid) and (mid <= lower + h_p + ENTROPY_TOL)


def classical_mixture_entropy(t, p) -> float:
    """Average Shannon entropy of the columns of t, weighted by p."""
    return _classical_entropies(t, p)[0]


def classical_bound(t) -> float:
    """-ln(max entry): H(P) + H(TP) is at least this for every input P."""
    t = check_stochastic(t)
    return -math.log(float(t.max())) + 0.0


def slomczynski_check(t, p) -> bool:
    """Both mixture inequalities within ENTROPY_TOL (1e-10).

    The column mixture entropy must not exceed H(TP), and H(TP) must not
    exceed the mixture entropy plus H(P).
    """
    return _mixture_inequalities_hold(*_classical_entropies(t, p))
