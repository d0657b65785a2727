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

from .entropy import _check_order, _order_json, _probability_rows, _renyi_rows, renyi_entropy
from .matrices import ENTROPY_TOL, PROB_SUM_TOL, _clamp_debris, _first_failure, _unit_rows, require_unitary
from .submatrices import SubmatrixCoefficients, s_coefficients


@dataclass(frozen=True)
class MajorizingVector:
    """Q and its truncations; truncations[k-1] is Q^(k), length k + 1 (per row of a stack)."""

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
            "alpha": _order_json(self.alpha),
            "deutsch": float(self.b_deutsch),
            "mu": float(self.b_mu),
            "ladder": [float(v) for v in self.ladder],
        }


def _q_rows(s_rows: np.ndarray, k: int) -> np.ndarray:
    # The only builder of Q^(k) = (r_1, r_2 - r_1, ..., r_k - r_{k-1}, 1 - r_k),
    # r = ((1 + s) / 2)^2, one row per s vector of the stack. Components go
    # negative only by rounding where consecutive r tie; _clamp_debris zeroes
    # those, and the first row with a component beyond the window raises.
    r = ((1.0 + s_rows) / 2.0) ** 2
    head = np.diff(r[:, :k], prepend=0.0, axis=1)
    q = np.concatenate([head, (1.0 - r[:, k - 1])[:, None]], axis=1)
    q, lows, clean = _clamp_debris(q, (1,))
    bad = _first_failure(clean)
    if bad is not None:
        raise ValueError(f"majorizing vector component {lows[bad]:.3e} below clamp window")
    return q / q.sum(axis=1, keepdims=True)


def majorizing_vector(sc: SubmatrixCoefficients) -> MajorizingVector:
    """Q = (r_1, r_2 - r_1, ..., r_N - r_{N-1}) plus all truncations Q^(k).

    Built from sc.s, with r_k = ((1 + s_k)/2)^2, by the same ``_q_rows``
    the ensembles use, on all rows of stacked s at once. Monotone s makes
    every component nonnegative; components down to -NEGATIVE_CLAMP
    (rounding where consecutive r_k tie) are zeroed and the vector
    renormalized, and a more negative one raises ValueError, the first such
    row of a stack naming its own component.
    """
    rows = sc.s.reshape(-1, sc.n)
    truncs = tuple(_q_rows(rows, k).reshape(sc.s.shape[:-1] + (k + 1,)) for k in range(1, sc.n))
    return MajorizingVector(q_full=truncs[-1] if truncs else np.ones(sc.s.shape), truncations=truncs)


def _closed_forms(c) -> tuple:
    # The one rule for (-2 ln((1 + c) / 2), -2 ln c), c the largest entry
    # modulus: floats for one c, arrays for an array, each element its own np.log.
    forms = -2.0 * np.log((1.0 + c) / 2.0) + 0.0, -2.0 * np.log(c) + 0.0
    return tuple(map(float, forms)) if np.ndim(c) == 0 else forms


def bound_deutsch(u: np.ndarray):
    """-2 ln((1 + c) / 2) with c the largest entry modulus of a unitary, per matrix of a stack."""
    return _closed_forms(np.abs(require_unitary(u)).max(axis=(-2, -1)))[0]


def bound_mu(u: np.ndarray):
    """-2 ln c with c the largest entry modulus of a unitary, per matrix of a stack."""
    return _closed_forms(np.abs(require_unitary(u)).max(axis=(-2, -1)))[1]


def ladder_from_coefficients(sc: SubmatrixCoefficients, alpha) -> BoundReport:
    """Bound report from precomputed coefficients; see ``bound_ladder``.

    Useful when several orders are evaluated for one matrix: the s
    computation dominates and can be shared. Stacked s gives b_deutsch,
    b_mu and ladder a row per matrix, each rung one ``renyi_entropy`` call,
    so coefficients whose Q is not a probability vector (a NaN s) raise.
    """
    a = _check_order(alpha)
    return _ladder_report(sc, majorizing_vector(sc), a, renyi_entropy)


def _ladder_report(sc: SubmatrixCoefficients, mv: MajorizingVector, a: float, entropy=_renyi_rows) -> BoundReport:
    # The report at a checked order from sc's majorizing vector mv, which the
    # orders of one report share; each rung is one `entropy` call on all rows.
    # Coefficients from the validated kernel give finite s, and _q_rows hands
    # back Q^(k) clamped and normalised, so the CLI's reports take the
    # unchecked _renyi_rows; ladder_from_coefficients checks caller input.
    ladder = np.empty(sc.s.shape[:-1] + (sc.n - 1,))
    for k, t in enumerate(mv.truncations):
        ladder[..., k] = entropy(t.reshape(-1, k + 2), a).reshape(sc.s.shape[:-1])
    b_deutsch, b_mu = _closed_forms(sc.s[..., 0])
    return BoundReport(n=sc.n, alpha=a, b_deutsch=b_deutsch, b_mu=b_mu, ladder=ladder)


def bound_ladder(u: np.ndarray, alpha, allow_large: bool = False) -> BoundReport:
    """Evaluate the full bound report for one unitary and one order.

    ladder[k-1] = H_alpha(Q^(k)); the closed-form bounds are filled from
    c = s_1 so every number in the report shares one s computation. The
    order is checked before s is computed.
    """
    a = _check_order(alpha)
    return ladder_from_coefficients(s_coefficients(u, allow_large=allow_large), a)


def _distributions(u: np.ndarray, rows: np.ndarray) -> tuple:
    # The one rule for what a state measures, unchecked: p = |psi|^2 and
    # q = |U psi|^2, states (S, N) against one U or (P * S, N) against P of them
    p = np.abs(rows) ** 2
    q = np.abs(np.matmul(u[..., None, :, :], rows.reshape(u.shape[:-2] + (-1, u.shape[-1], 1))).reshape(p.shape)) ** 2
    # rounding from the product is absorbed before any entropy or slack
    return p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


def eur_lhs(u: np.ndarray, psi: np.ndarray, alpha):
    """H_alpha(p) + H_alpha(q) for p_i = |psi_i|^2, q_j = |(U psi)_j|^2.

    psi is one state (a float is returned) or a stack of states on its rows
    (an array), each to the bits of its value alone; U is checked once. A
    stack of P unitaries takes states (P, S, N) and gives (P, S).
    """
    u = require_unitary(u)
    if u.ndim == 3 and (np.ndim(psi) != 3 or len(psi) != len(u)):
        raise ValueError(f"states of shape {np.shape(psi)} for a stack of {len(u)} unitaries; expected (P, S, N)")
    rows = _unit_rows(np.reshape(psi, (-1, np.shape(psi)[-1])) if u.ndim == 3 else psi, u.shape[-1])
    a = _check_order(alpha)
    p, q = _distributions(u, rows)
    lhs = _renyi_rows(p, a) + _renyi_rows(q, a)
    return float(lhs[0]) if np.ndim(psi) == 1 else lhs.reshape(np.shape(psi)[:-1])


# --- classical analogue -----------------------------------------------------


def check_stochastic(t) -> np.ndarray:
    """Validate a column-stochastic matrix (columns sum to 1), or a stack of them.

    A 3d t is a stack of matrices on its leading axis, each checked by the
    same rule; the first failing matrix raises the message it raises alone.
    Entries down to -NEGATIVE_CLAMP are rounding debris and are zeroed.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim not in (2, 3):
        raise ValueError("expected a 2d array or a stack of them")
    t, lows, clean = _clamp_debris(t, (-2, -1))
    dev = np.abs(t.sum(axis=-2) - 1.0).max(axis=-1)
    bad = _first_failure(clean & (dev <= PROB_SUM_TOL))
    if bad is not None:
        if not clean.flat[bad]:
            raise ValueError(f"negative entry {lows.flat[bad]:.3e} in stochastic matrix")
        if np.abs(t.sum(axis=-1) - 1.0).max(axis=-1).flat[bad] <= PROB_SUM_TOL:
            raise ValueError(
                "rows sum to 1 but columns do not; row-stochastic input "
                "is rejected rather than transposed"
            )
        raise ValueError(f"column sums deviate from 1 by {dev.flat[bad]:.3e}")
    return t


def _classical_entropies(t, p) -> tuple:
    # Validates t, one matrix or a stack on the leading axis, and P, and gives
    # (mixture entropy, H(TP), H(P)), the three numbers every classical check
    # compares, with all of t's column entropies taken in one call. P is one
    # vector (three floats) or a stack of rows (three arrays): one row per
    # matrix of a stack, or any number against one matrix.
    t = check_stochastic(t)
    n = t.shape[-1]
    columns = renyi_entropy(np.ascontiguousarray(np.swapaxes(t, -1, -2)).reshape(-1, t.shape[-2]), 1.0)
    columns = columns.reshape(-1, n)
    p = np.asarray(p, dtype=float)
    rows = _probability_rows(p if p.ndim == 2 else p.reshape(1, -1))
    if rows.shape[1] != n:
        raise ValueError(f"weight vector length {rows.shape[1]} does not match {n} columns")
    if t.ndim == 3 and len(rows) != len(t):
        raise ValueError(f"{len(rows)} weight vectors for a stack of {len(t)} matrices")
    # summed over i in column order, skipping zero weights: the bits of a Python sum
    mixture = np.zeros(len(rows))
    for i in range(n):
        mixture = np.where(rows[:, i] > 0.0, mixture + rows[:, i] * columns[:, i], mixture)
    h_tp = renyi_entropy(np.matmul(t, rows[..., None])[..., 0], 1.0)
    h_p = renyi_entropy(rows, 1.0)
    return (mixture, h_tp, h_p) if p.ndim == 2 else (float(mixture[0]), float(h_tp[0]), float(h_p[0]))


def _classical_slacks(lower, mid, h_p, bound=None) -> tuple:
    # Slacks of mixture <= H(TP), H(TP) <= mixture + H(P) and, when
    # bound = classical_bound(T) is given, -ln kappa <= H(P) + H(TP), from
    # _classical_entropies' (mixture, H(TP), H(P)); each holds when its slack
    # is >= -ENTROPY_TOL.
    pair = (mid - lower, lower + h_p - mid)
    return pair if bound is None else (*pair, h_p + mid - bound)


def classical_mixture_entropy(t, p) -> float:
    """Average Shannon entropy of the columns of t, weighted by p."""
    return _classical_entropies(t, p)[0]


def classical_bound(t):
    """-ln(max entry): H(P) + H(TP) is at least this for every input P.

    A stack of matrices on the leading axis gives an array of bounds, each
    ``math.log`` of its own matrix's largest entry.
    """
    t = check_stochastic(t)
    bound = [-math.log(c) + 0.0 for c in np.reshape(t.max(axis=(-2, -1)), -1).tolist()]
    return bound[0] if t.ndim == 2 else np.array(bound)


def slomczynski_check(t, p) -> bool:
    """Both mixture inequalities within ENTROPY_TOL (1e-10).

    The column mixture entropy must not exceed H(TP), and H(TP) must not
    exceed the mixture entropy plus H(P).
    """
    return min(_classical_slacks(*_classical_entropies(t, p))) >= -ENTROPY_TOL
