"""Renyi entropies and the majorization preorder on probability vectors."""

from __future__ import annotations

import math

import numpy as np

from .matrices import (
    ENTROPY_TOL,
    MAJORIZATION_TOL,
    NEGATIVE_CLAMP,
    PROB_SUM_TOL,
    SHANNON_WINDOW,
    ZERO_FLOOR,
)


def clamp_negative(x: np.ndarray, message: str) -> np.ndarray:
    """Zero the entries of x in [-NEGATIVE_CLAMP, 0); raise below that.

    The ValueError text is ``message`` formatted with the most negative
    entry. Returns x itself when no entry is negative.
    """
    lo = float(x.min())
    if lo < -NEGATIVE_CLAMP:
        raise ValueError(message.format(lo))
    if lo < 0.0:
        x = np.where(x < 0.0, 0.0, x)
    return x


def check_probability_vector(x) -> np.ndarray:
    """Validate and return x as a 1d float array.

    Components must be nonnegative (rounding debris down to
    -NEGATIVE_CLAMP is clamped to zero) and sum to 1 within PROB_SUM_TOL.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty probability vector")
    x = clamp_negative(x, "negative component {:.3e} in probability vector")
    s = float(x.sum())
    if not abs(s - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probability vector sums to {s!r}, not 1")
    return x


def _check_order(alpha) -> float:
    # The one rule for an entropy order: a nonnegative real or inf.
    a = float(alpha)
    if math.isnan(a) or a < 0.0:
        raise ValueError(f"entropy order must be a nonnegative real or inf, got {alpha!r}")
    return a


def _renyi_rows(x: np.ndarray, alpha) -> np.ndarray:
    # Row-wise entropies for a 2d stack of valid vectors and a checked order.
    a = float(alpha)
    if math.isinf(a):
        return -np.log(x.max(axis=1)) + 0.0
    if abs(a - 1.0) <= SHANNON_WINDOW:
        safe = np.where(x > 0.0, x, 1.0)
        return -(x * np.log(safe)).sum(axis=1) + 0.0
    if a == 0.0:
        return np.log((x > ZERO_FLOOR).sum(axis=1))
    m = x.max(axis=1, keepdims=True)
    z = x / m
    if a < 1.0:
        z = np.where(x > ZERO_FLOOR, z, 0.0)
    total = (z**a).sum(axis=1)
    # log-sum anchored at the max component; direct powers underflow for
    # large alpha long before the entropy itself degenerates.  The +0.0
    # turns any -0.0 into 0.0 so downstream text output stays signless.
    return (a * np.log(m[:, 0]) + np.log(total)) / (1.0 - a) + 0.0


def renyi_entropy(x, alpha) -> float:
    """Order-alpha entropy of a probability vector, natural logarithm.

    Parameters
    ----------
    x : array_like
        Probability vector (validated).
    alpha : float
        Order. 1 gives Shannon entropy with 0 ln 0 := 0, 0 gives the log
        of the support size, inf gives the min-entropy -ln(max component).
        NaN or a negative order raises ValueError.

    Returns
    -------
    float
    """
    x = check_probability_vector(x)
    return float(_renyi_rows(x[None, :], _check_order(alpha))[0])


def tensor_product(p, q) -> np.ndarray:
    """Flattened outer product p_i q_j; entropies are additive across it."""
    p = check_probability_vector(p)
    q = check_probability_vector(q)
    return np.outer(p, q).ravel()


def majorizes(y, x) -> bool:
    """True iff x is majorized by y.

    The shorter vector is padded with zeros. Every partial sum of the
    decreasing rearrangement of x must be at most the matching partial
    sum for y plus MAJORIZATION_TOL.
    """
    x = check_probability_vector(x)
    y = check_probability_vector(y)
    n = max(x.size, y.size)
    xs = np.zeros(n)
    xs[: x.size] = np.sort(x)[::-1]
    ys = np.zeros(n)
    ys[: y.size] = np.sort(y)[::-1]
    return bool(np.all(np.cumsum(xs) <= np.cumsum(ys) + MAJORIZATION_TOL))


def schur_concavity_witness(x, y, alpha) -> bool:
    """Check that entropy does not increase from x to the coarser y.

    Requires x majorized by y; raises if the precondition fails. Returns
    whether H_alpha(x) >= H_alpha(y) - ENTROPY_TOL. Used as a test predicate.
    """
    if not majorizes(y, x):
        raise ValueError("precondition failed: y does not majorize x")
    return renyi_entropy(x, alpha) >= renyi_entropy(y, alpha) - ENTROPY_TOL
