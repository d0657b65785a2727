"""Renyi entropies and the majorization preorder on probability vectors.

Majorization compares partial sums of decreasing rearrangements; past a
vector's length its partial sums count as exactly 1.0 (zero padding).
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import (
    ENTROPY_TOL,
    MAJORIZATION_TOL,
    PROB_SUM_TOL,
    SHANNON_WINDOW,
    ZERO_FLOOR,
    _clamp_debris,
    _first_failure,
)


def check_probability_vector(x) -> np.ndarray:
    """Validate and return x as a 1d float array.

    Components must be nonnegative (rounding debris down to
    -NEGATIVE_CLAMP is clamped to zero) and sum to 1 within PROB_SUM_TOL.
    """
    return _probability_rows(np.asarray(x, dtype=float).reshape(1, -1))[0]


def _probability_rows(x: np.ndarray) -> np.ndarray:
    # check_probability_vector on each row of a 2d stack, the first failing row
    # raising its own message; ufunc reductions skip ndarray.sum's wrapper
    if x.shape[1] == 0:
        raise ValueError("empty probability vector")
    x, lows, clean = _clamp_debris(x, (1,))
    sums = np.add.reduce(x, axis=1)
    bad = _first_failure(clean & (np.abs(sums - 1.0) <= PROB_SUM_TOL))
    if bad is not None:
        if not clean[bad]:
            raise ValueError(f"negative component {lows[bad]:.3e} in probability vector")
        raise ValueError(f"probability vector sums to {float(sums[bad])!r}, not 1")
    return x


def _check_order(alpha) -> float:
    # The one rule for an entropy order: a nonnegative real or inf; -0.0 comes back as 0.0.
    a = float(alpha)
    if math.isnan(a) or a < 0.0:
        raise ValueError(f"entropy order must be a nonnegative real or inf, got {alpha!r}")
    return a + 0.0


def _order_json(a: float):
    return "inf" if math.isinf(a) else float(a)


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


def renyi_entropy(x, alpha):
    """Order-alpha entropy of a probability vector, natural logarithm.

    Parameters
    ----------
    x : array_like
        Probability vector (validated); a 2d array is a stack of them, one per row.
    alpha : float
        Order. 1 gives Shannon entropy with 0 ln 0 := 0, 0 gives the log
        of the support size, inf gives the min-entropy -ln(max component).
        NaN or a negative order raises ValueError.

    Returns
    -------
    float, or an array with one entropy per row of a stack
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"expected a probability vector or a 2d stack of them, got shape {x.shape}")
    h = _renyi_rows(_probability_rows(x if x.ndim == 2 else x.reshape(1, -1)), _check_order(alpha))
    return h if x.ndim == 2 else float(h[0])


def tensor_product(p, q) -> np.ndarray:
    """Flattened outer product p_i q_j; entropies are additive across it."""
    p = check_probability_vector(p)
    q = check_probability_vector(q)
    return np.outer(p, q).ravel()


def _majorization_slack(y_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    # Row-wise partial sums of the decreasing rearrangements, y's minus x's, past a side's
    # length taken as 1.0; an x row is majorized where no slack is below -MAJORIZATION_TOL.
    cum = np.ones((2, len(y_rows), max(y_rows.shape[1], x_rows.shape[1])))
    for side, rows in zip(cum, (y_rows, x_rows)):
        side[:, : rows.shape[1]] = np.cumsum(np.sort(rows, axis=1)[:, ::-1], axis=1)
    return cum[0] - cum[1]


def majorizes(y, x) -> bool:
    """True iff x is majorized by y.

    Every partial sum of x's decreasing rearrangement must be at most y's
    plus MAJORIZATION_TOL. Past a vector's length its partial sums count
    as exactly 1.0, as for a zero-padded vector whose sum is exactly 1.
    """
    x = check_probability_vector(x)
    y = check_probability_vector(y)
    return bool(_majorization_slack(y[None], x[None]).min() >= -MAJORIZATION_TOL)


def schur_concavity_witness(x, y, alpha) -> bool:
    """Check that entropy does not increase from x to the coarser y.

    Requires x majorized by y; raises if the precondition fails. Returns
    whether H_alpha(x) >= H_alpha(y) - ENTROPY_TOL. Used as a test predicate.
    """
    if not majorizes(y, x):
        raise ValueError("precondition failed: y does not majorize x")
    return renyi_entropy(np.ravel(x), alpha) >= renyi_entropy(np.ravel(y), alpha) - ENTROPY_TOL
