"""Dense complex matrix helpers: unitarity checks, spectral norms, random streams, JSON I/O.

Everything here works on plain numpy arrays (complex128). Matrices stay
small (dimension about 12 or less), so robustness is preferred over
asymptotic speed: ``largest_singular_value`` goes through a full Hermitian
eigensolve of the smaller Gram matrix rather than an iterative method.
It backs the reference oracle; the batched kernel in ``submatrices`` takes
2x2 and 3x3 Gram eigenvalues in closed form instead.

Random draws come from one Philox stream per run, keyed by (seed, stream).
Sample ``index`` of an ensemble reads that stream from counter
(0, 0, index, 0), the start of its own block of 2**128 counter values,
for index 0 .. 2**64 - 1. ``_seek`` is the one definition of that rule.
The one Haar sampler that reads it, ``montecarlo._haar_batch``, lives
with the ensembles; ``haar_unitary`` is its sample 0.

The constant block below is the package's numeric contract: every
allowance a floating-point check grants (a residual, a window, a clamp, a
floor) is written there and nowhere else in ``eub``. This module is the
bottom of the import graph, so each module imports the allowances it uses
from here, and each constant's comment says what it guards and who reads
it. A constant is shared only where both the value and the guarded
quantity are the same.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple

import numpy as np

# --- numeric contract -----------------------------------------------------
#
# The largest max-norm of M M^dag - I a unitary M may show, and of V V^dag - I
# for a set V of orthonormal rows, both computed by _orthonormality_residual.
# Read by is_unitary, require_unitary and _unitary_gram, by submatrices (the
# bound on its eigenvalue repairs and on the spectral norm's excess over 1),
# by extremal.SubspacePair and by the verify suite's haar-unitarity check.
# submatrices also leans on it for the (2, n) and (3, n) classes it takes
# from their column complements: by Weyl, |lambda_max(G_C[R, R]) - (1 -
# lambda_min(G_C'[R, R]))| <= |(U U^dag - I)[R, R]|_2 <= |R| r, since the
# spectral norm of an |R| x |R| matrix is at most its Frobenius norm, |R| r,
# with r the max-norm residual of U U^dag - I: 2 r for a two-row set and
# 3 r for a three-row set. So those classes' squared norms are within 2 or
# 3 UNITARITY_TOL of enumeration's. The (n, 2) and (n, 3) classes, taken by
# row complements, have r of U^dag U - I instead, which no check reads; it
# is at most |U^dag U - I|_2 = |U U^dag - I|_2 <= N UNITARITY_TOL. The
# complement bound that prunes the m >= 4 classes takes that N UNITARITY_TOL
# as its bound on |E|_2 either way round, so it holds for every input within
# this tolerance and s keeps its bits. The same r settles most of the norm
# check: by Gershgorin, lambda_max(U U^dag) <= 1 + N r, so a matrix with
# N r <= UNITARITY_TOL has norm at most 1 + UNITARITY_TOL / 2, and eigvalsh
# runs only on the others.
UNITARITY_TOL = 1e-10
# The closed-form 3x3 top eigenvalue q + 2p cos(acos(r)/3) loses accuracy as
# 1/sqrt(1 + r) when the top eigenvalue is nearly double (r -> -1), and the
# bottom one q + 2p cos(acos(r)/3 + 2 pi/3) as 1/sqrt(1 - r) when the bottom
# eigenvalue is nearly double (r -> +1). Grams with 1 + r or 1 - r below
# this gap are recomputed with eigvalsh, which bounds the closed form's
# error to a few ulps of the Gram's trace.
# Read by submatrices.
CARDANO_MIN_GAP = 1e-2
# A block of an m >= 4 submatrix class goes to eigvalsh unless its upper
# bound on the top Gram eigenvalue, from the squared minors and moduli of
# its complementary columns, falls short of the class threshold by more than
# this relative margin. The bounds and eigvalsh each round at about 1e-15
# relative, or 1e-12 absolute for the sums of squared minors, so the block
# that attains the class maximum always passes. Read by submatrices.
PRUNE_SLACK = 1e-9
# A one-step translate W[i, j] = U[i + a, j + b], a, b in {0, 1}, of a
# unitary counts as U up to unit phases, W = diag(x) U diag(y), when the
# fitted x, y leave a max-norm residual r <= this; its powers are not
# tested. The kernel then visits one block per translation orbit. Steps
# compose and their residuals add, so each block of an orbit, within
# floor(N/2) steps of its representative, is within floor(N/2) r of it up
# to phases, and its norm within floor(N/2) sqrt(mn) r <= floor(N/2)
# ((k + 1) / 2) r. A row shift followed by a column shift adds their two
# residuals, so s_k from the representatives is within 2 ((k + 1) / 2)
# floor(N/2) SYMMETRY_TOL of the full enumeration's, plus rounding: 1.4e-11
# at N = 16, k = 16, far inside the 2 or 3 UNITARITY_TOL that the served
# complement classes allow. Measured residuals of every accepted translate
# at every power, N = 4..16, plain, phased or dephased, with beta on a grid
# of 65 points in [0, 2], each of which holds the diagonal shift: at most
# 4.9e-15 for F_N and P_N^beta at N <= 12 and 7.4e-15 at N = 13..16
# (6.4e-15 at one step), and 5e-16 for the shift and the identity, a
# margin of 13x or more; the tests hold it to 8x. A threshold of this over
# floor(N/2) would leave no such margin, so the tolerance stays one-step.
# Twenty Haar draws per N missed |W| = |U| by 0.61 or more.
# Read by submatrices.
SYMMETRY_TOL = 1e-13
# The sum of a probability vector, and each row or column sum of a
# (bi)stochastic matrix, may miss 1 by this much. Read by entropy's
# probability check, bounds.check_stochastic and
# families._check_bistochastic_3, each next to _clamp_debris.
PROB_SUM_TOL = 1e-10
# Entries of a probability vector or stochastic matrix, and the barycentric
# weights a, b and 1 - a - b of a point of the order-3 Birkhoff slice, this
# far below zero are rounding debris: entries are zeroed, points accepted,
# and anything more negative is an error. Read by _clamp_debris and so by
# entropy's probability check, every Q check and every stochastic check, by
# families.BirkhoffPoint and by the grid guard of families.cross_section_scan.
NEGATIVE_CLAMP = 1e-12
# Rounding allowance of every entropy inequality checked in floating point
# (mixture inequalities, -ln kappa, Schur concavity, the ladder top below
# an entropy sum): a side may miss its bound by this much and still hold.
# Read by entropy, bounds and the cli's classical command and verify suite.
ENTROPY_TOL = 1e-10
# A partial sum of the decreasing rearrangement of the majorized vector may
# exceed the majorizing one's by this much. Read by entropy.majorizes and
# montecarlo.majorization_fuzz.
MAJORIZATION_TOL = 1e-10
# A wins-only beat rate decides a Haar draw before its last rung once its
# Shannon rung B^j beats -2 ln c by more than this (a win), or its loss
# bound falls short of it by more (a loss); a draw within it runs to rung k
# (see montecarlo._decided). Each decision, like the count of the draws that
# run to rung k, compares the entropy of a vector of at most 12 components,
# built by _q_rows from the same s bits, with the same -2 ln c, so the
# margin covers the error of two such evaluations against exact
# arithmetic on those bits. In one, each component of the vector before its
# renormalization is within eta <= NEGATIVE_CLAMP + 8 ulps of the exact one:
# r and its differences round by a few ulps, and the clamp zeroes only
# entries at most NEGATIVE_CLAMP below 0 (exact components are >= 0, as s is
# monotone). -x ln x moves by at most -eta ln eta <= 2.8e-11 per component,
# its modulus of continuity, so 3.4e-10 over 12. Renormalizing by a sum
# sigma within 12 eta of 1 moves H by at most 12 eta (1 + ln 12) <= 4.5e-11,
# as H(q / sigma) = H(q) / sigma + ln sigma, and the sum of the terms
# rounds by about 1e-15. That is 3.9e-10 an evaluation and 7.8e-10 for two,
# inside this. A larger margin only sends more draws to rung k. Read by
# montecarlo.
DECIDED_MARGIN = 1e-9
# Components below this are treated as exact zeros for alpha < 1 and for
# support counting: subnormal leakage must not flip the support size. Read
# by entropy._renyi_rows.
ZERO_FLOOR = 1e-300
# Orders this close to 1 take the Shannon branch; 1/(1-alpha) amplifies
# rounding catastrophically near the limit. Read by entropy._renyi_rows.
SHANNON_WINDOW = 1e-9
# A state vector's squared norm, and the modulus of a unit phase, may
# deviate from 1 by this much. Read by _unit_rows, and so by bounds.eur_lhs
# and extremal.pair_objective (states), and by
# equivalence.EquivalenceTransform (the diagonal phases).
STATE_NORM_TOL = 1e-12
# The longest of the three column links sqrt(B_1j B_2j) of a 3x3
# bistochastic matrix may exceed the sum of the other two by this much and
# still close a triangle. Read by families.unistochastic_check_3 and
# families.unistochastic_lift_3.
LINK_TRIANGLE_TOL = 1e-12
# Links no longer than this are all zero: the lift keeps zero phases
# instead of dividing by the longest link. Read by
# families.unistochastic_lift_3.
DEGENERATE_LINK = 1e-15
# The max deviation of |U|^2 of a lifted unitary from its target
# bistochastic matrix. Read by families.cross_section_scan, whose error
# the verify suite's scan-smoke check reports.
LIFT_RESIDUAL_TOL = 1e-9
# The largest imaginary part a stochastic matrix file may carry. Read by
# the cli's classical command.
STOCHASTIC_IMAG_TOL = 1e-12
# The verify suite's cross-checks, read only by cli, each named by the
# quantity it compares (check name in parentheses).
# s and every bound (b_deutsch, b_mu and each rung, at each verify order)
# of u against those of an equivalent P1 D1 U D2 P2 (s-transform-invariance).
TRANSFORM_INVARIANCE_TOL = 1e-10
# A ladder rung may fall below the one before it by this much
# (ladder-monotone-and-lhs).
LADDER_MONOTONE_TOL = 1e-12
# The summed squared overlaps of a state with two orthonormal sets against
# 1 + sigma_1 (bound and attainment), and the two partial sums at the
# maximizing state (extremal-suite).
OVERLAP_SUM_TOL = 1e-10
# 1 + sigma_1 against the top eigenvalue of [[I, A^dag], [A, I]]
# (extremal-suite).
BLOCK_EIGENVALUE_TOL = 1e-12
# The Deutsch bound may exceed -2 ln c by this much (deutsch-closed-forms).
CLOSED_FORM_ORDER_TOL = 1e-12
# The largest product p_i q_j at the maximizing state against
# ((1 + c) / 2)^2 (deutsch-closed-forms).
MAX_PRODUCT_TOL = 1e-10
# The exact n = 2 win rate of the ladder top over -2 ln c, 2 (1 - t*): for
# Haar U(2), t = |U_11|^2 is uniform on [0, 1], and the top wins exactly
# when max(t, 1 - t) > t*, the root of H(r, 1 - r) = -ln t with
# r = ((1 + sqrt t) / 2)^2, which tests/test_montecarlo.py bisects.
BEAT_RATE_N2 = 0.8143396770
# The n = 2 win rate in 3000 Haar draws may miss BEAT_RATE_N2 by this much:
# about 4 sigma of a binomial rate, sqrt(0.814 * 0.186 / 3000) = 0.0071
# (beat-rate-sanity).
BEAT_RATE_ALLOWANCE = 0.03

_UINT64 = 2**64


def _checked_record(typename: str, field_names: str):
    """A namedtuple base for a record whose subclass checks its fields in ``__new__``.

    ``_make``, and so ``_replace``, and ``__reduce__``, and so copy, deepcopy
    and pickle at every protocol, build through ``cls(*fields)``: a plain
    namedtuple's would skip the subclass's ``__new__`` and its checks.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


class RngSeed(_checked_record("RngSeed", "seed stream")):
    """Seed for the counter-based generator family used throughout.

    The pair (seed, stream) fixes the sample sequence completely. Derived
    per-sample streams (see ``sample_generator``) depend only on the pair
    and the sample index, never on worker scheduling. Both are read through
    ``operator.index`` and stored as Python ints, so a float or a string is
    refused with TypeError.
    """

    __slots__ = ()

    def __new__(cls, seed: int, stream: int = 0):
        seed, stream = operator.index(seed), operator.index(stream)
        if not (0 <= seed < _UINT64 and 0 <= stream < _UINT64):
            raise ValueError("seed and stream must be unsigned 64-bit integers")
        return super().__new__(cls, seed, stream)

    def to_json(self) -> dict:
        return self._asdict()


def _at_least(value, least: int, what: str) -> int:
    # The one rule of a size (a dimension or a count): value read through
    # operator.index, as RngSeed reads its fields, and returned as an int, so
    # a float or a string is refused with TypeError before anything is built
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def philox_key(rng: RngSeed) -> int:
    return (rng.stream << 64) | rng.seed


def generator(rng: RngSeed) -> np.random.Generator:
    """Generator for the run identified by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=philox_key(rng)))


def _seek(bitgen: np.random.Philox, rng: RngSeed, start: int, count: int = 1):
    # The per-index rule: key (seed, stream), counter (0, 0, index, 0) and an
    # empty output buffer. That is the state of Philox(key).jumped(index), so
    # the draws are those of jumped(index). Seeks bitgen to indices start ..
    # start + count - 1 in turn, yielding each offset from start, with one
    # state dict whose counter alone changes. The whole range is checked
    # before the first seek: an index past 2**64 - 1 would carry into the
    # counter's top word, so it is refused rather than wrapped.
    start, count = operator.index(start), operator.index(count)
    if not (0 <= start and start + count <= _UINT64):
        which = f"index {start}" if count == 1 else f"indices {start}..{start + count - 1}"
        raise ValueError(f"sample {which} out of range 0..2**64 - 1")
    counter = [0, 0, start, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": (rng.seed, rng.stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for off in range(count):
        counter[2] = start + off
        bitgen.state = state
        yield off


def sample_generator(rng: RngSeed, index: int) -> np.random.Generator:
    """Independent generator for one sample index.

    It reads the run's Philox stream from counter (0, 0, index, 0), the
    start of a block of 2**128 counter values no other index reaches, so
    parallel workers may partition the index range arbitrarily and still
    reproduce the exact per-sample draws. The index must lie in
    0 .. 2**64 - 1; anything else raises ValueError.
    """
    bitgen = np.random.Philox(key=philox_key(rng))
    next(_seek(bitgen, rng, index))
    return np.random.Generator(bitgen)


def _as_generator(source) -> np.random.Generator:
    if isinstance(source, RngSeed):
        return generator(source)
    if isinstance(source, np.random.Generator):
        return source
    raise TypeError("expected an RngSeed or numpy Generator")


def _orthonormality_residual(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # V V^dag and the max-norm of V V^dag - I for complex rows V on the last
    # two axes: one Gram and one residual per matrix of a stack
    g = v @ v.conj().swapaxes(-1, -2)
    return g, np.abs(g - np.eye(v.shape[-2])).max(axis=(-2, -1))


def _first_failure(ok: np.ndarray):
    # The stack-order index of the first unit whose test ok is False, or None
    # when every unit passes: the one first-failure rule of the stack checks.
    # Tests are written dev <= tol, so a NaN fails. argmin finds the first
    # False, and for one unit costs less than ok.all().
    i = int(ok.argmin()) if ok.size else None
    return None if i is None or ok.flat[i] else i


def _unit_reduce(ufunc, x: np.ndarray, axis) -> np.ndarray:
    # ufunc.reduce(x, axis) for units of a few entries on the trailing axes axis
    # (the rows, columns and 3 x 3 matrices of the order-3 stack checks): one
    # whole-stack ufunc call an entry, the unit's entries in C order, where
    # numpy's axis reduction runs a short inner loop per unit (over 5151 units a
    # 3-entry sum took 82 against 12 us, a 3 x 3 max 201 against 42 us). It
    # reduces into one Fortran-order copy of the first entry, so the stack axis
    # stays innermost where a unit keeps a short axis (an add of two rows of
    # 5151 3 x 3 matrices took 57 us in C order, 11 us so), and makes no
    # temporary an entry. For add, maximum and minimum over 3 entries it has
    # numpy's bits, add starting from its identity as numpy's does, so a sum of
    # -0.0s is +0.0. Over more entries numpy sums pairwise and orders max and
    # min by its own unrolling, so read only max and min there, for their exact
    # values: a zero result may differ in sign. A NaN propagates, its sign bit
    # aside.
    axis = (axis,) if isinstance(axis, int) else tuple(axis)
    lead = np.moveaxis(x, axis, tuple(range(len(axis))))
    entries = lead.reshape((np.prod(lead.shape[: len(axis)], dtype=int),) + lead.shape[len(axis) :])
    out = np.array(entries[0], order="F")
    if ufunc.identity is not None:
        ufunc(ufunc.identity, out, out=out)
    for entry in entries[1:]:
        ufunc(out, entry, out=out, order="F")
    return out[()]


def _clamp_debris(x: np.ndarray, axis: tuple):
    # The one debris rule of the probability checks: x with its entries in
    # [-NEGATIVE_CLAMP, 0) zeroed (x itself if none is negative), each unit's
    # minimum over the trailing axes axis, and whether it is inside the window
    # (a NaN passes, to fail its unit's sum test). Unit minima are taken only
    # when the stack's is beyond the window; else it stands for them all.
    lo = np.minimum.reduce(x, axis=None, initial=0.0)
    if lo >= -NEGATIVE_CLAMP:
        clean = np.ones(x.shape[: x.ndim - len(axis)], dtype=bool)
        return (x if lo == 0.0 else np.where(x < 0.0, 0.0, x)), lo, clean
    lows = np.minimum.reduce(x, axis=axis)
    return np.where(x < 0.0, 0.0, x), lows, ~(lows < -NEGATIVE_CLAMP)


def _unit_normalized(v: np.ndarray) -> np.ndarray:
    # The one row-norm rule of states, sampled or checked: each complex row
    # (last axis) of v divided by its norm, with np.linalg.norm's bits on that
    # row alone; a zero row stays as it is.
    nrm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]
    return np.where(nrm > 0.0, v / nrm, v)


def _unit_rows(psi, dim: int) -> np.ndarray:
    # One state, or a stack of states on its rows, as a 2d complex stack: the
    # one check of a state's dimension and of its squared norm against
    # STATE_NORM_TOL, the first bad row naming its norm
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != dim:
        shown = psi.shape[-1] if psi.ndim in (1, 2) else psi.shape
        raise ValueError(f"state dimension {shown} does not match matrix {dim}")
    rows = np.atleast_2d(psi)
    nrm = np.vecdot(rows, rows).real
    bad = _first_failure(np.abs(nrm - 1.0) <= STATE_NORM_TOL)
    if bad is not None:
        raise ValueError(f"state norm squared {float(nrm[bad])!r} deviates from 1 beyond {STATE_NORM_TOL:g}")
    return rows


def _square_matrix(m) -> np.ndarray:
    # m as a complex array; the one square-shape rule, at least 1 x 1
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.shape[0]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def unitarity_residual(m: np.ndarray) -> float:
    """Max-norm of M M^dag - I; raises on non-square input."""
    return float(_orthonormality_residual(_square_matrix(m))[1])


def is_unitary(m: np.ndarray) -> bool:
    """True iff the max-norm of M M^dag - I is at most UNITARITY_TOL."""
    return unitarity_residual(m) <= UNITARITY_TOL


def require_unitary(m: np.ndarray) -> np.ndarray:
    """Return m as a complex array, or raise naming the violated invariant.

    m is one matrix or a stack (P, N, N) of them. Raises ValueError for a
    non-square or empty (N = 0) m and for a unitarity residual (max-norm of M M^dag - I)
    above UNITARITY_TOL, the first failing matrix of a stack naming its own.
    """
    m = np.asarray(m, dtype=complex)
    _unitary_gram(m if m.ndim == 3 and m.shape[1] == m.shape[2] and m.shape[1] else _square_matrix(m))
    return m


def _unitary_gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The check of require_unitary on a complex square matrix, or on each
    # matrix of a stack (the first failing one names the residual), returning
    # M M^dag and its residual for callers that reuse them
    g, resid = _orthonormality_residual(m)
    bad = _first_failure(resid <= UNITARITY_TOL)
    if bad is not None:
        raise ValueError(f"unitarity residual {resid.flat[bad]:.3e} exceeds tolerance {UNITARITY_TOL:g}")
    return g, resid


def largest_singular_value(a: np.ndarray) -> float:
    """Spectral norm of a, via eigendecomposition of the smaller Gram matrix.

    Parameters
    ----------
    a : array_like
        Any complex m x n matrix.

    Returns
    -------
    float
        sigma_max(a) = sqrt(lambda_max(a a^dag)), nonnegative.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2d array")
    if a.shape[0] <= a.shape[1]:
        g = a @ a.conj().T
    else:
        g = a.conj().T @ a
    return float(_gram_norm(g))


def _gram_norm(g: np.ndarray) -> np.ndarray:
    # sqrt(lambda_max(g)): the spectral norm of a, for g = a a^dag or a^dag a;
    # one per matrix of a stack
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0))


def _check_index_set(idx, bound: int, label: str) -> np.ndarray:
    # the entries are read as given, so 0.9 is refused, not truncated to 0
    arr = np.asarray(idx)
    if arr.ndim != 1 or arr.size == 0:
        raise IndexError(f"{label} index set must be a nonempty 1d sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        raise IndexError(f"{label} indices must be integers")
    arr = arr.astype(int, copy=False)
    if arr.min() < 0 or arr.max() >= bound:
        raise IndexError(f"{label} index out of range for bound {bound}")
    if arr.size > 1 and np.any(np.diff(arr) <= 0):
        raise IndexError(f"{label} indices must be strictly increasing")
    return arr


def submatrix(m: np.ndarray, row_idx, col_idx) -> np.ndarray:
    """Block of m selected by strictly increasing row/column index sets."""
    m = np.asarray(m)
    rows = _check_index_set(row_idx, m.shape[0], "row")
    cols = _check_index_set(col_idx, m.shape[1], "col")
    return m[np.ix_(rows, cols)].copy()


# --- file format ------------------------------------------------------------
#
# Shared matrix format: {"rows": n, "cols": n, "re": [[...]], "im": [[...]]},
# row-major decimal floats. Readers reject NaN/Inf.


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2d array")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _require_numbers(value, key: str) -> None:
    # numpy would read true as 1.0 and "1" as 1.0, and raise TypeError on {};
    # what is not a list of rows is left to the shape check
    for row in value if isinstance(value, list) else [value]:
        for x in row if isinstance(row, list) else [row]:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"{key} entries must be JSON numbers, not {type(x).__name__}")


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix json must be an object")
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix json missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    # bool is an int subclass; JSON true/false are not dimensions
    if any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in (rows, cols)):
        raise ValueError("rows and cols must be positive integers")
    for key in ("re", "im"):
        _require_numbers(obj[key], key)
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except OverflowError:  # a JSON integer past the float range
        raise ValueError("matrix entries must be finite (NaN/Inf rejected)") from None
    except ValueError:  # ragged rows, which numpy refuses with its own text
        raise ValueError("re/im arrays do not match rows x cols") from None
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError("re/im arrays do not match rows x cols")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite (NaN/Inf rejected)")
    return re + 1j * im


def _reject_nonfinite(token: str):
    raise ValueError(f"non-finite constant {token!r} rejected in matrix file")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh, parse_constant=_reject_nonfinite)
    return matrix_from_json(obj)


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")
