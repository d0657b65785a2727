"""Maximal spectral norms over submatrix shapes of a unitary.

For an N x N unitary the coefficient s_k is the largest spectral norm
among all submatrices whose shape (m, n) has semiperimeter m + n = k + 1.
The derived r_k = ((1 + s_k) / 2)^2 feed the bound construction.

One vectorized enumeration, ``s_coefficients_batch``, computes the chain
for a stack of unitaries; ``s_coefficients`` validates one matrix and runs
it as a stack of one. Vector strips reduce to sorted cumulative sums of
squared moduli. A block's Gram is a principal submatrix of the N x N Gram
of its column set, and one matmul against a 0/1 indicator matrix gives
those for every column set. Top eigenvalues of 2x2 and 3x3 Grams are taken
in closed form (3x3 by the trigonometric Cardano form, with an eigvalsh
fallback near a double top eigenvalue), larger ones by eigvalsh.

The kernel works on squared norms lambda = sigma^2: each class yields
its largest block-Gram top eigenvalue (a strip, its largest sum of squared
moduli), and s_k = sqrt(max lambda) is taken once per k; sqrt is monotone
and correctly rounded, so that is the largest norm.

Classes with min(m, n) >= 4 are pruned before eigvalsh, since only each
class's maximum is used, in one pass over sub-chunks of row sets. A block
is held only as the real embedding H = [[A, -B], [B, A]] of its Gram
G = A + iB, gathered once by np.take; H's spectrum is G's, each eigenvalue
twice, so ub = (tr H^(2p) / 2)^(1/2p) is at least lambda_max for every p,
and falls towards it as p grows. One loop squares H; from p = 8 on, each
squaring is followed by a test that keeps the blocks whose ub reaches the
floor within PRUNE_SLACK (a NaN bound is kept), and only those are squared
again, up to p = 64. eigvalsh runs on the blocks that pass every tier, if
any, on G read back from H: A = H[:m, :m], and B = H[m:, :m] holds the
column Gram's own imaginary parts above the diagonal, so the triangle
eigvalsh reads is the Gram's, bit for bit. The floor of a matrix is the
exact maximum lambda already found for the same k (strips and smaller
classes run first), so it is known before the class starts and nothing is
stored between sub-chunks; a zero floor keeps every block. This leaves s
bit-identical: eigvalsh works on one matrix at a time, so a surviving
block gets the same value as without pruning, and a block whose top
eigenvalue is above the floor has ub >= lambda_max > floor at every tier,
up to rounding far below PRUNE_SLACK, so it always survives. The floor
enters only that test, never the returned maximum.

Nothing in the bound overflows or underflows where it matters. The
entries of H^p are at most lambda_max^p <= 1, since G is the Gram of a
block of a unitary. A block that can reach the floor has lambda_max >=
floor >= 1/N (each row of a unitary has an entry of modulus at least
1/sqrt(N)), so tr H^(2p) >= lambda_max^128 >= N^-128 at p = 64, a normal
double for N <= 250. Smaller terms round to subnormals with an absolute
error below 1e-323, far below such a trace.

The enumeration uses two exact reductions: every shape with m + n > N
contains a full row or column of some unitary completion and has norm
exactly 1, and at m + n = N a block and its complementary block share
their largest singular value.

``max_norm_over_shape`` enumerates index pairs one by one through
``largest_singular_value``; it is the independent slow oracle the
enumeration and both reductions are checked against in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    CARDANO_MIN_GAP,
    PRUNE_SLACK,
    UNITARITY_TOL,
    _gram_norm,
    _unitary_gram,
    largest_singular_value,
)

# Exhaustive enumeration scales as sum over shapes of C(N,m) C(N,n), about
# 6x per step in N here. One s_coefficients call on a Haar draw, each in a
# fresh process (2-core Xeon, one BLAS thread), took 0.17-0.28 s at N = 10,
# 0.74-0.95 s at N = 11 and 5.2-5.6 s at N = 12, at 43, 44 and 46-47 MB
# peak RSS.
# Beyond this size the caller must opt in explicitly.
MAX_ENUMERATION_DIM = 12

# Cap on the array elements one chunk of the Gram kernel holds: a memory
# guard, and small enough that a chunk stays in cache (4M ran about 2x
# slower at N = 6 on a Xeon with 2 MB of L2 per core).
_CHUNK_ELEMENTS = 250_000

# Squarings of the real embedding H before the first bound test: three
# give H^8, whose squared Frobenius norm tr H^16 bounds each block's top
# eigenvalue. Survivors are squared and tested again, up to H^64.
_SQUARINGS = 3
_MAX_SQUARINGS = 6


@dataclass(frozen=True)
class SubmatrixCoefficients:
    """The vectors s_1..s_N and r_k = ((1+s_k)/2)^2 for one unitary."""

    n: int
    s: np.ndarray
    r: np.ndarray


def max_norm_over_shape(u: np.ndarray, m: int, n: int) -> float:
    """Largest spectral norm over every m x n submatrix of u.

    Exhaustive over all C(N,m) * C(N,n) row/column selections; this is
    the reference oracle the vectorized path is tested against.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dim = u.shape[0]
    if not (1 <= m <= dim and 1 <= n <= dim):
        raise ValueError(f"shape ({m}, {n}) out of range for dimension {dim}")
    best = 0.0
    for rows in itertools.combinations(range(dim), m):
        sel = u[rows, :]
        for cols in itertools.combinations(range(dim), n):
            best = max(best, largest_singular_value(sel[:, cols]))
    return best


def _row_col_cumsums(u3: np.ndarray):
    # Descending cumulative sums of squared moduli along rows and columns;
    # the squared norm of a 1 x n strip is the sum of the top-n row entries.
    absq = np.abs(u3) ** 2
    row_cum = np.cumsum(np.sort(absq, axis=2)[:, :, ::-1], axis=2)
    col_cum = np.cumsum(np.sort(absq.transpose(0, 2, 1), axis=2)[:, :, ::-1], axis=2)
    return row_cum, col_cum


@functools.lru_cache(maxsize=256)
def _combinations(dim: int, k: int) -> np.ndarray:
    # Every k-subset of range(dim), one per row; cached, so read-only.
    out = np.array(list(itertools.combinations(range(dim), k)), dtype=int)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=256)
def _indicator(dim: int, n: int) -> np.ndarray:
    # dim x C(dim, n) 0/1 matrix; column j marks the j-th n-subset.
    out = np.zeros((dim, math.comb(dim, n)))
    np.put_along_axis(out, _combinations(dim, n).T, 1.0, axis=0)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _triu(dim: int):
    # Upper-triangle pairs (i, j), i <= j, in row-major order, and the map
    # from (i, j) to the pair's position in that order.
    iu, ju = np.triu_indices(dim)
    pos = np.zeros((dim, dim), dtype=int)
    pos[iu, ju] = np.arange(iu.size)
    for a in (iu, ju, pos):
        a.setflags(write=False)
    return iu, ju, pos


def _column_grams(u3: np.ndarray, n: int):
    """Upper triangles of the N x N Grams U[:, C] U[:, C]^dag, every n-subset C.

    Entry (i, j) of such a Gram is the sum over c in C of U[i, c] conj(U[j, c]),
    so all subsets come out of a matmul of the per-column outer products
    with the 0/1 indicator matrix of the subsets. Returns the real and
    imaginary parts, shape (batch, N(N+1)/2, C(N, n)), indexed by pair
    (i, j), i <= j, in ``_triu(N)`` order.
    """
    iu, ju, _ = _triu(u3.shape[1])
    indicator = _indicator(u3.shape[1], n)
    a, b = u3[:, iu], u3[:, ju]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    # Real arithmetic, since numpy's complex multiply does not round alike at
    # every array size; and stacked products, one small matmul per matrix,
    # since a single (batch * pairs) x N product may round differently with
    # the batch size. So a matrix's Grams do not depend on its batch.
    return (ar * br + ai * bi) @ indicator, (ai * br - ar * bi) @ indicator


def _top_eig_2x2(re, im):
    a, d = re[0], re[2]
    return 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + re[1] ** 2 + im[1] ** 2)


def _top_eig_3x3(re, im):
    # Trigonometric form of the cubic's largest root (O. K. Smith, CACM 4(4),
    # 1961): with q = tr/3 and 6 p^2 = |G - qI|_F^2, lambda_max = q + 2p cos(phi)
    # where cos(3 phi) = r = det(G - qI) / (2 p^3). The triu entries are
    # (0,0), (0,1), (0,2), (1,1), (1,2), (2,2).
    q = (re[0] + re[3] + re[5]) / 3.0
    x, y, z = re[0] - q, re[3] - q, re[5] - q
    a01 = re[1] ** 2 + im[1] ** 2
    a02 = re[2] ** 2 + im[2] ** 2
    a12 = re[4] ** 2 + im[4] ** 2
    p = np.sqrt((x * x + y * y + z * z + 2.0 * (a01 + a02 + a12)) / 6.0)
    # 2 Re(g01 g12 conj(g02))
    cyc = 2.0 * ((re[1] * re[4] - im[1] * im[4]) * re[2] + (re[1] * im[4] + im[1] * re[4]) * im[2])
    det = x * y * z + cyc - x * a12 - y * a02 - z * a01
    with np.errstate(divide="ignore", invalid="ignore"):
        r = det / (2.0 * p**3)
    lam = q + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
    # Near r = -1 the top eigenvalue is nearly double and d(lambda)/dr blows up
    # as 1/sqrt(1 + r); p = 0 (G = qI) gives r = NaN, which fails the test too.
    bad = ~(r > CARDANO_MIN_GAP - 1.0)
    if bad.any():
        ti, tj, _ = _triu(3)
        g = np.zeros((np.count_nonzero(bad), 3, 3), dtype=complex)
        g.real[:, ti, tj], g.imag[:, ti, tj] = re[:, bad].T, im[:, bad].T
        lam[bad] = _top_eig_eigvalsh(g)
    return lam


def _top_eig_eigvalsh(g):
    # The kernel's one eigvalsh: top eigenvalues of Hermitian matrices from their
    # upper triangles (G read back from H, or Cardano's fallback via _triu(3)).
    return np.linalg.eigvalsh(g, UPLO="U")[..., -1]


def _embedding(re, im):
    """Column Grams laid out for ``_embedding_index``: [re; im; -im; 0].

    Takes the ``_column_grams`` output, shape (batch, pairs, columns), and
    returns shape (batch, columns, 3 * pairs + 1): ``np.take`` along the last
    axis gathers the embeddings C-contiguous, so reshaping them is a view.
    """
    zero = np.zeros(re.shape[:-2] + (1, re.shape[-1]))
    return np.ascontiguousarray(np.concatenate([re, im, -im, zero], axis=-2).swapaxes(-1, -2))


def _embedding_index(rows: np.ndarray, dim: int) -> np.ndarray:
    """Gather table of the real embeddings H = [[A, -B], [B, A]] of block Grams.

    For each row set R (a row of ``rows``), G = A + iB is the principal
    submatrix at R of a column Gram laid out by ``_embedding``. Returns
    shape (row sets, 2m, 2m): the position of each entry of H in that layout.
    """
    npairs = dim * (dim + 1) // 2
    i, j = np.indices((rows.shape[1],) * 2)
    pair = _triu(dim)[2][rows[:, np.minimum(i, j)], rows[:, np.maximum(i, j)]]
    # B = Im G is im above the diagonal, -im below it and 0 on it
    above, below = i < j, i > j
    b = np.select([above, below], [npairs + pair, 2 * npairs + pair], 3 * npairs)
    return np.block([[pair, b.swapaxes(1, 2)], [b, pair]])  # -B = B^T


def _power_bound(hp: np.ndarray, squarings: int) -> np.ndarray:
    """Upper bound on the top eigenvalue from powers H^p of real embeddings.

    ``hp`` holds H^p, p = 2^squarings, for 2m x 2m embeddings H of PSD
    Grams G on its last two axes. H's spectrum is G's with each eigenvalue
    twice, so tr H^(2p) / 2 bounds lambda_max^(2p) from above. A NaN Gram
    gets a NaN bound.
    """
    tr = np.einsum("...ij,...ij->...", hp, hp)  # tr H^(2p), H^p symmetric
    return (0.5 * tr) ** (1.0 / 2 ** (squarings + 1))


def _may_attain(ub: np.ndarray, thr: np.ndarray) -> np.ndarray:
    # The eigvalsh keep test, written so that a NaN bound keeps its block.
    return ~(ub < thr * (1.0 - PRUNE_SLACK))


def _survivors(h: np.ndarray, floor2: np.ndarray) -> np.ndarray:
    """Flat indices of the blocks whose bound may reach the floor at every tier.

    ``h`` holds the gathered embeddings, shape (batch, columns, row sets, 2m,
    2m), and ``floor2`` each matrix's floor, a squared norm. Index i is block
    i of ``h.reshape(-1, 2m, 2m)``, of matrix i // (columns * row sets). One
    loop squares H; from H^(2^_SQUARINGS) on, each squaring is followed by the
    keep test, and only the blocks that pass it go on, to H^(2^_MAX_SQUARINGS).
    """
    per_matrix = h.shape[1] * h.shape[2]
    h = h.reshape((-1,) + h.shape[3:])
    alive = np.arange(h.shape[0])
    for squarings in range(1, _MAX_SQUARINGS + 1):
        h = h @ h
        if squarings >= _SQUARINGS:
            keep = _may_attain(_power_bound(h, squarings), floor2[alive // per_matrix])
            alive, h = alive[keep], h[keep]
            if not alive.size:
                break
    return alive


def _block_max(u3: np.ndarray, m: int, n: int, floor2: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Max top eigenvalue of the block Grams, lambda = sigma^2, over m x n blocks.

    min(m, n) >= 2 required; m > n is taken on the transposes. The Gram of
    block (R, C) is the principal submatrix at R of the N x N Gram of the
    column set C (see ``_column_grams``), and its top eigenvalue is taken in
    closed form for m = 2 and 3, and by eigvalsh above. ``rows`` restricts
    the row selections of an m <= n shape (used by the complement
    reduction); columns always range over all C(N, n) subsets. ``floor2``
    holds a squared norm per matrix already attained at the same k. For
    m >= 4, eigvalsh skips the blocks whose ``_power_bound`` cannot reach
    it: the result never exceeds the class maximum and equals it wherever
    that maximum is above ``floor2``. A zero floor keeps every block.
    """
    if m > n:
        u3, m, n = np.swapaxes(u3, 1, 2), n, m
    batch, dim = u3.shape[0], u3.shape[1]
    if rows is None:
        rows = _combinations(dim, m)
    ncols = math.comb(dim, n)
    hidx = _embedding_index(rows, dim) if m >= 4 else None
    if hidx is None:
        # Pair positions of each row set's upper triangle: entries x row sets.
        ti, tj, _ = _triu(m)
        entries = _triu(dim)[2][rows[:, ti], rows[:, tj]].T
        top = _top_eig_2x2 if m == 2 else _top_eig_3x3
    # elements a block holds in a row sub-chunk: its Gram entries for the
    # closed forms, H and its powers (4 m^2 each) for the power bound
    width = m * m if hidx is None else 16 * m * m
    best = np.zeros(batch)
    bstep = max(1, _CHUNK_ELEMENTS // (dim * (dim + 1) * max(dim, ncols)))
    for b0 in range(0, batch, bstep):
        chunk = slice(b0, b0 + bstep)
        re, im = _column_grams(u3[chunk], n)
        src = None if hidx is None else _embedding(re, im)
        rstep = max(1, _CHUNK_ELEMENTS // (re.shape[0] * ncols * width))
        for r0 in range(0, rows.shape[0], rstep):
            if hidx is None:
                idx = entries[:, r0 : r0 + rstep]
                lam = top(re[:, idx].swapaxes(0, 1), im[:, idx].swapaxes(0, 1))
                best[chunk] = np.maximum(best[chunk], lam.max(axis=(1, 2)))
                continue
            h = np.take(src, hidx[r0 : r0 + rstep], axis=2)
            alive = _survivors(h, floor2[chunk])
            if alive.size:
                kept = h.reshape(-1, 2 * m, 2 * m)[alive]
                g = np.empty((alive.size, m, m), dtype=complex)
                g.real, g.imag = kept[:, :m, :m], kept[:, m:, :m]
                np.maximum.at(best, b0 + alive // (ncols * h.shape[2]), _top_eig_eigvalsh(g))
    return best


def _finalize(s: np.ndarray) -> np.ndarray:
    # Rounding may break monotonicity or push past 1 by an ulp or two; a
    # larger repair (or a NaN) means a non-unitary input or a kernel fault.
    fixed = np.maximum.accumulate(np.minimum(s, 1.0), axis=-1)
    repair = float(np.abs(fixed - s).max(initial=0.0))
    if not repair <= UNITARITY_TOL:
        raise ValueError(
            f"s needs a repair of {repair:.3e} to be monotone and <= 1 "
            f"(tolerance {UNITARITY_TOL:g})"
        )
    return fixed


def s_coefficients(u: np.ndarray, allow_large: bool = False) -> SubmatrixCoefficients:
    """Compute (s_1..s_N) and (r_1..r_N) for a unitary u.

    s_k maximizes the spectral norm over all submatrices with
    semiperimeter m + n = k + 1. The validated entry: u must be square,
    at most MAX_ENUMERATION_DIM unless ``allow_large``, unitary within
    UNITARITY_TOL, and of norm at most 1 + UNITARITY_TOL. The norm bounds
    every block, so that check stands in for s_N = 1, which the kernel
    pins and downstream code relies on. Near-unitary matrices are rejected
    rather than accepted with degraded guarantees.

    Parameters
    ----------
    u : array_like
        Square unitary matrix.
    allow_large : bool
        Permit dimensions above MAX_ENUMERATION_DIM (combinatorial cost).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dim = u.shape[0]
    if dim > MAX_ENUMERATION_DIM and not allow_large:
        raise ValueError(
            f"dimension {dim} exceeds the enumeration guard "
            f"({MAX_ENUMERATION_DIM}); pass allow_large=True to force"
        )
    # one Gram of u serves the unitarity check and the norm check
    excess = _gram_norm(_unitary_gram(u)) - 1.0
    if excess > UNITARITY_TOL:
        raise ValueError(f"s_N deviates from 1: the norm of u exceeds 1 by {excess:.3e}")
    s = s_coefficients_batch(u[None])[0]
    r = ((1.0 + s) / 2.0) ** 2
    return SubmatrixCoefficients(n=dim, s=s, r=r)


def s_coefficients_batch(u_batch: np.ndarray) -> np.ndarray:
    """Vectorized s vectors, shape (batch, N), for a stack of unitaries.

    The trusted entry, and the only enumeration: it checks the stack's
    shape but assumes every matrix is unitary (the Haar sampler and
    ``s_coefficients`` feed it) and does not limit N. Semiperimeter class
    N + 1 is pinned to exactly 1, and class N enumerates only one block of
    each complementary pair. A chain that needs a repair larger than
    UNITARITY_TOL to be monotone and <= 1 raises ValueError.
    """
    u_batch = np.asarray(u_batch, dtype=complex)
    if u_batch.ndim != 3 or u_batch.shape[1] != u_batch.shape[2]:
        raise ValueError("expected a stack of square matrices")
    batch, dim = u_batch.shape[0], u_batch.shape[1]
    row_cum, col_cum = _row_col_cumsums(u_batch)
    s = np.zeros((batch, dim))
    s[:, dim - 1] = 1.0
    for k in range(1, dim):
        # best holds squared norms. Strips and closed-form classes run
        # first: their maximum is the floor that lets the m >= 4 classes skip
        # most of their blocks. Class N runs m <= n only (the complements).
        best = np.zeros(batch)
        for m, n in sorted(((m, k + 1 - m) for m in range(1, k + 1) if k + 1 < dim or 2 * m <= k + 1), key=min):
            if m == 1:
                lam = row_cum[:, :, n - 1].max(axis=1)
            elif n == 1:
                lam = col_cum[:, :, m - 1].max(axis=1)
            else:
                # self-complementary shape: row sets containing index 0
                # meet every complementary pair exactly once
                half = m == n and k + 1 == dim
                rows = np.insert(_combinations(dim - 1, m - 1) + 1, 0, 0, axis=1) if half else None
                lam = _block_max(u_batch, m, n, best, rows)
            best = np.maximum(best, lam)
        s[:, k - 1] = np.sqrt(best)
    return _finalize(s)
