"""Maximal spectral norms over submatrix shapes of a unitary.

For an N x N unitary the coefficient s_k is the largest spectral norm
among all submatrices whose shape (m, n) has semiperimeter m + n = k + 1.
The derived r_k = ((1 + s_k) / 2)^2 feed the bound construction.

One vectorized enumeration, ``s_coefficients_batch``, computes the chain
for a stack of unitaries; ``_checked_coefficients`` validates every matrix
of a stack before it, and ``s_coefficients`` runs one matrix as a stack of
one. Vector strips reduce to sorted cumulative sums of
squared moduli. A block's Gram is a principal submatrix of the N x N Gram
of its column set, and one matmul against a 0/1 indicator matrix gives
those for every column set. Top eigenvalues of 2x2 and 3x3 Grams are taken
in closed form (3x3 by the trigonometric Cardano form, with an eigvalsh
fallback near a double top eigenvalue), larger ones by eigvalsh. Each
class runs over sub-chunks of the stack's matrices and of its row sets,
sized so that what one keeps live fits _CHUNK_ELEMENTS, about one core's
L2 cache: in the closed forms on a stack, the column Grams take a quarter
of it and the gathered entries and their temporaries the rest, while a
stack of one and the pruned classes let each part fill it. Chunking never
changes s, since every block's value is computed on its own and a class
keeps only each matrix's maximum.

The kernel works on squared norms lambda = sigma^2: each class yields
its largest block-Gram top eigenvalue (a strip, its largest sum of squared
moduli), and s_k = sqrt(max lambda) is taken once per k; sqrt is monotone
and correctly rounded, so that is the largest norm.

Classes with min(m, n) >= 4 are pruned before eigvalsh, since only each
class's maximum is used, in one pass over sub-chunks of row sets. The test
keeps the blocks whose upper bound ub on lambda_max reaches the floor
within PRUNE_SLACK (a NaN bound is kept). It bounds a block (R, C), |R| =
m, by its complementary columns C': the Grams G of U[R, C] and F of U[R,
C'] add up to I + E, E = (U U^dag - I)[R, R], so lambda_max(G) <= 1 + e -
lambda_min(F) <= 1 + e - det F / (1 + e)^(m-1), where |E|_2 <= e = N
UNITARITY_TOL for a unitary within that tolerance (see UNITARITY_TOL) and
F's eigenvalues are at most 1 + e. By Cauchy-Binet det F is the sum of
|det U[R, S]|^2 over the m-subsets S of C', and one table of squared
minors per row sub-chunk serves every column set. Where the floor is near
1, as at the larger k, this leaves a few blocks in a thousand, and only
those are gathered, each as the upper triangle of its Gram at the row
set's pair positions, as the closed forms gather theirs, for eigvalsh to
read. The floor of a matrix is the exact maximum lambda already found for
the same k (strips and smaller classes run first), so it is known before
the class starts and nothing is stored between sub-chunks; a zero floor
keeps every block, since the bound is at least 0. This leaves s
bit-identical: eigvalsh works on one matrix at a time, so a surviving
block gets the same value as without pruning, and a block whose top
eigenvalue is above the floor has ub >= lambda_max > floor, up to rounding
far below PRUNE_SLACK (each minor is a sum of products of entries of
modulus at most 1), so it always survives. The floor enters only that
test, never the returned maximum.

``_class_plan`` lists, once per N and translation symmetry, the blocks
the kernel visits, by four reductions. Two are exact: every shape with
m + n > N contains a full row or column of some unitary completion and
has norm exactly 1, and at m + n = N a block and its complementary block
share their largest singular value, so class N runs m <= n only and the
shape (N/2, N/2) runs the row sets containing index 0 (unless its row
sets are reduced as below).

A third reduction holds up to rounding. A circulant U, such as P_N^beta,
has U[i + a, j + a] = U[i, j], and F_N has F[i + a, j + b] = x_i F[i, j]
y_j for unit phases x, y; every translate (R + a, C + b) of a block then
has the block's norm, and the kernel visits one block per orbit. The
detection rule, ``_translation_symmetry``, runs once per stack: generator
(1, 0), (0, 1) or (1, 1) holds when each of its powers maps every matrix
to a translate W = diag(x) U diag(y) with max-norm residual at most
SYMMETRY_TOL. Moduli are compared before any phase is fitted, and matrix
0 before the rest, so a Haar draw, or a stack led by one, costs one
comparison; one matrix without the symmetry sends its whole stack down
the full enumeration. Where the row (column) shift holds, the row (column)
sets take one representative per rotation orbit, the necklaces of
``_necklaces``; F_N has both. Where only the diagonal shift holds, as for
circulants, dephased or not, the smaller side of the shape takes them and
the other side takes every subset. The strips are unchanged. The maximum
over the representatives is within 2 ((k + 1) / 2) SYMMETRY_TOL of the
full enumeration's s_k, plus rounding (see SYMMETRY_TOL); in practice a
few ulps below it, since translates differ only by rounding.

A fourth reduction holds up to the input's unitarity residual. With C'
the complement of a column set C, G_C + G_C' = U U^dag, so on a row set R
G_C[R, R] = I - G_C'[R, R] + E with E = (U U^dag - I)[R, R], and by Weyl
lambda_max(G_C[R, R]) is within |E|_2 of 1 - lambda_min(G_C'[R, R]). For
|R| = 2 or 3 that is at most |R| r, r the max-norm unitarity residual; by
rows on U^T, r is that of U^dag U - I instead. So a (2, n) or (3, n)
class with N - n < n <= N - |R| is not enumerated: its maximum is 1 minus
the least bottom eigenvalue of the (|R|, N - n) blocks, which ran at a
smaller k on the same row sets and the complementary column sets, and
(n, 2) and (n, 3) are taken from (N - n, 2) and (N - n, 3) likewise. A
closed-form class whose column complement has its own shape, (2, N/2),
(3, N/2) and their transposes (by row complements), is self-complementary,
its own source: it visits only the column (row) sets containing index 0
and takes both roots, the bottom ones serving the complementary sets,
unless a translation symmetry already reduces that side. Under a translation
symmetry the complements of one block per orbit are again one block per
orbit. ``_top_eig_2x2`` and ``_top_eig_3x3`` return the bottom
eigenvalue from the same terms as the top one, so the sources' own maxima
keep their bits, and s moves only at the k of a served or
self-complementary class, by at most 2 r or 3 r in lambda (see
UNITARITY_TOL). The Cardano bottom root loses accuracy near a double
bottom eigenvalue as the top one does near a double top, and has an
eigvalsh fallback of its own (see CARDANO_MIN_GAP).

``max_norm_over_shape`` enumerates index pairs one by one through
``largest_singular_value``; it is the independent slow oracle the
enumeration and every reduction are checked against in the tests.
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
    SYMMETRY_TOL,
    UNITARITY_TOL,
    _first_failure,
    _gram_norm,
    _square_matrix,
    _unitary_gram,
    largest_singular_value,
)

# Exhaustive enumeration scales as sum over shapes of C(N,m) C(N,n), about
# 6x per step in N here. One s_coefficients call on a Haar draw, each in a
# fresh process (2-core Xeon, one BLAS thread, a box whose speed swings by
# up to 1.5x between runs hours apart; three processes each), took 43-47 ms
# at N = 10, 0.14-0.17 s at N = 11 and 0.65-0.66 s at N = 12, at 42, 43 and
# 44 MB peak RSS. Inputs with translation symmetry visit one block per
# orbit: on the same box, F_N took 9, 20 and 75-78 ms at N = 10, 11 and 12,
# and P_N^(1/2) 15-16, 48-52 and 169-197 ms. Beyond this size the caller
# must opt in explicitly.
MAX_ENUMERATION_DIM = 12

# Budget, in float64 elements, for what one sub-chunk of a block class keeps
# live: 250,000 elements, 2 MB, one core's L2 on the 2-core Xeon the timings
# here come from. Per matrix, the column Grams (re and im) hold N (N + 1) C
# elements for C column sets, and building them holds the gathered pairs and
# their products, 3.5-4 N^2 (N + 1) elements whatever C (tracemalloc, N =
# 4-8), so a matrix counts as N (N + 1) max(2N, C) elements: building is at
# most four times that. Per block, a row sub-chunk holds 3 m^2 elements in
# the closed forms (the 2 x 3 or 2 x 6 gathered Gram entries and at most 6
# or 15 temporaries of _top_eig_2x2 or _top_eig_3x3; tracemalloc reads
# peaks of 4 and 12, with or without the bottom eigenvalue) and 8 in the
# pruned classes (the complement bound, its sum, the keep mask and the
# indices of the blocks that pass), plus 10 C(N, m) per row set for its
# squared minors (a level of complex minors, its two gathered operands and
# their product). The Grams of the blocks that pass go to eigvalsh in pieces
# of _CHUNK_ELEMENTS // (4 m (m + 1)) blocks: a block holds its complex Gram
# (2 m^2 elements), its upper triangle's pair positions and real and
# imaginary parts (1.5 m (m + 1)) and its m eigenvalues, at most 4 m (m + 1).
# _block_max sizes the sub-chunks by one of two rules:
# - closed forms (m = 2, 3) on a stack of two or more matrices: the class's
#   own arrays (best and least per matrix, the indicator, the entry
#   positions) come off the budget first. A batch sub-chunk's Grams take at
#   most a quarter of the rest, so that building them fits it, and its row
#   sub-chunks take what the Grams leave. A row sub-chunk's eigenvalues are
#   freed before the next one gathers, or the next batch sub-chunk builds
#   its Grams. The last Grams stay live while the next are built: the two
#   peak at about 3.8 times one sub-chunk's Grams (tracemalloc, N = 4),
#   inside the quarter. Freeing them first cost fresh pages, 4236 against
#   1414 page faults and 25 against 19 ms per kernel call on 300 draws at
#   N = 6. Batched kernel per matrix, 2048 Haar draws at n = 4-6 and 256 at
#   n = 7, one BLAS thread, median CPU time of 9 interleaved runs, against
#   the second rule: 3.84 -> 3.07, 10.6 -> 9.1, 53.4 -> 39.4 and 329 -> 254
#   us;
# - the pruned classes (m >= 4), and the closed forms on a stack of one: the
#   Grams of a batch sub-chunk, a row sub-chunk at the counts above (at m^2
#   elements a block in the closed forms) and an eigvalsh piece may each
#   fill the whole budget. A stack of one's row sub-chunks cut to a quarter
#   made one bounds report at N = 8-10 15-20% slower.
_CHUNK_ELEMENTS = 250_000


@dataclass(frozen=True)
class SubmatrixCoefficients:
    """The vectors s_1..s_N and r_k = ((1+s_k)/2)^2 for one unitary, or one row each for a stack."""

    n: int
    s: np.ndarray
    r: np.ndarray


def max_norm_over_shape(u: np.ndarray, m: int, n: int) -> float:
    """Largest spectral norm over every m x n submatrix of u.

    Exhaustive over all C(N,m) * C(N,n) row/column selections; this is
    the reference oracle the vectorized path is tested against.
    """
    u = _square_matrix(u)
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
def _necklaces(dim: int, k: int) -> np.ndarray:
    # One k-subset of range(dim) per orbit of the rotation i -> i + 1 mod dim:
    # those whose bitmask is the least of its dim rotations, in
    # _combinations order; cached, so read-only. int64 masks hold dim <= 62,
    # far past any size the enumeration can reach.
    combos = _combinations(dim, k)
    masks = (1 << combos).sum(axis=1, keepdims=True)
    r = np.arange(dim)
    turns = ((masks << r) | (masks >> (dim - r))) & ((1 << dim) - 1)
    out = combos[masks[:, 0] == turns.min(axis=1)]
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


def _indicator(dim: int, cols: np.ndarray) -> np.ndarray:
    # The 0/1 matrix, N x len(cols), whose column c marks the column set cols[c].
    out = np.zeros((dim, len(cols)))
    np.put_along_axis(out, cols.T, 1.0, axis=0)
    return out


def _column_grams(u3: np.ndarray, indicator: np.ndarray):
    """Upper triangles of the N x N Grams U[:, C] U[:, C]^dag, C a set of ``indicator``.

    Entry (i, j) of such a Gram is the sum over c in C of U[i, c] conj(U[j, c]),
    so all subsets come out of a matmul of the per-column outer products
    with the 0/1 indicator matrix of the subsets (``_indicator``). Returns
    the real and imaginary parts, shape (batch, N(N+1)/2, column sets),
    indexed by pair (i, j), i <= j, in ``_triu(N)`` order.
    """
    iu, ju, _ = _triu(u3.shape[1])
    a, b = u3[:, iu], u3[:, ju]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    # Real arithmetic, since numpy's complex multiply does not round alike at
    # every array size; and stacked products, one small matmul per matrix,
    # since a single (batch * pairs) x N product may round differently with
    # the batch size. So a matrix's Grams do not depend on its batch.
    return (ar * br + ai * bi) @ indicator, (ai * br - ar * bi) @ indicator


def _top_eig_2x2(re, im, low=False):
    # lambda_max = h + r; with low, also lambda_min = h - r from the same h
    # and r, so lambda_max has the same bits either way
    a, d = re[0], re[2]
    h = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + re[1] ** 2 + im[1] ** 2)
    return (h + r, h - r) if low else h + r


def _top_eig_3x3(re, im, low=False):
    # Trigonometric form of the cubic's roots (O. K. Smith, CACM 4(4), 1961):
    # with q = tr/3 and 6 p^2 = |G - qI|_F^2, lambda_max = q + 2p cos(phi) and
    # lambda_min = q + 2p cos(phi + 2 pi/3), where cos(3 phi) = r = det(G - qI)
    # / (2 p^3) and 0 <= phi <= pi/3. With low, also returns lambda_min, from
    # the same q, p and phi, so lambda_max has the same bits either way. The
    # triu entries are (0,0), (0,1), (0,2), (1,1), (1,2), (2,2).
    q = (re[0] + re[3] + re[5]) / 3.0
    x, y, z = re[0] - q, re[3] - q, re[5] - q
    a01 = re[1] ** 2 + im[1] ** 2
    a02 = re[2] ** 2 + im[2] ** 2
    a12 = re[4] ** 2 + im[4] ** 2
    p = np.sqrt((x * x + y * y + z * z + 2.0 * (a01 + a02 + a12)) / 6.0)
    # 2 Re(g01 g12 conj(g02))
    cyc = 2.0 * ((re[1] * re[4] - im[1] * im[4]) * re[2] + (re[1] * im[4] + im[1] * re[4]) * im[2])
    det = x * y * z + cyc - x * a12 - y * a02 - z * a01
    del x, y, z, a01, a02, a12, cyc
    with np.errstate(divide="ignore", invalid="ignore"):
        r = det / (2.0 * p**3)
    del det
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    lam = q + 2.0 * p * np.cos(phi)
    # Near r = -1 the top eigenvalue is nearly double and d(lambda)/dr blows up
    # as 1/sqrt(1 + r), and near r = +1 the bottom one, as 1/sqrt(1 - r);
    # p = 0 (G = qI) gives r = NaN, which fails both tests.
    redo = bad = ~(r > CARDANO_MIN_GAP - 1.0)
    if low:
        phi += 2.0 * np.pi / 3.0
        bottom = q + 2.0 * p * np.cos(phi)
        bad_low = ~(r < 1.0 - CARDANO_MIN_GAP)
        redo = bad | bad_low
    if redo.any():
        eig = np.linalg.eigvalsh(_upper_triangles(re[:, redo], im[:, redo], 3), UPLO="U")
        lam[bad] = eig[bad[redo], -1]
        if low:
            bottom[bad_low] = eig[bad_low[redo], 0]
    return (lam, bottom) if low else lam


def _upper_triangles(re, im, m):
    # Complex m x m matrices from their upper triangles, re and im of shape
    # (m (m + 1) / 2, matrices) in _triu(m) order; the lower triangles stay
    # zero, so only eigvalsh(UPLO="U") may read them
    ti, tj, _ = _triu(m)
    g = np.zeros((re.shape[1], m, m), dtype=complex)
    g.real[:, ti, tj], g.imag[:, ti, tj] = re.T, im.T
    return g


def _top_eig_eigvalsh(g):
    # Top eigenvalues of the pruned classes' surviving Grams, from their upper
    # triangles (see _upper_triangles), as Cardano's fallback reads its own.
    return np.linalg.eigvalsh(g, UPLO="U")[..., -1]


def _may_attain(ub: np.ndarray, thr: np.ndarray) -> np.ndarray:
    # The eigvalsh keep test, written so that a NaN bound keeps its block.
    return ~(ub < thr * (1.0 - PRUNE_SLACK))


@functools.lru_cache(maxsize=64)
def _mask_order(dim: int, k: int):
    # The bitmasks of the k-subsets of range(dim), sorted, and the rank of
    # each in _combinations order; cached, so read-only.
    masks = (1 << _combinations(dim, k)).sum(axis=1)
    order = np.argsort(masks)
    out = masks[order], order
    for a in out:
        a.setflags(write=False)
    return out


def _subset_rank(dim: int, subsets: np.ndarray) -> np.ndarray:
    # Rank in _combinations(dim, k) of each k-subset on the last axis
    masks, order = _mask_order(dim, subsets.shape[-1])
    return order[np.searchsorted(masks, (1 << subsets).sum(axis=-1))]


@functools.lru_cache(maxsize=64)
def _laplace_index(dim: int, k: int):
    # For each k-subset S of range(dim), in _combinations order, and each
    # j < k: the column S[j], and the rank of S without it among the
    # (k - 1)-subsets, shape (k, C(dim, k)) each; cached, so read-only.
    combos = _combinations(dim, k)
    out = (
        np.ascontiguousarray(combos.T),
        np.stack([_subset_rank(dim, np.delete(combos, j, axis=1)) for j in range(k)]),
    )
    for a in out:
        a.setflags(write=False)
    return out


def _squared_minors(u3: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|det U[R, S]|^2 for each row set R of ``rows`` and every |R|-subset S.

    Shape (batch, row sets, C(N, |R|)), S in ``_combinations`` order. The
    minors on R's last j rows come from those on its last j - 1 by Laplace
    expansion along the new first row.
    """
    m, dim = rows.shape[1], u3.shape[1]
    det = u3[:, rows[:, -1], :]
    for k in range(2, m + 1):
        cols, minor = _laplace_index(dim, k)
        lead = u3[:, rows[:, m - k], :]
        nxt = lead[..., cols[0]] * det[..., minor[0]]
        for j in range(1, k):
            term = lead[..., cols[j]] * det[..., minor[j]]
            if j % 2:
                nxt -= term
            else:
                nxt += term
        det = nxt
    return det.real**2 + det.imag**2


def _complement_sets(indicator: np.ndarray, m: int) -> np.ndarray:
    # Ranks among the m-subsets of the m-subsets of the complement of each
    # column set of the _indicator matrix, shape (C(N - n, m), column sets)
    dim, ncols = indicator.shape
    rest = np.nonzero(indicator.T == 0)[1].reshape(ncols, -1)
    return np.ascontiguousarray(_subset_rank(dim, rest[:, _combinations(rest.shape[1], m)]).T)


def _complement_bound(u3: np.ndarray, rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Upper bound on the top eigenvalue of each block Gram from its complementary columns.

    Blocks U[R, C] for R a row of ``rows`` and C a column set, whose
    complement's m-subsets ``sets`` lists as ``_complement_sets`` does.
    Returns 1 + e - det F / (1 + e)^(m-1), shape (batch, row sets, column
    sets), det F the sum of the squared minors on R and those subsets; see
    the module docstring. A NaN entry gives a NaN bound.
    """
    minors = _squared_minors(u3, rows)
    det = minors[..., sets[0]]
    for more in sets[1:]:
        det += minors[..., more]
    e = u3.shape[1] * UNITARITY_TOL
    return (1.0 + e) - det / (1.0 + e) ** (rows.shape[1] - 1)


# Generators of the translations the kernel looks for, as (row, column)
# shifts: the rows alone, the columns alone, and both at once.
_SHIFTS = np.array([(1, 0), (0, 1), (1, 1)])
_SHIFTS.setflags(write=False)


def _translation_symmetry(u3: np.ndarray) -> np.ndarray:
    """Which generator shifts every matrix of the stack keeps, up to phases.

    Returns one bool per row of ``_SHIFTS``. Generator g holds for U when
    every power a g, a = 1..N-1, maps U to a translate W[i, j] =
    U[i + a g_0, j + a g_1] (indices mod N) with W = diag(x) U diag(y) for
    unit phases x, y, up to a max-norm residual of SYMMETRY_TOL. Matrix 0
    is tested first, so a stack led by a Haar draw pays one comparison of
    moduli; a generator holds for the stack only if it holds for every
    matrix. N <= 3 has no block class to reduce, and it and an empty stack
    return all False.
    """
    held = np.zeros(len(_SHIFTS), dtype=bool)
    if u3.shape[1] <= 3 or not len(u3):
        return held
    held = _shifts_hold(u3[:1], ~held)
    if held.any() and len(u3) > 1:
        held = _shifts_hold(u3, held)
    return held


@functools.lru_cache(maxsize=64)
def _shift_index(dim: int) -> np.ndarray:
    # Flat positions in U of the translates W[i, j] = U[i + a g_0, j + a g_1],
    # shape (generators, N - 1, N * N): generator g of _SHIFTS, power a = 1..N-1
    shift = _SHIFTS[:, None, :] * np.arange(1, dim)[:, None]
    idx = np.arange(dim)
    rows, cols = (idx + shift[..., :1]) % dim, (idx + shift[..., 1:]) % dim
    out = (rows[..., :, None] * dim + cols[..., None, :]).reshape(len(_SHIFTS), dim - 1, dim * dim)
    out.setflags(write=False)
    return out


def _shifts_hold(u3: np.ndarray, gens: np.ndarray) -> np.ndarray:
    # _translation_symmetry for the generators marked in gens, every power
    # of each in one stacked array: the moduli first, then the phase fit
    batch, dim = u3.shape[0], u3.shape[1]
    flat = _shift_index(dim)[gens]
    mod = np.abs(u3).reshape(batch, -1)
    ok = (np.abs(mod[:, flat] - mod[:, None, None]) <= SYMMETRY_TOL).all(axis=(0, 2, 3))
    if ok.any():
        w = u3.reshape(batch, -1)[:, flat[ok]].reshape(batch, -1, dim, dim)
        resid = _phase_residual(u3, mod.reshape(u3.shape), w)
        ok[ok] = (resid <= SYMMETRY_TOL).all(axis=0).reshape(-1, dim - 1).all(axis=1)
    held = np.zeros(len(_SHIFTS), dtype=bool)
    held[gens] = ok
    return held


def _phase_residual(u3: np.ndarray, mod: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max |W - diag(x) U diag(y)| for each translate W of each matrix U.

    ``w`` holds the translates, shape (batch, shifts, N, N), and ``mod`` is
    |U|. The unit phases x, y are fitted along a spanning forest of the
    links, the entries of modulus at least 1/(2 sqrt(N)) (each row and
    column of a unitary has one): the lowest row of each connected
    component takes x = 1, and every other row and column takes its phase
    from one link to a row or column fitted before it, so a component's
    phases share one gauge. Any fit would do, since the residual over every
    entry decides; a poor one only sends U down the full enumeration.
    """
    batch, dim = mod.shape[0], mod.shape[1]
    link = mod >= 0.5 / math.sqrt(dim)  # the same for every translate of U
    w, u = np.moveaxis(w, 1, -1), u3[..., None]  # translates last: one gather serves all
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = w * u.conj()
        phase = ratio / np.abs(ratio)  # x_i y_j on the links
    # rows reach each other through shared columns; a root reaches no lower row
    reach = link @ link.swapaxes(1, 2)
    for _ in range(math.ceil(math.log2(dim))):
        reach = reach @ reach
    fit_x = ~np.tril(reach, -1).any(axis=2)
    fit_y = np.zeros((batch, dim), dtype=bool)
    x, y = np.ones((2, batch, dim, w.shape[-1]), dtype=complex)
    b, k = np.arange(batch)[:, None], np.arange(dim)
    for _ in range(dim):
        hit = np.where(link & fit_x[:, :, None], mod, 0.0)
        new_y = ~fit_y & hit.any(axis=1)
        i = hit.argmax(axis=1)  # the largest link of each column to a fitted row
        y = np.where(new_y[..., None], phase[b, i, k] * x[b, i].conj(), y)
        fit_y |= new_y
        hit = np.where(link & fit_y[:, None, :], mod, 0.0)
        new_x = ~fit_x & hit.any(axis=2)
        j = hit.argmax(axis=2)  # the largest link of each row to a fitted column
        x = np.where(new_x[..., None], phase[b, k, j] * y[b, j].conj(), x)
        fit_x |= new_x
        if fit_x.all() and fit_y.all() or not (new_x.any() or new_y.any()):
            break
    return np.abs(w - x[:, :, None] * u * y[:, None]).max(axis=(1, 2))


@functools.lru_cache(maxsize=64)
def _class_plan(dim: int, sym: tuple) -> tuple:
    """The classes ``s_coefficients_batch`` runs at k = 1..N-1, one tuple per k.

    ``sym`` is ``_translation_symmetry``'s result as a tuple of bools. Each
    entry is (m, n, how): how is None for a strip, the source's shape for a
    class served by its complements, and (rows, cols, low) for a class that
    ``_block_max`` enumerates over those row and column sets, low marking a
    source. A self-complementary class is listed twice, enumerated as its
    own source and then served from itself. The reductions are the module
    docstring's. Strips run first, then classes by min(m, n): the maximum so
    far is the floor the m >= 4 classes prune against. Cached, so its arrays
    are the read-only cached subsets.
    """
    by_rows, by_cols, diagonal = sym
    served = {
        shape: source
        for m in (2, 3)
        for q in range(m, (dim + 1) // 2)
        for shape, source in (((m, dim - q), (m, q)), ((dim - q, m), (q, m)))
    }
    plan = []
    for k in range(1, dim):
        entries = []
        # class N runs m <= n only, one of each complementary pair of blocks
        for m, n in sorted(((m, k + 1 - m) for m in range(1, k + 1) if k + 1 < dim or 2 * m <= k + 1), key=min):
            if m == 1 or n == 1:
                entries.append((m, n, None))
                continue
            if (m, n) in served:
                entries.append((m, n, served[m, n]))
                continue
            # the diagonal shift alone reduces the smaller side
            reduce_rows, reduce_cols = (by_rows, by_cols) if by_rows or by_cols or not diagonal else (m <= n, m > n)
            rows = _necklaces(dim, m) if reduce_rows else _combinations(dim, m)
            cols = _necklaces(dim, n) if reduce_cols else _combinations(dim, n)
            # the subsets containing 0 lead the lexicographic table: the
            # half rows of class N, and the half columns (or else rows) of a
            # closed-form class that is its own column (row) complement
            if not reduce_rows and 2 * m == k + 1 == dim:
                rows = rows[: math.comb(dim - 1, m - 1)]
            own = min(m, n) <= 3 and (not reduce_cols if 2 * n == dim else not reduce_rows and 2 * m == dim)
            if own and 2 * n == dim:
                cols = cols[: math.comb(dim - 1, n - 1)]
            elif own:
                rows = rows[: math.comb(dim - 1, m - 1)]
            entries.append((m, n, (rows, cols, own or (m, n) in served.values())))
            if own:
                entries.append((m, n, (m, n)))
        plan.append(tuple(entries))
    return tuple(plan)


def _block_max(u3: np.ndarray, m: int, n: int, floor2: np.ndarray, rows: np.ndarray, cols: np.ndarray, low=False):
    """Max top eigenvalue of the block Grams, lambda = sigma^2, over m x n blocks.

    The blocks are U[R, C] for R a row of ``rows`` (m-subsets) and C a row
    of ``cols`` (n-subsets), as ``_class_plan`` lists them.
    min(m, n) >= 2 required; m > n is taken on the transposes, with the two
    lists swapped. The Gram of block (R, C) is the principal submatrix at R
    of the N x N Gram of the column set C (see ``_column_grams``), and its
    top eigenvalue is taken in closed form for m = 2 and 3, and by eigvalsh
    above. ``floor2`` holds a squared norm per matrix already attained at
    the same k. For m >= 4, eigvalsh skips the blocks whose
    ``_complement_bound`` cannot reach it, and reads the upper triangles of
    the others in pieces (see ``_CHUNK_ELEMENTS``): the result never
    exceeds the maximum over the listed blocks and equals it wherever that
    maximum is above ``floor2``. A zero floor keeps every block.

    With ``low`` (min(m, n) = 2 or 3 only), also returns each matrix's least
    bottom eigenvalue over the same blocks, which a complement class reads.
    """
    if m > n:
        u3, m, n, rows, cols = np.swapaxes(u3, 1, 2), n, m, cols, rows
    batch, dim = u3.shape[0], u3.shape[1]
    ncols = len(cols)
    indicator = _indicator(dim, cols)
    pruned = m >= 4
    # Pair positions of each row set's upper triangle: entries x row sets.
    ti, tj, _ = _triu(m)
    entries = _triu(dim)[2][rows[:, ti], rows[:, tj]].T
    if pruned:
        sets = _complement_sets(indicator, m)
        gstep = max(1, _CHUNK_ELEMENTS // (4 * m * (m + 1)))  # blocks per eigvalsh piece
    else:
        top = _top_eig_2x2 if m == 2 else _top_eig_3x3
    # sub-chunk sizes, in elements per row set: see _CHUNK_ELEMENTS
    span = dim * (dim + 1) * max(2 * dim, ncols)
    budget = _CHUNK_ELEMENTS
    if not pruned and batch > 1:
        budget -= 2 * batch + dim * ncols + entries.size
        bstep, held, width = max(1, budget // (4 * span)), dim * (dim + 1) * ncols, 3 * m * m * ncols
    else:
        bstep, held = max(1, budget // span), 0
        width = 8 * ncols + 10 * math.comb(dim, m) if pruned else m * m * ncols
    best = np.zeros(batch)
    least = np.full(batch, np.inf)
    for b0 in range(0, batch, bstep):
        chunk = slice(b0, b0 + bstep)
        u = u3[chunk]
        # a pruned class builds its Grams only once a block passes the bound
        re, im = (None, None) if pruned else _column_grams(u, indicator)
        rstep = max(1, (budget - len(u) * held) // (len(u) * width))
        for r0 in range(0, rows.shape[0], rstep):
            if not pruned:
                idx = entries[:, r0 : r0 + rstep]
                # the gathered entries are not named, and lam and bottom are
                # deleted, so that they are freed before the next row or
                # batch sub-chunk gathers or builds its own. lam is (row
                # sets, matrices, column sets): reducing the leading axis
                # first runs elementwise over contiguous rows, 3-5x faster
                # than one reduction over axes (0, 2) on the box of the
                # _CHUNK_ELEMENTS timings
                if low:
                    lam, bottom = top(re.swapaxes(0, 1)[idx], im.swapaxes(0, 1)[idx], low=True)
                    least[chunk] = np.minimum(least[chunk], bottom.min(axis=0).min(axis=1))
                    del bottom
                else:
                    lam = top(re.swapaxes(0, 1)[idx], im.swapaxes(0, 1)[idx])
                best[chunk] = np.maximum(best[chunk], lam.max(axis=0).max(axis=1))
                del lam
                continue
            ub = _complement_bound(u, rows[r0 : r0 + rstep], sets)
            b, r, c = np.nonzero(_may_attain(ub, floor2[chunk, None, None]))
            if not b.size:
                continue
            if re is None:
                re, im = _column_grams(u, indicator)
            # the Grams of the blocks that pass, matrix-major, then by row
            # set and column set
            for k0 in range(0, b.size, gstep):
                kb, kc = b[k0 : k0 + gstep], c[k0 : k0 + gstep]
                idx = entries[:, r0 + r[k0 : k0 + gstep]]
                g = _upper_triangles(re[kb, idx, kc], im[kb, idx, kc], m)
                np.maximum.at(best, b0 + kb, _top_eig_eigvalsh(g))
    return (best, least) if low else best


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
    semiperimeter m + n = k + 1. The validated entry: u must be square
    and unitary within UNITARITY_TOL (checked first), at most
    MAX_ENUMERATION_DIM unless ``allow_large``, and of norm at most
    1 + UNITARITY_TOL. The norm bounds
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
    sc = _checked_coefficients(_square_matrix(u)[None], allow_large)
    return SubmatrixCoefficients(n=sc.n, s=sc.s[0], r=sc.r[0])


def _enumeration_guard(dim: int, allow_large: bool) -> None:
    if dim > MAX_ENUMERATION_DIM and not allow_large:
        raise ValueError(
            f"dimension {dim} exceeds the enumeration guard ({MAX_ENUMERATION_DIM}); "
            "pass allow_large=True (--allow-large-n on the command line) to force"
        )


def _checked_coefficients(u3: np.ndarray, allow_large: bool = False) -> SubmatrixCoefficients:
    """``s_coefficients`` for a complex stack (batch, N, N), s and r (batch, N).

    Runs the checks of ``s_coefficients`` on every matrix, in its order and
    with its messages, the first failing matrix naming the value; then one
    ``s_coefficients_batch`` call computes every chain.
    """
    # one Gram per matrix serves the unitarity and norm checks
    gram = _unitary_gram(u3)
    dim = u3.shape[-1]
    _enumeration_guard(dim, allow_large)
    excess = _gram_norm(gram) - 1.0
    bad = _first_failure(excess <= UNITARITY_TOL)
    if bad is not None:
        raise ValueError(f"s_N deviates from 1: the norm of u exceeds 1 by {excess[bad]:.3e}")
    s = s_coefficients_batch(u3)
    return SubmatrixCoefficients(n=dim, s=s, r=((1.0 + s) / 2.0) ** 2)


def s_coefficients_batch(u_batch: np.ndarray) -> np.ndarray:
    """Vectorized s vectors, shape (batch, N), for a stack of unitaries.

    The trusted entry, and the only enumeration: it checks the stack's
    shape but assumes every matrix is unitary (the Haar sampler and
    ``_checked_coefficients`` feed it) and does not limit N. Semiperimeter class
    N + 1 is pinned to exactly 1, and classes 2..N run the entries of
    ``_class_plan`` for the symmetry every matrix of the stack shares. A
    chain that needs a repair larger than UNITARITY_TOL to be monotone and
    <= 1 raises ValueError.
    """
    u_batch = np.asarray(u_batch, dtype=complex)
    if u_batch.ndim != 3 or u_batch.shape[1] != u_batch.shape[2]:
        raise ValueError("expected a stack of square matrices")
    batch, dim = u_batch.shape[0], u_batch.shape[1]
    row_cum, col_cum = _row_col_cumsums(u_batch)
    least = {}  # each source class's least bottom eigenvalue per matrix
    s = np.zeros((batch, dim))
    s[:, dim - 1] = 1.0
    for k, entries in enumerate(_class_plan(dim, tuple(_translation_symmetry(u_batch).tolist())), 1):
        best = np.zeros(batch)  # squared norms
        for m, n, how in entries:
            if how is None:
                lam = (row_cum[:, :, n - 1] if m == 1 else col_cum[:, :, m - 1]).max(axis=1)
            elif len(how) == 2:
                lam = 1.0 - least[how]
            elif how[2]:
                lam, least[m, n] = _block_max(u_batch, m, n, best, how[0], how[1], low=True)
            else:
                lam = _block_max(u_batch, m, n, best, how[0], how[1])
            best = np.maximum(best, lam)
        s[:, k - 1] = np.sqrt(best)
    return _finalize(s)
