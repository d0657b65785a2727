"""Maximal spectral norms over submatrix shapes of a unitary.

For an N x N unitary the coefficient s_k is the largest spectral norm
among all submatrices whose shape (m, n) has semiperimeter m + n = k + 1.
The derived r_k = ((1 + s_k) / 2)^2 feed the bound construction.

One vectorized enumeration, ``s_coefficients_batch``, computes the chain
for a stack of unitaries; ``_checked_coefficients`` validates every matrix
of a stack before it, and ``s_coefficients`` runs one matrix as a stack of
one. It works on squared norms lambda = sigma^2, one per matrix and k: the
strips fill every k at once from sorted cumulative sums of squared moduli,
each enumerated class raises its own k by its largest block-Gram top
eigenvalue, and s = sqrt(lambda) is taken as each matrix leaves the rung
loop; sqrt is monotone and correctly rounded, so that is the largest norm.
The strips sort the rows and columns of every matrix of the stack at
once through one comparator network, Batcher's merge exchange in the
form of Knuth's Algorithm M (see ``_strip_maxima``).
A block's Gram is a principal submatrix of the N x N Gram of its column
set, and one matmul against a 0/1 indicator matrix gives those for every
column set. A class runs one of two kernels, on U, or on U^T where its
blocks have more rows than columns. ``_closed_form_max`` runs the classes
with min(m, n) = 2 or 3 and takes the top and bottom eigenvalues of their
Grams in closed form (3x3 by the trigonometric Cardano form, with an
eigvalsh fallback near a double eigenvalue); ``_pruned_max`` runs the
larger ones through eigvalsh. Each runs over sub-chunks of the stack's
matrices and of its row sets, sized against _CHUNK_ELEMENTS, about one
core's L2 cache, a target that a class may exceed (see there). Chunking
never changes s, since every block's value is computed on its own and a
class keeps only each matrix's maximum.

``_pruned_max`` prunes its blocks before eigvalsh, since only each
class's maximum is used, in one pass over sub-chunks of row sets. It bounds
a block (R, C), |R| = m, by its complementary columns C': the Grams G of
U[R, C] and F of U[R, C'] add up to I + E, E = (U U^dag - I)[R, R], so
lambda_max(G) <= 1 + e - lambda_min(F), where |E|_2 <= e = N UNITARITY_TOL
for a unitary within that tolerance (see UNITARITY_TOL). Both tiers are
lower bounds mu on lambda_min(F), and one test, ``_may_attain``, keeps a
block unless mu > gap = 1 + e - floor (1 - PRUNE_SLACK), computed once per
matrix and class: only then is 1 + e - mu below the floor within
PRUNE_SLACK. A NaN mu keeps its block. The det tier's mu is det F / (1 +
e)^(m-1), as F's eigenvalues are at most 1 + e; by Cauchy-Binet det F is
the sum D of |det U[R, S]|^2 over the m-subsets S of C', and one table of
squared minors on the class's row sets serves every column set, and on a
stack of one every class with those row sets (see ``_CallTables``). The
tier compares D with gap (1 + e)^(m-1) and forms no bound. Where the floor
is near 1, as at the larger k, it leaves a few blocks in a thousand.

The AM-GM step reads D and the trace T = tr F, the sum of |U[i, j]|^2 over
i in R and j in C', on those blocks alone. F is positive semidefinite with
eigenvalues mu_1 <= ... <= mu_m, and AM-GM on the other m - 1 gives D <=
mu_1 ((T - mu_1) / (m - 1))^(m-1) <= mu_1 (T / (m - 1))^(m-1), so mu_1 >=
D ((m - 1) / T)^(m-1); neither D nor T leans on the unitarity tolerance,
which enters only through Weyl's 1 + e. T = 0 forces F = 0 and D = 0, and
the NaN that 0 inf gives keeps the block. At N = 10 the step leaves 554 of
P10^(1/2)'s 1410 blocks and 11 of 182 of a Haar draw, and only those are
gathered, each as the upper triangle of its Gram at the row set's pair
positions, as the closed forms gather theirs, for eigvalsh to read.

The floor of a matrix is the exact maximum lambda already found for the
same k (the strips, the classes served from a smaller k and the smaller
classes come first), so it is known before the class starts and nothing
is stored between sub-chunks; a zero floor keeps every block, since
lambda_min(F) <= 1 + e. This leaves s bit-identical: eigvalsh works on one
matrix at a time, so a surviving block gets the same value as without
pruning, and a block whose top eigenvalue is above the floor has mu <=
lambda_min(F) <= 1 + e - floor, floor PRUNE_SLACK below gap, so it always
survives up to rounding. Rounding stays far below that margin, as a floor
is at least 1/N (the strips): a squared minor is a sum of products of
entries of modulus at most 1, right to about m! ulps of the product of its
rows' squared norms on C', at most (T / m)^m, and D sums C(N - n, m) of
them, so mu is right to about C(N - n, m) m! ulps; T's few ulps, raised to
m - 1, add a few relative ulps, and the threshold form (gap and its
product with (1 + e)^(m-1)) a few ulps of 1. That is about 1e-12 at N =
12, against PRUNE_SLACK / N, 8e-11 there. T comes from a matmul of |U|^2
per batch sub-chunk, so it may round differently with the batch size:
that changes only which blocks reach eigvalsh, never s. The floor enters
only the test, never the returned maximum.

``_class_plan`` lists, once per N, translation symmetry and rung k, each
class of rung k the kernels enumerate, once, with the row and column sets
it visits; strips and the classes served by complements (below) have no
entry. Each entry also carries the tables its kernel reads, in the
kernel's orientation (row and column sets swapped for U^T): the column
sets' indicator matrix, each row set's pair positions in the N x N Grams,
and for a pruned class the ranks of its complement sets. They are built
with the rung's plan and cached with it, so a call builds none of them
for a rung it has met before, and a chain that stops early builds only
the rungs it reaches, and the next. The sets come from four
reductions. Two are exact: every shape with m + n > N contains a
full row or column of some unitary completion and has norm exactly 1, and
at m + n = N a block and its complementary block share their largest
singular value, so class N runs m <= n only and the shape (N/2, N/2) runs
the row sets containing index 0 (unless its row sets are reduced as
below).

A third reduction holds up to rounding. A circulant U, such as P_N^beta,
has U[i + a, j + a] = U[i, j], and F_N has F[i + a, j + b] = x_i F[i, j]
y_j for unit phases x, y; every translate (R + a, C + b) of a block then
has the block's norm, and the kernel visits one block per orbit. The
detection rule, ``_translation_symmetry``, runs once per stack: generator
(1, 0), (0, 1) or (1, 1) holds when its one step T maps every matrix to a
translate W = TU = diag(x) U diag(y) + R with max-norm residual |R| at
most SYMMETRY_TOL. One step is enough, since steps compose: T^a U is then
D U D' + R_a for unit diagonals D, D' with |R_a| <= |a| |R|, and T^-1
has residual |R| too. Moduli are compared before any phase is fitted, and
matrix 0 before the rest, so a Haar draw, or a stack led by one, costs
one comparison; one matrix without the symmetry sends its whole stack
down the full enumeration. Where the row (column) shift holds, the row
(column) sets take one representative per rotation orbit, the necklaces
of ``_necklaces``; F_N has both. Where only the diagonal shift holds, as
for circulants, dephased or not, the smaller side of the shape takes them
and the other side takes every subset. The strips are unchanged. Every
translate is within floor(N/2) steps of its orbit's representative, by
rows and by columns each where both are reduced, so the maximum over the
representatives is within 2 ((k + 1) / 2) floor(N/2) SYMMETRY_TOL of the
full enumeration's s_k, plus rounding (see SYMMETRY_TOL); in practice a
few ulps below it, since translates differ only by rounding.

A fourth reduction holds up to the input's unitarity residual. With C' the
complement of a column set C, G_C + G_C' = U U^dag, so on a row set R
G_C[R, R] = I - G_C'[R, R] + E with E = (U U^dag - I)[R, R], and by Weyl
lambda_max(G_C[R, R]) is within |E|_2 of 1 - lambda_min(G_C'[R, R]). For
|R| = 2 or 3 that is at most |R| r, r the max-norm unitarity residual; by
rows on U^T, r is that of U^dag U - I instead. So a (2, n) or (3, n) class
with N - n < n <= N - |R| is not enumerated: its maximum is 1 minus the
least bottom eigenvalue of the (|R|, N - n) blocks, the same row sets on
the complementary column sets, and (n, 2) and (n, 3) are taken from
(N - n, 2) and (N - n, 3) likewise. The source, at a smaller k, names the
served k in its plan entry's ``serves`` and raises that k's lambda to at
least 1 minus its least bottom eigenvalue before any class of that k runs.
A closed-form class whose column complement has its own shape, (2, N/2),
(3, N/2) and their transposes (by row complements), is self-complementary,
its own source (``serves`` its own k): it visits only the column (row)
sets containing index 0, the bottom roots serving the complementary sets,
unless a translation symmetry already reduces that side. Under a
translation symmetry the complements of one block per orbit are again one
block per orbit. ``_top_eig_2x2`` and ``_top_eig_3x3`` return both roots
and ``_closed_form_max`` takes both on every class; only the sources' are
read (the closed-form classes that serve none are those that F_N's three
shifts reduce at even N). So s moves only at the k of a served or
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
from typing import NamedTuple

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
# 6x per step in N here. One s_coefficients call, each in a fresh process
# (2-core Xeon, one BLAS thread, three processes each; the box's speed swings
# by up to 1.5x), took 29-42 ms, 109-118 ms and 0.43-0.50 s at N = 10, 11 and
# 12 on a Haar draw (42-52 MB peak RSS), 3-4, 11-17 and 8-12 ms on F_N, whose
# chain is 1 from k = 6 on at N = 10 and 12, and 16, 41-43 and 124-150 ms on
# P_N^(1/2), whose translation symmetry lets the kernel visit one block per
# orbit (at N = 12 over every block: 60-80 ms and 0.91-0.96 s). Beyond this
# size the caller must opt in explicitly.
MAX_ENUMERATION_DIM = 12

# Sizing target, in float64 elements, for what one sub-chunk of a block
# class keeps live: 250,000 elements, 2 MB, one core's L2 on the 2-core Xeon
# the timings here come from. The rules below size each part against it, not
# their sum (last paragraph). Per matrix, the column Grams (re and im) hold
# N (N + 1) C elements for C column sets, and building them holds the
# gathered pairs and their products, 3.5-4 N^2 (N + 1) elements whatever C
# (tracemalloc, N = 4-8), so a matrix counts as N (N + 1) max(2N, C)
# elements: building is at most four times that. Per block, a row sub-chunk
# holds 3 m^2 elements in the closed forms (the 2 x 3 or 2 x 6 gathered Gram
# entries and at most 6 or 15 temporaries of _top_eig_2x2 or _top_eig_3x3;
# tracemalloc reads peaks of 4 and 12, both roots taken) and 8 in the
# pruned classes (the minor sum, the det tier's masks and the three indices
# of a block that passes it). The AM-GM step adds about 2 m + 5 elements
# per block that passes the det tier (the row indices and complement sums
# it gathers, D, T, mu and their temporaries), and per matrix |U|^2 summed
# over each complement, N C elements, under its Grams' N (N + 1) C.
# A sub-chunk of a larger stack builds the squared minors of each row
# sub-chunk and keeps none, which adds 10 C(N, m) per row set (a level of
# complex minors, its two gathered operands and their product). A batch
# sub-chunk that holds the whole stack, as on a stack of one, reads them
# from the call's tables (_CallTables) instead, which keep one table of
# squared minors per orientation, m and row list, built in pieces of row
# sets of 10 C(N, m) elements: C(N, m) elements per row set and matrix,
# from the table's first reader to its last. At N = 10 the 4-row table (0.35 MB) lives from k = 7
# to 9 and the 5-row one on class N's half rows (0.25 MB) at k = 9; at N =
# 12 the 4- and 5-row tables (2.0 and 5.0 MB) overlap at k = 9-11, and the
# 6-row one (3.4 MB) is built after both are dropped.
# It keeps each orientation's pair products too, N^2 (N + 1) elements a
# matrix, at most an eighth of a closed-form batch sub-chunk's budget, until
# their last reader. tracemalloc peaks of one call at N = 10, 11 and 12,
# against building the minors per row sub-chunk: Haar 5.05, 5.84 and 10.2
# MB (5.03, 5.82 and 6.32), P_N^(1/2) 0.85, 2.37 and 4.41 MB (0.84, 1.84
# and 3.88). Past the guard nothing caps the tables: Haar N = 13 45.6 MB
# (7.8), P14^(1/2) 22.1 MB (10.2).
# The Grams of the blocks that pass go to eigvalsh in pieces of _CHUNK_ELEMENTS // (4 m (m + 1)) blocks: a block
# holds its complex Gram (2 m^2 elements), its upper triangle's pair
# positions and real and imaginary parts (1.5 m (m + 1)) and its m
# eigenvalues, at most 4 m (m + 1).
# _closed_form_max sizes its sub-chunks by the first of two rules on a stack
# of two or more matrices and by the second on a stack of one; _pruned_max
# always by the second:
# - closed forms (m = 2, 3) on a stack of two or more matrices: the class's
#   own arrays (best and least per matrix, and the plan's indicator and
#   entry positions) come off the budget first. A batch sub-chunk's Grams take at
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
# So a class may peak above the target. tracemalloc peaks per kernel call
# over the memory at entry, on 200 Haar draws at n = 8 and 40 at n = 9:
# closed forms 0.89x, pruned classes 1.71x, as the Grams of a batch
# sub-chunk (freed before the next one builds its own) and a row
# sub-chunk's minors and bound may each fill the target. On a stack of one
# at N = 9-12: closed forms 1.06x, 2.51x, 2.91x and 3.16x, as a row
# sub-chunk at m^2 elements a block gathers m (m + 1) entries a block and
# _top_eig_3x3 keeps up to 12 temporaries a block (pruned classes
# 0.68-1.33x). Holding either to the
# target cost speed or page faults (ROADMAP item 4's dead ends).
_CHUNK_ELEMENTS = 250_000


class SubmatrixCoefficients(NamedTuple):
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


@functools.cache
def _sorting_network(n: int) -> tuple:
    # Batcher's merge exchange (K. E. Batcher, AFIPS SJCC 1968), as Knuth's
    # Algorithm M (TAOCP vol. 3, 5.2.2), on n positions: comparators (i, j),
    # i < j, that put the larger value at i. Any sorting network gives the
    # strips the bits of a sort and cumsum (see _strip_maxima).
    pairs, t = [], (n - 1).bit_length()
    p = (1 << t) >> 1
    while p:
        q, r, d = (1 << t) >> 1, 0, p
        while d:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


def _strip_maxima(u3: np.ndarray) -> np.ndarray:
    # Squared norms (batch, N): column k - 1 holds the largest 1 x k or k x 1
    # strip, 1 x (N - 1) alone at class N (which runs m <= n), and column N - 1
    # the pinned 1. A 1 x n strip's is the sum of its line's top n squared
    # moduli: a running sum of the line sorted descending. The lines go
    # batch-major: plane e holds entry e of every line, the stack's rows and
    # then its columns, shape (2N, batch), so each comparator of
    # _sorting_network is one elementwise max and min over contiguous planes
    # (the planes swap buffers rather than copy), and each k one reduction
    # over the leading axis. The bits are those of a sort and cumsum: a
    # network outputs the same values in the same order, the sums run in
    # cumsum's order, c_k = c_(k-1) + v_k, and a maximum is exact.
    batch, dim = u3.shape[0], u3.shape[1]
    absq = np.abs(u3) ** 2
    lines = np.empty((dim, 2 * dim, batch))
    lines[:, :dim] = absq.transpose(2, 1, 0)
    lines[:, dim:] = absq.transpose(1, 2, 0)
    planes, spare = list(lines), np.empty((2 * dim, batch))
    for i, j in _sorting_network(dim):
        np.maximum(planes[i], planes[j], out=spare)
        np.minimum(planes[i], planes[j], out=planes[j])
        planes[i], spare = spare, planes[i]
    lam = np.empty((batch, dim))
    for k in range(dim - 1):
        if k:
            planes[k] += planes[k - 1]
        # the columns' 1 x (N - 1) strips belong to class N, which is m <= n
        lam[:, k] = planes[k][: 2 * dim if k < dim - 2 else dim].max(axis=0)
    lam[:, dim - 1] = 1.0
    return lam


def _read_only(*arrays):
    # Marks arrays kept in a cache read-only; returns the one array, or all
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


@functools.lru_cache(maxsize=256)
def _combinations(dim: int, k: int) -> np.ndarray:
    # Every k-subset of range(dim), one per row; cached, so read-only.
    return _read_only(np.array(list(itertools.combinations(range(dim), k)), dtype=int))


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
    return _read_only(combos[masks[:, 0] == turns.min(axis=1)])


@functools.lru_cache(maxsize=64)
def _triu(dim: int):
    # Upper-triangle pairs (i, j), i <= j, in row-major order, and the map
    # from (i, j) to the pair's position in that order.
    iu, ju = np.triu_indices(dim)
    pos = np.zeros((dim, dim), dtype=int)
    pos[iu, ju] = np.arange(iu.size)
    return _read_only(iu, ju, pos)


def _indicator(dim: int, cols: np.ndarray) -> np.ndarray:
    # The 0/1 matrix, N x len(cols), whose column c marks the column set cols[c].
    out = np.zeros((dim, len(cols)))
    np.put_along_axis(out, cols.T, 1.0, axis=0)
    return out


def _pair_products(u3: np.ndarray):
    """Real and imaginary parts of U[i, c] conj(U[j, c]) for each pair (i, j), i <= j, and column c.

    Shape (batch, N(N+1)/2, N) each, pairs in ``_triu(N)`` order: the
    per-column outer products that ``_column_grams`` sums over column sets.
    """
    iu, ju, _ = _triu(u3.shape[1])
    a, b = u3[:, iu], u3[:, ju]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    # Real arithmetic, since numpy's complex multiply does not round alike at
    # every array size. So a matrix's products do not depend on its batch.
    return ar * br + ai * bi, ai * br - ar * bi


def _column_grams(pairs, indicator: np.ndarray):
    """Upper triangles of the N x N Grams U[:, C] U[:, C]^dag, C a set of ``indicator``.

    Entry (i, j) of such a Gram is the sum over c in C of U[i, c] conj(U[j, c]),
    so all subsets come out of a matmul of the per-column outer products,
    ``pairs`` as ``_pair_products`` returns them, with the 0/1 indicator
    matrix of the subsets (``_indicator``). Returns the real and imaginary
    parts, shape (batch, N(N+1)/2, column sets), indexed by pair (i, j), i <=
    j, in ``_triu(N)`` order.
    """
    # stacked products, one small matmul per matrix, since a single (batch *
    # pairs) x N product may round differently with the batch size. So a
    # matrix's Grams do not depend on its batch.
    return pairs[0] @ indicator, pairs[1] @ indicator


def _top_eig_2x2(re, im):
    # (lambda_max, lambda_min) = h + r, h - r
    a, d = re[0], re[2]
    h = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + re[1] ** 2 + im[1] ** 2)
    return h + r, h - r


def _top_eig_3x3(re, im):
    # Trigonometric form of the cubic's roots (O. K. Smith, CACM 4(4), 1961):
    # with q = tr/3 and 6 p^2 = |G - qI|_F^2, lambda_max = q + 2p cos(phi) and
    # lambda_min = q + 2p cos(phi + 2 pi/3), where cos(3 phi) = r = det(G - qI)
    # / (2 p^3) and 0 <= phi <= pi/3; returns the two. The triu entries are
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
    del x, y, z, a01, a02, a12, cyc
    with np.errstate(divide="ignore", invalid="ignore"):
        r = det / (2.0 * p**3)
    del det
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    lam = q + 2.0 * p * np.cos(phi)
    # Near r = -1 the top eigenvalue is nearly double and d(lambda)/dr blows up
    # as 1/sqrt(1 + r), and near r = +1 the bottom one, as 1/sqrt(1 - r);
    # p = 0 (G = qI) gives r = NaN, which fails both tests.
    phi += 2.0 * np.pi / 3.0
    bottom = q + 2.0 * p * np.cos(phi)
    bad_top, bad_bottom = ~(r > CARDANO_MIN_GAP - 1.0), ~(r < 1.0 - CARDANO_MIN_GAP)
    redo = bad_top | bad_bottom
    if redo.any():
        eig = np.linalg.eigvalsh(_upper_triangles(re[:, redo], im[:, redo], 3), UPLO="U")
        lam[bad_top] = eig[bad_top[redo], -1]
        bottom[bad_bottom] = eig[bad_bottom[redo], 0]
    return lam, bottom


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


def _may_attain(mu: np.ndarray, gap: np.ndarray) -> np.ndarray:
    # The eigvalsh keep test on a lower bound mu on lambda_min(F) (see the
    # module docstring), written so that a NaN mu keeps its block.
    return ~(mu > gap)


@functools.lru_cache(maxsize=64)
def _mask_order(dim: int, k: int):
    # The bitmasks of the k-subsets of range(dim), sorted, and the rank of
    # each in _combinations order; cached, so read-only.
    masks = (1 << _combinations(dim, k)).sum(axis=1)
    order = np.argsort(masks)
    return _read_only(masks[order], order)


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
    return _read_only(
        np.ascontiguousarray(combos.T),
        np.stack([_subset_rank(dim, np.delete(combos, j, axis=1)) for j in range(k)]),
    )


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


def _minor_table(u3: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # _squared_minors on every row set of rows, built in pieces of row sets
    # whose temporaries, 10 C(N, m) elements a row set (see _CHUNK_ELEMENTS),
    # fit the budget
    size = math.comb(u3.shape[1], rows.shape[1])
    step = max(1, _CHUNK_ELEMENTS // (len(u3) * 10 * size))
    if step >= len(rows):
        return _squared_minors(u3, rows)
    table = np.empty((len(u3), len(rows), size))
    for r0 in range(0, len(rows), step):
        table[:, r0 : r0 + step] = _squared_minors(u3, rows[r0 : r0 + step])
    return table


def _complement_det(minors: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """det F of each block's rows on its complementary columns, by Cauchy-Binet.

    Blocks U[R, C] for R a row set of ``minors`` (the squared m x m minors
    on R, as ``_squared_minors`` gives them) and C a column set, whose
    complement's m-subsets ``sets`` lists as ``_complement_sets`` does.
    Returns the sum of the squared minors on R and those subsets, shape
    (batch, row sets, column sets); see the module docstring. A NaN minor
    gives a NaN sum.
    """
    det = minors[..., sets[0]]
    for more in sets[1:]:
        det += minors[..., more]
    return det


class _CallTables:
    """The tables that the plan entries of one ``s_coefficients_batch`` call share.

    The kernels read them by batch sub-chunk: the column-pair products of U,
    or of U^T for the entries with m > n (``_pair_products``), and the
    squared-minor tables of the pruned classes (``_minor_table``). Only a
    sub-chunk that holds the whole stack keeps its tables for the entries
    after it. Every entry runs that sub-chunk on a stack of one, so there one
    table of each kind serves every entry that reads it. The sub-chunks of a
    larger stack are sized per class, so they rarely meet: they build their
    tables as they go, the minors per row sub-chunk, and keep none. One minor
    table serves each orientation, m and row list, and a full list of
    m-subsets serves both orientations, U^T's table being U's transposed.
    After each entry, ``release`` drops the tables that neither the rest of
    its rung nor the next rung reads. The readers of every table sit on
    consecutive rungs, so that is right after the table's last reader.
    """

    def __init__(self, u_batch: np.ndarray):
        self.views = (u_batch, u_batch.swapaxes(1, 2))
        self.held = {}

    def _minor_key(self, transposed: bool, rows: np.ndarray) -> tuple:
        # The plan gives every entry of one orientation and m the same row
        # list, bar class N's leading half, so its length tells them apart
        full = len(rows) == math.comb(self.views[0].shape[1], rows.shape[1])
        return (rows.shape[1], len(rows)) if full else (rows.shape[1], len(rows), transposed)

    def pairs(self, transposed: bool, chunk: slice):
        u = self.views[transposed][chunk]
        if len(u) < len(self.views[0]):
            return _pair_products(u)
        if transposed not in self.held:
            self.held[transposed] = _pair_products(u)
        return self.held[transposed]

    def minors(self, transposed: bool, chunk: slice, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        # the squared minors on the row sets rows[lo:hi]
        u = self.views[transposed][chunk]
        if len(u) < len(self.views[0]):
            return _minor_table(u, rows[lo:hi])
        key = self._minor_key(transposed, rows)
        if key not in self.held:
            self.held[key] = (transposed, _minor_table(u, rows))
        built, table = self.held[key]
        return (table if built == transposed else table.swapaxes(1, 2))[:, lo:hi]

    def reads(self, entry: tuple) -> set:
        # the keys of the tables that a plan entry's kernel reads
        m, n, _, rows, *_, sets = entry
        return {m > n} if sets is None else {m > n, self._minor_key(m > n, rows)}

    def release(self, later: tuple) -> None:
        # drops the held tables that no entry of later reads
        keep = set().union(*map(self.reads, later))
        self.held = {key: table for key, table in self.held.items() if key in keep}


# Generators of the translations the kernel looks for, as (row, column)
# shifts: the rows alone, the columns alone, and both at once.
_SHIFTS = _read_only(np.array([(1, 0), (0, 1), (1, 1)]))


def _translation_symmetry(u3: np.ndarray) -> np.ndarray:
    """Which generator shifts every matrix of the stack keeps, up to phases.

    Returns one bool per row of ``_SHIFTS``. Generator g holds for U when
    its one step maps U to a translate W[i, j] = U[i + g_0, j + g_1]
    (indices mod N) with W = diag(x) U diag(y) for unit phases x, y, up to
    a max-norm residual r <= SYMMETRY_TOL. Its powers are not tested: the
    residuals of steps add, so the a-th power of g is within |a| r of U up
    to phases, and an orbit's blocks, each within floor(N/2) steps of the
    representative, have norms within floor(N/2) sqrt(mn) r of it (the
    module docstring's bound). On F_N, P_N^beta, the shift and the
    identity at N = 4..16, plain, phased or dephased, the tests check that
    this accepts exactly what testing every power would; the worst accepted
    residual there is 6.4e-15 at one step and 7.4e-15 over every power.
    Matrix 0 is tested first, so a stack led by a Haar draw pays one
    comparison of moduli; a generator holds for the stack only if it holds
    for every matrix. N <= 3 has no block class to reduce, and it and an
    empty stack return all False.
    """
    held = np.zeros(len(_SHIFTS), dtype=bool)
    if u3.shape[1] <= 3 or not len(u3):
        return held
    held = _shifts_hold(u3[:1], ~held)
    if held.any() and len(u3) > 1:
        held = _shifts_hold(u3, held)
    return held


def _shifts_hold(u3: np.ndarray, gens: np.ndarray) -> np.ndarray:
    # _translation_symmetry for the generators marked in gens: the moduli of
    # every generator's one-step translate first, then the phase fit of those
    # that pass. Index i + g - N is i + g mod N as a numpy index.
    rows, cols = np.arange(-u3.shape[1], 0) + _SHIFTS.T[..., None]
    at = (slice(None), rows[:, :, None], cols[:, None])  # W[i, j] = U[i + g_0, j + g_1]
    mod = np.abs(u3)
    held = gens & (np.abs(mod[at] - mod[:, None]) <= SYMMETRY_TOL).all(axis=(0, 2, 3))
    if held.any():
        held[held] = (_phase_residual(u3, mod, u3[at][:, held]) <= SYMMETRY_TOL).all(axis=0)
    return held


def _phase_residual(u3: np.ndarray, mod: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max |W - diag(x) U diag(y)| for each translate W of each matrix U.

    ``w`` holds the translates, shape (batch, shifts, N, N), and ``mod`` is
    |U|. The unit phases x, y are fitted in closed form from A = W o
    conj(U) on every entry. Where the translate holds, A_ij is x_i y_j
    |U_ij|^2, so each entry weighs in by |U_ij|^2 and the strong entries
    carry the fit. Entry (i, k) of A A^dag, a sum of products A_ij
    conj(A_kj), is then x_i conj(x_k) times a nonnegative number, and so is
    every entry of C = (A A^dag)^(2^p), p = ceil(log2 N). All p squarings
    always run, for two reasons. They reach across a sparse support: 2^p >=
    N steps join any two rows that a chain of shared nonzero entries
    connects, however weak its entries, and C_ik is positive there. And
    they weight each phase further toward the strong entries. Rows that no
    such chain joins, as across the blocks of a direct sum, a permutation
    or a circulant with zero entries, meet only in exact zeros, so C_ik is
    exactly 0 and each component keeps its own gauge. x_i is the phase of C
    at row i's first nonzero column, which sets the gauge to 1 at each
    component's lowest row, and y_j that of A at column j's largest entry
    times conj(x) of that entry's row. |A_ij| <= (|W_ij|^2 + |U_ij|^2) / 2,
    and the rows and columns of |W|^2 and |U|^2 sum to 1 up to the
    unitarity residual, so those of |A| sum to at most about 1, |A|_2 is at
    most about 1, and so is every entry of every power of A A^dag: the
    squarings cannot overflow. Any fit would do, since the residual over
    every entry decides; a poor one only sends U down the full enumeration.
    """
    dim = mod.shape[1]
    a = w * u3.conj()[:, None]
    c = a @ a.conj().swapaxes(2, 3)
    for _ in range(math.ceil(math.log2(dim))):
        c = c @ c
    rows = c.reshape(-1, dim)  # every row of every C
    x = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)].reshape(c.shape[:3])
    x /= np.abs(x)
    i = mod.argmax(axis=1)  # the row of each column's largest entry
    b, k = np.arange(len(mod))[:, None], np.arange(dim)
    y = (a[b, :, i, k] * x[b, :, i].conj()).swapaxes(1, 2)
    y /= np.abs(y)
    return np.abs(w - x[..., None] * u3[:, None] * y[:, :, None]).max(axis=(2, 3))


@functools.lru_cache(maxsize=1024)
def _class_plan(dim: int, sym: tuple, k: int) -> tuple:
    """The block classes of rung k that ``s_coefficients_batch`` enumerates, in run order.

    ``sym`` is ``_translation_symmetry``'s result as a tuple of bools. Each
    entry (m, n, serves, rows, cols, indicator, entries, sets) runs the
    m x n blocks of class k + 1; ``serves`` is None, or for a source the k
    of the class its bottom eigenvalues serve (its own k if it is
    self-complementary, else a larger one). Entries run by min(m, n), so the
    floor of an m >= 4 class holds its k's strips, served and smaller
    classes. Rungs below 3 and from N on have no entry. The reductions are
    the module docstring's.

    The rest are the tables of the class's kernel, in the orientation it
    runs in: on U^T for m > n, with the row and column sets swapped. The
    row sets ``rows`` and column sets ``cols`` are the cached subsets;
    ``indicator`` is the 0/1 matrix of ``cols`` (``_indicator``) and
    ``entries`` the pair positions in ``_triu(N)`` order of each row set's
    upper triangle, shape (p (p + 1) / 2, row sets), p = min(m, n). ``sets``
    is None for a closed-form class (p = 2, 3), which runs
    ``_closed_form_max``; for a pruned class (p >= 4), which runs
    ``_pruned_max``, it holds the ranks ``_complement_sets`` gives. See
    ``_class_tables``. Cached per rung, so every array is read-only; 1024
    rungs hold 64 chains up to N = 17.
    """
    by_rows, by_cols, diagonal = sym
    served = {
        shape: source
        for m in (2, 3)
        for q in range(m, (dim + 1) // 2)
        for shape, source in (((m, dim - q), (m, q)), ((dim - q, m), (q, m)))
    }
    sources = {source: sum(shape) - 1 for shape, source in served.items()}
    plan = []
    # class N runs m <= n only, one of each complementary pair of blocks,
    # and none runs past it
    for m, n in sorted(((m, k + 1 - m) for m in range(2, k) if k + 1 < dim or 2 * m <= k + 1 == dim), key=min):
        if (m, n) in served:
            continue
        # the diagonal shift alone reduces the smaller side
        reduce_rows, reduce_cols = (by_rows, by_cols) if by_rows or by_cols or not diagonal else (m <= n, m > n)
        rows = _necklaces(dim, m) if reduce_rows else _combinations(dim, m)
        cols = _necklaces(dim, n) if reduce_cols else _combinations(dim, n)
        # the subsets containing 0 lead the lexicographic table: the half
        # rows of class N, and the half columns (or else rows) of a
        # closed-form class that is its own column (row) complement
        if not reduce_rows and 2 * m == k + 1 == dim:
            rows = rows[: math.comb(dim - 1, m - 1)]
        own = min(m, n) <= 3 and (not reduce_cols if 2 * n == dim else not reduce_rows and 2 * m == dim)
        if own and 2 * n == dim:
            cols = cols[: math.comb(dim - 1, n - 1)]
        elif own:
            rows = rows[: math.comb(dim - 1, m - 1)]
        if m > n:
            rows, cols = cols, rows
        plan.append((m, n, k if own else sources.get((m, n)), rows, cols, *_class_tables(dim, rows, cols)))
    return tuple(plan)


def _class_tables(dim: int, rows: np.ndarray, cols: np.ndarray) -> tuple:
    # The tables a kernel reads for the blocks U[R, C], R a row of rows and C
    # of cols, read-only: the indicator of cols, the pair positions of each
    # row set's upper triangle, and for rows of four or more indices the
    # complement-set ranks, else None (see _class_plan)
    p = rows.shape[1]
    ti, tj, _ = _triu(p)
    indicator = _indicator(dim, cols)
    sets = _read_only(_complement_sets(indicator, p)) if p >= 4 else None
    return *_read_only(indicator, _triu(dim)[2][rows[:, ti], rows[:, tj]].T), sets


def _closed_form_max(tables, transposed, rows, indicator, entries):
    """Max and min over the blocks of a closed-form class of their Grams' top and bottom eigenvalues.

    The blocks are U[R, C], on U^T if ``transposed``, for R a row of
    ``rows`` (2- or 3-subsets) and C a column set of ``indicator``, with
    ``entries`` their pair positions, as ``_class_plan`` lists them; U is
    the stack of ``tables`` (``_CallTables``), which also holds its pair
    products. The Gram of block (R, C) is the principal
    submatrix at R of the N x N Gram of the column set C (see
    ``_column_grams``), and its eigenvalues come from ``_top_eig_2x2`` or
    ``_top_eig_3x3``. Returns (best, least) per matrix: the largest top
    eigenvalue, lambda = sigma^2, and the least bottom one, which a
    source's complements read. Sub-chunks are sized as ``_CHUNK_ELEMENTS``
    says.
    """
    batch, dim = tables.views[0].shape[0], tables.views[0].shape[1]
    m, ncols = rows.shape[1], indicator.shape[1]
    top = _top_eig_2x2 if m == 2 else _top_eig_3x3
    # sub-chunk sizes, in elements per row set: see _CHUNK_ELEMENTS. A stack
    # of one runs in one batch sub-chunk.
    budget, held, width = _CHUNK_ELEMENTS, 0, m * m * ncols
    if batch > 1:
        budget -= 2 * batch + dim * ncols + entries.size
        held, width = dim * (dim + 1) * ncols, 3 * width
    bstep = max(1, budget // (4 * dim * (dim + 1) * max(2 * dim, ncols)))
    best, least = np.zeros(batch), np.full(batch, np.inf)
    for b0 in range(0, batch, bstep):
        chunk = slice(b0, b0 + bstep)
        re, im = _column_grams(tables.pairs(transposed, chunk), indicator)
        rstep = max(1, (budget - len(re) * held) // (len(re) * width))
        for r0 in range(0, len(rows), rstep):
            idx = entries[:, r0 : r0 + rstep]
            # the gathered entries are not named, and lam and bottom are
            # deleted, so that they are freed before the next row or batch
            # sub-chunk gathers or builds its own. lam is (row sets,
            # matrices, column sets): reducing the leading axis first runs
            # elementwise over contiguous rows, 3-5x faster than one
            # reduction over axes (0, 2) on the box of the _CHUNK_ELEMENTS
            # timings
            lam, bottom = top(re.swapaxes(0, 1)[idx], im.swapaxes(0, 1)[idx])
            best[chunk] = np.maximum(best[chunk], lam.max(axis=0).max(axis=1))
            least[chunk] = np.minimum(least[chunk], bottom.min(axis=0).min(axis=1))
            del lam, bottom
    return best, least


def _pruned_max(tables, transposed, floor2, rows, indicator, entries, sets):
    """Max top eigenvalue of the block Grams of a pruned class, lambda = sigma^2, per matrix.

    The blocks are U[R, C], on U^T if ``transposed``, for R a row of
    ``rows`` (m-subsets, m >= 4) and C a column set of ``indicator``, with
    ``entries`` their pair positions and ``sets`` their complements' ranks,
    as ``_class_plan`` lists them; U is the stack of ``tables``
    (``_CallTables``), which also holds its pair products and squared
    minors. ``floor2`` holds a squared norm per matrix already attained at
    the same k. eigvalsh skips the blocks that the det tier, on
    ``_complement_det``, shows cannot reach it, then those that the AM-GM
    step shows cannot (``_may_attain``; see the module docstring), and
    reads the upper triangles of the others (see ``_column_grams``) in
    pieces: the result never exceeds the maximum over the listed blocks
    and equals it wherever that maximum is above ``floor2``. A zero floor
    keeps every block. Sub-chunks are sized as ``_CHUNK_ELEMENTS`` says.
    """
    u3 = tables.views[transposed]
    batch, dim = u3.shape[0], u3.shape[1]
    m, ncols = rows.shape[1], indicator.shape[1]
    bstep = max(1, _CHUNK_ELEMENTS // (dim * (dim + 1) * max(2 * dim, ncols)))
    # elements per row set; a sub-chunk that holds the whole stack reads its
    # minors from the call's table, built apart
    width = 8 * ncols + (0 if bstep >= batch else 10 * math.comb(dim, m))
    gstep = max(1, _CHUNK_ELEMENTS // (4 * m * (m + 1)))  # blocks per eigvalsh piece
    e = dim * UNITARITY_TOL
    gap = (1.0 + e) - floor2 * (1.0 - PRUNE_SLACK)
    gap_det = gap * (1.0 + e) ** (m - 1)  # the det tier's, on D itself
    best = np.zeros(batch)
    for b0 in range(0, batch, bstep):
        chunk = slice(b0, b0 + bstep)
        re, im = _column_grams(tables.pairs(transposed, chunk), indicator)
        rest = np.abs(u3[chunk]) ** 2 @ (1.0 - indicator)  # |U|^2 summed over each complement
        rstep = max(1, _CHUNK_ELEMENTS // (len(re) * width))
        for r0 in range(0, len(rows), rstep):
            det = _complement_det(tables.minors(transposed, chunk, rows, r0, r0 + rstep), sets)
            b, r, c = np.nonzero(_may_attain(det, gap_det[chunk, None, None]))
            det = det[b, r, c]
            trace = rest[b[:, None], rows[r0 + r], c[:, None]].sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                keep = _may_attain(det * ((m - 1) / trace) ** (m - 1), gap[b0 + b])
            b, r, c = b[keep], r[keep], c[keep]
            # the Grams of the blocks that pass, matrix-major, then by row
            # set and column set
            for k0 in range(0, b.size, gstep):
                kb, kc = b[k0 : k0 + gstep], c[k0 : k0 + gstep]
                idx = entries[:, r0 + r[k0 : k0 + gstep]]
                g = _upper_triangles(re[kb, idx, kc], im[kb, idx, kc], m)
                np.maximum.at(best, b0 + kb, _top_eig_eigvalsh(g))
        # freed before the next batch sub-chunk builds its Grams, which may
        # each fill the budget
        del re, im
    return best


def _finalize(s: np.ndarray) -> np.ndarray:
    # Rounding may break monotonicity or push past 1 by an ulp or two; a
    # larger repair (or a NaN) means a non-unitary input or a kernel fault.
    # s_coefficients_batch runs it once on each group of rows that leaves
    # its rung loop: in the exit step on the saturated rows' whole chains,
    # their rungs from the exit on set to exactly 1 first, so the check does
    # not see them (it can fire less, never on a valid input), and on the
    # prefixes a stop rule reads; after the last rung on the full chains of
    # the rows still in it. Each entry depends on its prefix alone, so a
    # finalized prefix has the bits of the finalized chain's.
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
    gram, resid = _unitary_gram(u3)
    dim = u3.shape[-1]
    _enumeration_guard(dim, allow_large)
    # Gershgorin: lambda_max(G) <= max_i sum_j |G_ij| <= 1 + N r, with r the
    # residual max |G - I|, so N r <= UNITARITY_TOL puts the norm at most
    # UNITARITY_TOL / 2 above 1; eigvalsh runs only on the other matrices,
    # in stack order, so the first failing one is still named
    unsettled = np.flatnonzero(~(dim * resid <= UNITARITY_TOL))
    if unsettled.size:
        excess = _gram_norm(gram[unsettled]) - 1.0
        bad = _first_failure(excess <= UNITARITY_TOL)
        if bad is not None:
            raise ValueError(f"s_N deviates from 1: the norm of u exceeds 1 by {excess[bad]:.3e}")
    s = s_coefficients_batch(u3)
    return SubmatrixCoefficients(n=dim, s=s, r=((1.0 + s) / 2.0) ** 2)


def s_coefficients_batch(u_batch: np.ndarray, *, stop=None) -> np.ndarray:
    """Vectorized s vectors, shape (batch, N), for a stack of unitaries.

    The trusted entry, and the only enumeration: it checks the stack's
    shape but assumes every matrix is unitary (the Haar sampler and
    ``_checked_coefficients`` feed it) and does not limit N. The strips fill
    every k, class N + 1 is pinned to exactly 1, and the loop runs rung by
    rung: it fetches rung k's ``_class_plan``, for the symmetry the whole
    stack shares, when it reaches k, and each entry raises its k and a
    source's ``serves``, reading the tables of one ``_CallTables``. Once
    rung k has run, s_1..s_k are final: later entries raise larger k only.

    Rows leave the loop in one exit step before each entry. First the rows
    with a squared norm of at least 1 at k or below leave, with s exactly 1
    from k on, which ``_finalize`` would set whatever the later entries
    find; then, before a rung's first entry, the rows that ``stop`` marks.
    The step writes the leaving rows' chains into s and goes on with the
    rest under a fresh ``_CallTables`` and the call's first symmetry. The
    loop ends when no row is left, having built the plans of rungs up to one
    past the last it ran, or when the last rung has run, and the rows still
    in it then return their full chains. So without ``stop`` every row
    returns its full chain. A chain that needs a repair larger than
    UNITARITY_TOL to be monotone and <= 1 raises ValueError.

    A matrix's s depends on its stack-mates only through that symmetry,
    the generators that every matrix of the stack holds. A matrix that
    holds none, as a Haar draw, takes the full enumeration in any stack and
    keeps its bits; so do matrices that hold the same generators, as
    P_N^(1/2) and P_N^(1/3), which hold the diagonal shift alone. A
    stack-mate that lacks one of a matrix's generators sends it down a
    fuller enumeration, which may move its s by a few ulps, within the
    module docstring's bound. Rows that leave do not change the call's
    symmetry, so the rows that stay keep their bits.

    ``stop``, a rule the caller passes, is called as ``stop(k - 1, s)``
    before the first entry of each rung k that has plan entries, so never
    at N <= 3, with s the final s_1..s_{k-1}, one row per row still in the
    loop. It returns one bool per row, and the rows it marks leave: a row
    that stops there returns its s_1..s_{k-1} and NaN after.
    """
    u_batch = np.asarray(u_batch, dtype=complex)
    if u_batch.ndim != 3 or u_batch.shape[1] != u_batch.shape[2] or not u_batch.shape[1]:
        raise ValueError("expected a stack of square matrices")
    lam = _strip_maxima(u_batch)
    dim = u_batch.shape[1]
    sym = tuple(_translation_symmetry(u_batch).tolist())
    s, live, u, tables = np.full(lam.shape, np.nan), np.arange(len(lam)), u_batch, _CallTables(u_batch)
    for k in range(3, dim):  # rungs 1 and 2 hold strips alone
        rung = _class_plan(dim, sym, k)
        for i, (m, n, serves, rows, _, indicator, entries, sets) in enumerate(rung):
            # the exit step, where rows leave; its first test, one
            # reduction, passes over a stack where no row has reached 1
            asks, full = stop is not None and not i, lam[:, :k].max(initial=0.0) >= 1.0
            if asks or full:
                go = lam[:, :k].max(axis=1) >= 1.0 if full else np.zeros(len(u), dtype=bool)
                lam[go, k - 1 :] = 1.0
                s[live[go]] = _finalize(np.sqrt(lam[go]))
                if asks:
                    # a view, not a copy, where no row has reached 1
                    stay = ~go if full else slice(None)
                    prefix = _finalize(np.sqrt(lam[stay, : k - 1]))
                    stops = stop(k - 1, prefix)
                    s[live[stay][stops], : k - 1] = prefix[stops]
                    go[stay] = stops
                if go.any():
                    live, lam, u = live[~go], lam[~go], u[~go]
                    if not len(u):
                        return s
                    tables = _CallTables(u)
            if sets is None:
                best, least = _closed_form_max(tables, m > n, rows, indicator, entries)
                if serves is not None:
                    lam[:, serves - 1] = np.maximum(lam[:, serves - 1], 1.0 - least)
            else:
                best = _pruned_max(tables, m > n, lam[:, k - 1], rows, indicator, entries, sets)
            lam[:, k - 1] = np.maximum(lam[:, k - 1], best)
            tables.release(rung[i + 1 :] + _class_plan(dim, sym, k + 1))
    s[live] = _finalize(np.sqrt(lam))
    return s
