import functools
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import eub.montecarlo as montecarlo
import eub.submatrices as submatrices
from eub import (
    RngSeed,
    cyclic_shift,
    dephase,
    fourier_matrix,
    haar_unitary,
    largest_singular_value,
    max_norm_over_shape,
    permutation_power,
    rotation_matrix,
    s_coefficients,
    s_coefficients_batch,
    unitarity_residual,
)
from eub.matrices import PRUNE_SLACK, SYMMETRY_TOL, UNITARITY_TOL
from eub.submatrices import _checked_coefficients, _combinations, _necklaces, _top_eig_3x3, _translation_symmetry

SEED = 515151


def _oracle_s(u):
    # s_k from the one-block-at-a-time reference, capped at 1 like the fast paths
    dim = u.shape[0]
    return np.array(
        [
            min(1.0, max(max_norm_over_shape(u, m, k + 1 - m) for m in range(max(1, k + 1 - dim), min(k, dim) + 1)))
            for k in range(1, dim + 1)
        ]
    )


def _run_class(u3, m, n, floor2, rows, cols):
    # The m x n blocks on rows x cols (m- and n-subsets) through the kernel
    # the plan would name, with its tables, on the transposes for m > n:
    # (best, least), least None from a pruned class
    if m > n:
        rows, cols = cols, rows
    indicator, entries, sets = submatrices._class_tables(u3.shape[1], rows, cols)
    tables = submatrices._CallTables(u3)
    if sets is None:
        return submatrices._closed_form_max(tables, m > n, rows, indicator, entries)
    return submatrices._pruned_max(tables, m > n, floor2, rows, indicator, entries, sets), None


def _all_blocks(u3, m, n, floor2):
    # the kernel's maximum over every m x n block, as for an input without symmetry
    dim = u3.shape[1]
    return _run_class(u3, m, n, floor2, _combinations(dim, m), _combinations(dim, n))[0]


def _direct_sum(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


def test_identity_all_ones():
    sc = s_coefficients(np.eye(4))
    assert np.allclose(sc.s, 1.0, atol=1e-14)
    assert np.allclose(sc.r, 1.0, atol=1e-14)


def test_rotation_quarter_pi():
    sc = s_coefficients(rotation_matrix(math.pi / 4))
    assert sc.n == 2
    assert sc.s[0] == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert sc.s[1] == 1.0
    assert sc.r[0] == pytest.approx(0.7285533905932737, abs=1e-15)


def test_fourier_first_coefficient():
    # every entry of F_N has modulus 1/sqrt(N)
    for n in range(2, 7):
        sc = s_coefficients(fourier_matrix(n))
        assert sc.s[0] == pytest.approx(1.0 / math.sqrt(n), abs=1e-12)
        assert sc.s[-1] == 1.0


def test_fourier3_strip_norm():
    f3 = fourier_matrix(3)
    assert max_norm_over_shape(f3, 1, 2) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert max_norm_over_shape(f3, 2, 1) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert max_norm_over_shape(f3, 3, 3) == pytest.approx(1.0, abs=1e-12)


def test_max_norm_over_shape_range_checks():
    f3 = fourier_matrix(3)
    with pytest.raises(ValueError):
        max_norm_over_shape(f3, 0, 1)
    with pytest.raises(ValueError):
        max_norm_over_shape(f3, 1, 4)
    with pytest.raises(ValueError):
        max_norm_over_shape(np.ones((2, 3)), 1, 1)


def test_chain_structure():
    "s_1 <= s_2 <= ... <= s_N = 1 and r follows the closed form."
    rng = np.random.default_rng(SEED)
    for i in range(30):
        n = int(rng.integers(2, 6))
        sc = s_coefficients(haar_unitary(n, RngSeed(SEED + i)))
        assert sc.s.shape == (n,)
        assert np.all(np.diff(sc.s) >= -1e-14)
        assert sc.s[-1] == 1.0
        assert np.allclose(sc.r, ((1.0 + sc.s) / 2.0) ** 2, atol=1e-15)


def test_two_coefficient_direct_formula():
    # s_2 over 1x2 and 2x1 blocks reduces to best two-entry row/column sums
    rng = np.random.default_rng(SEED)
    for i in range(20):
        n = int(rng.integers(2, 6))
        u = haar_unitary(n, RngSeed(2 * SEED + i))
        a2 = np.abs(u) ** 2
        best = 0.0
        for axis in (0, 1):
            srt = np.sort(a2, axis=axis)
            if axis == 0:
                best = max(best, float((srt[-2:, :].sum(axis=0)).max()))
            else:
                best = max(best, float((srt[:, -2:].sum(axis=1)).max()))
        sc = s_coefficients(u)
        assert sc.s[1] == pytest.approx(math.sqrt(best), abs=1e-12)


def test_brute_force_reference_agreement():
    """The vectorized path must reproduce the per-shape brute-force maxima."""
    for i, n in enumerate((3, 4, 5)):
        u = haar_unitary(n, RngSeed(SEED + 100 + i))
        assert np.max(np.abs(s_coefficients(u).s - _oracle_s(u))) <= 1e-12


F = fourier_matrix
STRUCTURED = {
    "F5": F(5),
    "F6": F(6),
    "F7": F(7),
    "I6": np.eye(6),
    "shift6": cyclic_shift(6),
    "P6^(1/3)": permutation_power(6, 1.0 / 3.0),
    "P6^(1/2)": permutation_power(6, 0.5),
    "P7^(1/2)": permutation_power(7, 0.5),
    "F3+F3": _direct_sum(F(3), F(3)),
    "F3+I3": _direct_sum(F(3), np.eye(3)),
    "F2+F2+F2": _direct_sum(F(2), F(2), F(2)),
    "F2xF2": np.kron(F(2), F(2)),
    "F2xF3": np.kron(F(2), F(3)),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_oracle_agreement(name):
    """Repeated singular values (degenerate Grams) on both fast paths."""
    u = STRUCTURED[name]
    ref = _oracle_s(u)
    assert np.max(np.abs(s_coefficients(u).s - ref)) <= 1e-12
    assert np.max(np.abs(s_coefficients_batch(u[None])[0] - ref)) <= 1e-12


# Non-affine permutations: F_N and P_N^beta with rows and columns permuted
# by them keep their tied blocks but lose every translation symmetry, so
# they stay on the full enumeration
PERM_ROWS = {8: [3, 0, 7, 1, 6, 2, 5, 4], 9: [4, 0, 8, 1, 7, 2, 6, 3, 5]}
PERM_COLS = {8: [1, 4, 6, 0, 7, 3, 2, 5], 9: [2, 7, 0, 5, 8, 1, 4, 6, 3]}


def _permuted(u):
    return u[PERM_ROWS[len(u)]][:, PERM_COLS[len(u)]]


# N = 8 is the first size with an m, n >= 4 class, the pruned one
STRUCTURED_8 = {
    "F8": F(8),
    "F8 permuted": _permuted(F(8)),
    "P8^(1/2)": permutation_power(8, 0.5),
    "P8^(1/2) permuted": _permuted(permutation_power(8, 0.5)),
    "I8": np.eye(8),
    "perm8": np.eye(8)[[3, 0, 7, 1, 6, 2, 5, 4]],
    "F4+F4": _direct_sum(F(4), F(4)),
    "F2xF4": np.kron(F(2), F(4)),
}


def _unpruned_s(u, monkeypatch):
    # eigvalsh on every block of every m >= 4 class
    with monkeypatch.context() as mp:
        mp.setattr(submatrices, "_may_attain", lambda ub, thr: np.ones(ub.shape, dtype=bool))
        return s_coefficients(u).s


@pytest.mark.parametrize("name", sorted(STRUCTURED_8))
def test_structured_pruned_classes(name, monkeypatch):
    """Degenerate Grams through the pruned classes: oracle and unpruned agreement."""
    u = STRUCTURED_8[name]
    top = math.sqrt(_all_blocks(u[None], 4, 4, np.zeros(1))[0])
    assert top == pytest.approx(max_norm_over_shape(u, 4, 4), abs=1e-12)
    assert np.array_equal(s_coefficients(u).s, _unpruned_s(u, monkeypatch))


def test_pruning_keeps_haar_s_bit_identical(monkeypatch):
    # N = 9 and 10 add the (4, 5), (5, 4) and (5, 5) classes
    for n in (9, 10):
        u = haar_unitary(n, RngSeed(SEED + 1100 + n))
        assert np.array_equal(s_coefficients(u).s, _unpruned_s(u, monkeypatch))


@pytest.mark.parametrize(
    "u",
    [
        F(9),
        permutation_power(9, 1.0 / 3.0),
        _permuted(F(9)),
        _permuted(permutation_power(9, 1.0 / 3.0)),
        F(10),
        permutation_power(10, 0.5),
        permutation_power(10, 1.0 / 3.0),
    ],
    ids=["F9", "P9^(1/3)", "F9 permuted", "P9^(1/3) permuted", "F10", "P10^(1/2)", "P10^(1/3)"],
)
def test_pruning_keeps_tied_s_bit_identical(u, monkeypatch):
    # exact ties through the pruned classes: many blocks pass the bound, on
    # the representatives and (permuted) on the full enumeration; the N = 10
    # inputs are the degenerate-Gram ones of the large-n-report benchmark
    assert np.array_equal(s_coefficients(u).s, _unpruned_s(u, monkeypatch))


def test_keep_test_gates_eigvalsh(monkeypatch):
    """With every keep test failing, a pruned class evaluates no block."""
    calls = []
    monkeypatch.setattr(submatrices, "_may_attain", lambda ub, thr: np.zeros(ub.shape, dtype=bool))
    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", lambda g: calls.append(g.shape))
    u = haar_unitary(9, RngSeed(SEED + 1150))
    for m, n in ((4, 4), (4, 5), (5, 4)):
        assert _all_blocks(u[None], m, n, np.zeros(1))[0] == 0.0
    assert calls == []


def test_keep_test_keeps_nan_bounds(monkeypatch):
    # U[1, 2] = NaN makes det F NaN on the blocks whose rows hold 1 and
    # whose complementary columns hold 2; the keep test keeps them at any
    # gap, the least (floor 1) and the greatest (floor 0, gap (1 + e)^m on D)
    u = F(8)
    u[1, 2] = np.nan
    rows = cols = _combinations(8, 4)
    minors = submatrices._squared_minors(u[None], rows)
    det = submatrices._complement_det(minors, submatrices._complement_sets(submatrices._indicator(8, cols), 4))[0]
    want = (rows == 1).any(axis=1)[:, None] & ~(cols == 2).any(axis=1)[None, :]
    assert np.array_equal(np.isnan(det), want)
    e = 8 * UNITARITY_TOL
    assert submatrices._may_attain(det, np.array((e + PRUNE_SLACK) * (1.0 + e) ** 3))[want].all()
    assert submatrices._may_attain(det, np.array((1.0 + e) ** 4)).all()
    assert not submatrices._may_attain(np.array([0.6]), np.array([0.5]))[0]
    # on I8 the block U[R, R] has a zero Gram F on its complementary
    # columns, so T = 0 and D = 0, and the AM-GM step's 0 inf = NaN keeps it
    # at floor 1: every block whose rows meet its columns reaches eigvalsh,
    # its top eigenvalue 1, and only the disjoint ones (D = 1) are dropped
    reached = []
    top_eig = submatrices._top_eig_eigvalsh
    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", lambda g: reached.append(top_eig(g)) or reached[-1])
    assert _all_blocks(np.eye(8, dtype=complex)[None], 4, 4, np.ones(1))[0] == 1.0
    lam = np.concatenate(reached)
    assert lam.size == len(rows) * (len(cols) - 1) and np.all(lam == 1.0)


@pytest.mark.parametrize("u", [haar_unitary(9, RngSeed(SEED + 1170)), F(9)], ids=["haar9", "F9"])
def test_floor_is_a_squared_norm(u, monkeypatch):
    """A zero floor sends every block of a pruned class to eigvalsh; a floor
    lambda sends every block whose top eigenvalue reaches it, and none whose
    complement bound, taken from numpy determinants, falls below it."""
    seen = []
    top_eig = submatrices._top_eig_eigvalsh

    def spy(g):
        lam = top_eig(g)
        seen.append(lam.ravel())
        return lam

    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", spy)
    e = 9 * UNITARITY_TOL
    for m, n in ((4, 4), (4, 5), (5, 4)):
        seen.clear()
        top = _all_blocks(u[None], m, n, np.zeros(1))[0]
        lam = np.concatenate(seen)
        assert lam.size == math.comb(9, m) * math.comb(9, n)
        assert math.sqrt(top) == pytest.approx(max_norm_over_shape(u, m, n), abs=1e-12)
        # 1 + e - det F / (1 + e)^(p-1), F the Gram of the block's rows on
        # its complementary columns; m > n on the transpose, as the kernel
        v, p, cols = (u, m, _combinations(9, n)) if m <= n else (u.T, n, _combinations(9, m))
        rest = np.array([np.setdiff1d(np.arange(9), c) for c in cols])
        det = np.linalg.det(_block_grams(v, _combinations(9, p), rest)).real
        ub = 1.0 + e - det / (1.0 + e) ** (p - 1)
        floor2 = 0.9 * top
        seen.clear()
        assert _all_blocks(u[None], m, n, np.array([floor2]))[0] == top
        reached = sum(x.size for x in seen)
        assert np.count_nonzero(lam >= floor2) <= reached <= np.count_nonzero(ub >= floor2 * (1.0 - 2 * PRUNE_SLACK))


def test_surviving_grams_are_gathered_in_pieces(monkeypatch):
    """The blocks that pass both keep tests reach eigvalsh as the upper
    triangles of their Grams, matrix-major, then by row set and column set,
    in pieces of 250,000 / (4 m (m + 1)) blocks, fewer only at the end of a
    row sub-chunk."""
    seen, row_chunks = [], []
    top_eig, bound = submatrices._top_eig_eigvalsh, submatrices._complement_det

    def spy(g):
        seen.append(g.copy())
        return top_eig(g)

    def spy_bound(minors, *rest):
        row_chunks.append(minors.shape[1])
        return bound(minors, *rest)

    monkeypatch.setattr(submatrices, "_may_attain", lambda ub, thr: np.ones(ub.shape, dtype=bool))
    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", spy)
    monkeypatch.setattr(submatrices, "_complement_det", spy_bound)
    # eight matrices, one batch sub-chunk, take two row sub-chunks
    count = 8
    batch = np.stack([haar_unitary(8, RngSeed(SEED + 1190 + i)) for i in range(count)])
    _all_blocks(batch, 4, 4, np.zeros(count))
    combos = _combinations(8, 4)
    piece = 250_000 // (4 * 4 * 5)
    assert len(row_chunks) > 1 and sum(row_chunks) == len(combos)
    sizes = [len(g) for g in seen]
    want = []
    for nrows in row_chunks:
        blocks = count * nrows * len(combos)
        want += [min(piece, blocks - k0) for k0 in range(0, blocks, piece)]
    assert sizes == want and max(sizes) == piece
    got = np.triu(np.concatenate(seen))
    r0 = k0 = 0
    for nrows in row_chunks:
        for u in batch:
            grams = _block_grams(u, combos[r0 : r0 + nrows], combos).reshape(-1, 4, 4)
            assert np.allclose(got[k0 : k0 + len(grams)], np.triu(grams), rtol=0, atol=1e-14)
            k0 += len(grams)
        r0 += nrows
    assert k0 == len(got)


# The (2, n), (3, n), (n, 2) and (n, 3) classes with N - n < n <= N - 2 or
# N - 3, each taken from the complements of the blocks of the source class
# named beside it, and, without symmetry, the self-complementary (2, N/2),
# (3, N/2), (N/2, 2) and (N/2, 3), each its own source
SERVED = {
    4: {(2, 2): (2, 2)},
    5: {(2, 3): (2, 2)},
    6: {(2, 4): (2, 2), (2, 3): (2, 3), (3, 2): (3, 2), (3, 3): (3, 3)},
    7: {(2, 5): (2, 2), (2, 4): (2, 3), (4, 2): (3, 2), (3, 4): (3, 3)},
    8: {
        (2, 6): (2, 2), (2, 5): (2, 3), (5, 2): (3, 2), (3, 5): (3, 3),
        (2, 4): (2, 4), (4, 2): (4, 2), (3, 4): (3, 4), (4, 3): (4, 3),
    },
    9: {
        (2, 7): (2, 2), (2, 6): (2, 3), (6, 2): (3, 2), (2, 5): (2, 4), (5, 2): (4, 2),
        (3, 6): (3, 3), (3, 5): (3, 4), (5, 3): (4, 3),
    },
}


def _own(served):
    # the self-complementary classes among the served ones
    return {shape for shape, source in served.items() if shape == source}


def _by_columns(shape, source, dim):
    # whether a served class takes its source's column complements (same
    # rows, complementary column count), else its row complements
    return shape[0] == source[0] and shape[1] + source[1] == dim


def _head(a, dim, k):
    # a is the cached table of k-subsets or a prefix of it
    table = _combinations(dim, k)
    return a is table or a.base is table and np.array_equal(a, table[: len(a)])


def _classes(plan):
    # the plan's classes, {shape: (rows, cols)}, rows the m-subsets and cols
    # the n-subsets, whichever way round the kernel runs
    return {(m, n): (rows, cols) if m <= n else (cols, rows) for _, m, n, _, rows, cols, *_ in plan}


def _served(plan):
    # the served classes, {shape: source}: a source serves the class at k =
    # serves of its column complements, (m, N - n), if m <= n, else of its
    # row complements, (N - m, n); a self-complementary class serves itself
    return {
        ((m, serves + 1 - m) if m <= n else (serves + 1 - n, n)): (m, n)
        for _, m, n, serves, *_ in plan
        if serves is not None
    }


def _full_plan(dim, sym, plan=submatrices._class_plan):
    # every rung's entries in run order, each with its k put back in front
    return tuple((k, *entry) for k in range(1, dim) for entry in plan(dim, sym, k))


def _plan_of(u3):
    # the plan the kernel runs for a stack, rung by rung
    return _full_plan(u3.shape[1], tuple(_translation_symmetry(u3).tolist()))


@pytest.mark.parametrize("dim", [5, 6, 7, 8, 9])
def test_class_loop_runs_each_block_shape_once(dim):
    """Classes below N run every block shape but the served ones; class N
    runs m <= n only. Only the sources take their bottom eigenvalues."""
    plan = _plan_of(haar_unitary(dim, RngSeed(SEED + 1180 + dim))[None])
    shapes = _classes(plan)
    below = [(m, k - m) for k in range(4, dim) for m in range(2, k - 1)]
    at_n = [(m, dim - m) for m in range(2, dim // 2 + 1)]
    served = SERVED[dim]
    assert _served(plan) == served
    assert len(plan) == len(shapes) and sorted(shapes) == sorted(set(below + at_n) - (set(served) - _own(served)))
    assert {(m, n) for _, m, n, serves, *_ in plan if serves is not None} == set(served.values())

    def halved(sets, k):
        # the k-subsets containing index 0, one of each complementary pair
        return sets.shape == (math.comb(dim - 1, k - 1), k) and np.all(sets[:, 0] == 0) and _head(sets, dim, k)

    if dim % 2 == 0:
        # class N's (N/2, N/2) runs the row sets containing index 0, one of
        # each complementary pair, against every column set, or against the
        # half of them containing index 0 where it is its own source (N = 6)
        half, cols = shapes.pop((dim // 2, dim // 2))
        assert halved(half, dim // 2) and len({tuple(r) for r in half}) == half.shape[0]
        assert halved(cols, dim // 2) if (dim // 2, dim // 2) in served else cols is _combinations(dim, dim // 2)
    for m, n in _own(served) - {(dim // 2, dim // 2)}:
        # the self-complementary classes run the N/2-subsets containing index 0
        rows, cols = shapes.pop((m, n))
        assert halved(cols, n) and rows is _combinations(dim, m) if 2 * n == dim else halved(rows, m) and cols is _combinations(dim, n)
    # every other shape runs every row set against every column set
    assert all(rows is _combinations(dim, m) and cols is _combinations(dim, n) for (m, n), (rows, cols) in shapes.items())


REACHABLE_SYMMETRIES = [(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("sym", REACHABLE_SYMMETRIES)
@pytest.mark.parametrize("dim", range(2, 13))
def test_class_plan_lists_each_shape_once(dim, sym):
    """Only enumerated classes, each once, by k, then min(m, n): at each k
    the plan's classes and the classes its sources serve are every shape of
    class k + 1 but the strips (class N with m <= n only), overlapping only
    in the self-complementary classes, which serve their own k; any other
    source serves a larger k, with its complements. Also the row and column
    set counts of the reductions, and the tables of each entry's kernel."""
    sym = tuple(bool(x) for x in sym)
    rungs = [submatrices._class_plan(dim, sym, k) for k in range(dim + 2)]
    # rungs 0-2 hold strips alone, and none runs past class N
    assert rungs[:3] == [(), (), ()] and rungs[dim:] == [(), ()]
    plan = _full_plan(dim, sym)
    enumerated = _classes(plan)
    assert len(enumerated) == len(plan)
    assert all(k == m + n - 1 and min(m, n) >= 2 for k, m, n, *_ in plan)
    order = [(k, min(m, n)) for k, m, n, *_ in plan]
    assert order == sorted(order)
    by_rows, by_cols, diagonal = sym

    def reduced(m, n):
        # the diagonal shift alone reduces the smaller side
        return by_rows or diagonal and not by_cols and m <= n, by_cols or diagonal and not by_rows and m > n

    def own(m, n):
        # a closed-form class whose column (else row) complement has its own
        # shape, where no symmetry reduces that side
        reduce_rows, reduce_cols = reduced(m, n)
        return min(m, n) <= 3 and (not reduce_cols if 2 * n == dim else 2 * m == dim and not reduce_rows)

    served = _served(plan)
    for k in range(1, dim):
        runs = {(m, n) for m, n in enumerated if m + n == k + 1}
        serve = {(m, n) for m, n in served if m + n == k + 1}
        want = {(m, k + 1 - m) for m in range(2, k) if k + 1 < dim or 2 * m <= k + 1}
        assert runs | serve == want and runs & serve == _own(served) & want, k
    for k, m, n, serves, *_ in plan:
        if serves is None:
            continue
        assert (serves == k) == own(m, n) and serves >= k, (m, n, serves)
        # from the (2 or 3, N - n) column complements or the (N - m, 2 or
        # 3) row complements
        shape = next(a for a, b in served.items() if b == (m, n))
        assert shape in ((m, dim - n), (dim - m, n)) and min(shape) <= 3, (m, n, shape)
    assert _own(served) == {shape for shape in enumerated if own(*shape)}
    if dim in SERVED:
        assert {a: b for a, b in served.items() if a != b} == {a: b for a, b in SERVED[dim].items() if a != b}
        if not any(sym):
            assert served == SERVED[dim]
    for (m, n), (rows, cols) in enumerated.items():
        reduce_rows, reduce_cols = reduced(m, n)
        # the half class of class N, and the halved side of a self-complementary class
        half_rows = 2 * m == dim == m + n and not reduce_rows or own(m, n) and 2 * n != dim
        half_cols = own(m, n) and 2 * n == dim
        whole_rows = math.comb(dim - 1, m - 1) if half_rows else math.comb(dim, m)
        whole_cols = math.comb(dim - 1, n - 1) if half_cols else math.comb(dim, n)
        assert len(rows) == (_necklace_count(dim, m) if reduce_rows else whole_rows), (m, n)
        assert len(cols) == (_necklace_count(dim, n) if reduce_cols else whole_cols), (m, n)
        assert rows.shape[1:] == (m,) and cols.shape[1:] == (n,)
    for _, m, n, _, *tables in plan:
        _plan_tables_hold(dim, min(m, n), *tables)
    # each rung is cached
    assert all(submatrices._class_plan(dim, sym, k) is rung for k, rung in enumerate(rungs))


def _plan_tables_hold(dim, p, rows, cols, indicator, entries, sets):
    # an entry's tables, the smaller side p its row sets, all read-only: the
    # 0/1 matrix of the column sets, each row set's upper-triangle pairs in
    # _triu(N) order, and, for p >= 4 only, the ranks of the p-subsets of
    # each column set's complement, in lexicographic order
    assert rows.shape[1] == p and not any(a.flags.writeable for a in (rows, cols, indicator, entries))
    assert indicator.shape == (dim, len(cols)) and np.array_equal(np.nonzero(indicator.T)[1].reshape(cols.shape), cols)
    iu, ju = np.triu_indices(dim)
    ti, tj = np.triu_indices(p)
    assert np.array_equal(iu[entries].T, rows[:, ti]) and np.array_equal(ju[entries].T, rows[:, tj])
    assert (sets is None) == (p < 4)
    if sets is not None:
        assert not sets.flags.writeable
        rest = [sorted(set(range(dim)) - set(c)) for c in cols]
        want = np.array([list(itertools.combinations(r, p)) for r in rest]).swapaxes(0, 1)
        assert np.array_equal(_combinations(dim, p)[sets], want)


BLOCK_MAX_INPUTS = {
    **{f"haar{dim}": haar_unitary(dim, RngSeed(SEED + 1190 + dim)) for dim in range(5, 10)},
    "F8": F(8),
    "P8^(1/2)": permutation_power(8, 0.5),
    "F8 rows permuted": F(8)[PERM_ROWS[8]],
    "F8 columns permuted": F(8)[:, PERM_COLS[8]],
}


# the rung at which each input's chain reaches 1: k = 5 for F_8, whose
# least support uncertainty is 2 + 8/2 (see test_known_answers.py), k = N
# for the others
SATURATES_AT = {"F8": 5, "F8 rows permuted": 5, "F8 columns permuted": 5}


@pytest.mark.parametrize("name", list(BLOCK_MAX_INPUTS))
def test_kernel_runs_the_plan(name, monkeypatch):
    """The entries of the plan run once each, in order, through the kernel
    each names, _closed_form_max without sets and _pruned_max with them, on
    U or, for m > n, U^T, with the plan's own tables; a pruned class gets
    the squared norms so far at the entry's k as its floor. The run stops
    at the rung where the chain reaches 1, and the skipped entries' kernels,
    run directly, cannot move s."""
    u3 = np.asarray(BLOCK_MAX_INPUTS[name], dtype=complex)[None]
    calls = []
    closed_form_max, pruned_max = submatrices._closed_form_max, submatrices._pruned_max

    def spy_closed(tables, transposed, *rest):
        calls.append((tables, transposed, None, rest))
        return closed_form_max(tables, transposed, *rest)

    def spy_pruned(tables, transposed, floor2, *rest):
        calls.append((tables, transposed, floor2.copy(), rest))
        return pruned_max(tables, transposed, floor2, *rest)

    monkeypatch.setattr(submatrices, "_closed_form_max", spy_closed)
    monkeypatch.setattr(submatrices, "_pruned_max", spy_pruned)
    s = s_coefficients_batch(u3)
    monkeypatch.undo()
    strips = submatrices._strip_maxima(u3)
    plan = _plan_of(u3)
    top = SATURATES_AT.get(name, u3.shape[1])
    # within an ulp of 1 from that rung on (exactly 1 past the first rung
    # whose squared norm rounds to 1 or more)
    assert s[0, top - 2] < 1.0 - 1e-9 and np.all(s[0, top - 1 :] >= 1.0 - np.finfo(float).eps)
    # every entry below the saturating rung runs, and none above it
    ran, skipped = plan[: len(calls)], plan[len(calls) :]
    assert all(entry[0] <= top for entry in ran) and all(entry[0] >= top for entry in skipped)
    for (tables, transposed, floor2, rest), (k, m, n, _, rows, _, indicator, entries, sets) in zip(calls, ran):
        assert np.shares_memory(tables.views[0], u3) and transposed == (m > n), (m, n)
        assert np.array_equal(tables.views[transposed], u3.swapaxes(1, 2) if m > n else u3), (m, n)
        assert all(a is b for a, b in zip(rest, (rows, indicator, entries, sets))), (m, n)
        assert len(rest) == (3 if sets is None else 4) and (floor2 is None) == (sets is None), (m, n)
        if sets is not None:
            # at least the strips, and never above the final s_k
            assert strips[0, k - 1] <= floor2[0] <= s[0, k - 1] ** 2 * (1.0 + 4 * np.finfo(float).eps), (m, n)
    lam = s**2
    for k, m, n, serves, rows, _, indicator, entries, sets in skipped:
        tables = submatrices._CallTables(u3)
        if sets is None:
            best, least = closed_form_max(tables, m > n, rows, indicator, entries)
            if serves is not None:
                lam[:, serves - 1] = np.maximum(lam[:, serves - 1], 1.0 - least)
        else:
            best = pruned_max(tables, m > n, np.zeros(1), rows, indicator, entries, sets)
        lam[:, k - 1] = np.maximum(lam[:, k - 1], best)
    assert np.array_equal(submatrices._finalize(np.sqrt(lam)), s)


def test_class_tables_are_built_once(monkeypatch):
    """A second stack with the same N and symmetry builds no indicator and
    no complement-set ranks: the plan holds them."""
    built = []
    for fn in ("_indicator", "_complement_sets"):
        monkeypatch.setattr(submatrices, fn, lambda *a, fn=getattr(submatrices, fn): built.append(fn) or fn(*a))
    submatrices._class_plan.cache_clear()
    first = s_coefficients_batch(haar_unitary(9, RngSeed(SEED + 1210))[None])
    assert {fn.__name__ for fn in built} == {"_indicator", "_complement_sets"}
    built.clear()
    batch = np.stack([haar_unitary(9, RngSeed(SEED + 1210 + i)) for i in range(3)])
    assert np.array_equal(s_coefficients_batch(batch)[0], first[0])
    assert built == []


def test_pruning_keeps_a_rank_one_maximum():
    # a rank-1 block's bounds both meet its top eigenvalue, the tightest case
    # of the keep test; the unique maximum must survive it, also under a
    # floor below it
    u = np.zeros((8, 8), dtype=complex)
    x, y = haar_unitary(4, RngSeed(SEED + 1200))[:, 0], haar_unitary(4, RngSeed(SEED + 1201))[0]
    u[:4, :4] = 0.9 * np.outer(x, y)
    u[4:, 4:] = 0.3 * haar_unitary(4, RngSeed(SEED + 1202))
    top = _all_blocks(u[None], 4, 4, np.zeros(1))[0]
    assert math.sqrt(top) == pytest.approx(max_norm_over_shape(u, 4, 4), abs=1e-12)
    assert _all_blocks(u[None], 4, 4, np.array([0.95 * top]))[0] == top


def _totient(d):
    return sum(math.gcd(d, t) == 1 for t in range(1, d + 1))


def _necklace_count(dim, k):
    # binary necklaces of length N with k ones:
    # (1/N) sum over d | gcd(N, k) of phi(d) C(N/d, k/d)
    g = math.gcd(dim, k)
    terms = sum(_totient(d) * math.comb(dim // d, k // d) for d in range(1, g + 1) if g % d == 0)
    assert terms % dim == 0, (dim, k)
    return terms // dim


def test_necklace_count():
    for dim in range(2, 13):
        for k in range(dim + 1):
            assert len(_necklaces(dim, k)) == _necklace_count(dim, k), (dim, k)


@pytest.mark.parametrize("dim", range(2, 13))
def test_necklaces_meet_each_orbit_once(dim):
    for k in range(dim + 1):
        reps = {tuple(r) for r in _necklaces(dim, k)}
        assert len(reps) == len(_necklaces(dim, k))
        for c in itertools.combinations(range(dim), k):
            orbit = {tuple(sorted((i + a) % dim for i in c)) for a in range(dim)}
            assert len(orbit & reps) == 1, (dim, c)


def _visited(plan, dim, m, n):
    # the m x n blocks (R, C) the plan reaches: an enumerated class's own,
    # a served class's complements of its source's (a self-complementary
    # class both), and at m + n = N with m > n the complements of the (n, m)
    # blocks
    full = set(range(dim))

    def flip(sets):
        return [full - set(x) for x in sets]

    enumerated = _classes(plan)
    served = _served(plan)
    if (m, n) not in enumerated and (m, n) not in served:
        assert m + n == dim and m > n, (m, n)
        return {(tuple(sorted(full - set(r))), tuple(sorted(full - set(c)))) for r, c in _visited(plan, dim, n, m)}
    blocks = []
    if (m, n) in enumerated:
        blocks.append(enumerated[m, n])
    if (m, n) in served:
        rows, cols = enumerated[served[m, n]]
        blocks.append((rows, flip(cols)) if _by_columns((m, n), served[m, n], dim) else (flip(rows), cols))
    return {(tuple(sorted(r)), tuple(sorted(c))) for rows, cols in blocks for r in rows for c in cols}


@pytest.mark.parametrize(
    "dim, sym", [(6, (1, 1, 1)), (6, (1, 0, 0)), (6, (0, 1, 0)), (6, (0, 0, 1)), (7, (0, 1, 0)), (7, (0, 0, 1))]
)
def test_block_sets_meet_every_orbit(dim, sym):
    """Every block (R, C) has a translate (and, in the self-complementary
    class, a complement) among the blocks the plan reaches."""
    rows_shift, cols_shift, both = sym
    steps = range(dim)
    moves = {(a * rows_shift + c * both, b * cols_shift + c * both) for a in steps for b in steps for c in steps}
    full = set(range(dim))
    plan = _full_plan(dim, tuple(bool(x) for x in sym))
    for m in range(2, dim - 1):
        for n in range(2, dim + 1 - m):
            half = m == n and m + n == dim
            seen = _visited(plan, dim, m, n)
            for r in itertools.combinations(range(dim), m):
                for c in itertools.combinations(range(dim), n):
                    pairs = [(r, c)] + ([(full - set(r), full - set(c))] if half else [])
                    orbit = {
                        (tuple(sorted((i + da) % dim for i in rr)), tuple(sorted((j + db) % dim for j in cc)))
                        for rr, cc in pairs for da, db in moves
                    }
                    assert orbit & seen, (m, n, r, c)


def _dephased(u, seed):
    g = np.random.default_rng(seed)
    x, y = (np.exp(2j * np.pi * g.random(len(u))) for _ in range(2))
    return x[:, None] * u * y


def _path(u3):
    # "full" when every enumerated class visits every block (one of each
    # complementary pair in class N's (N/2, N/2) and in a self-complementary
    # class), "reduced" when all visit fewer
    dim = u3.shape[1]
    seen = [_head(rows, dim, m) and _head(cols, dim, n) for (m, n), (rows, cols) in _classes(_plan_of(u3)).items()]
    assert seen and (all(seen) or not any(seen))
    return "full" if all(seen) else "reduced"


def _circulant(first):
    # U[i, j] = first[j - i mod N]
    dim = len(first)
    return np.asarray(first, dtype=complex)[(np.arange(dim)[None, :] - np.arange(dim)[:, None]) % dim]


# circulants whose nonzero entries join the rows into several multi-row
# components, which meet only in exact zeros, so the phase fit gives each
# its own gauge: four of two rows at N = 8, {i, i + 4}, and three of three
# rows at N = 9, {i, i + 3, i + 6}
CIRCULANT_PAIRS8 = _circulant([1 / math.sqrt(2), 0, 0, 0, 1j / math.sqrt(2), 0, 0, 0])
CIRCULANT_TRIPLES9 = _circulant(np.kron(np.fft.ifft([1, 1, np.exp(2j * np.pi / 3)]), [1, 0, 0]))
COMPONENT_CIRCULANTS = {8: CIRCULANT_PAIRS8, 9: CIRCULANT_TRIPLES9}

# expected detector results: row shift, column shift, both at once
KERNEL_PATHS = {
    "haar8": (haar_unitary(8, RngSeed(SEED + 1300)), (0, 0, 0)),
    "F8 permuted": (_permuted(F(8)), (0, 0, 0)),
    "P9^(1/3) permuted": (_permuted(permutation_power(9, 1.0 / 3.0)), (0, 0, 0)),
    "F3+F3": (_direct_sum(F(3), F(3)), (0, 0, 0)),
    "F2xF3": (np.kron(F(2), F(3)), (0, 0, 0)),
    "F8": (F(8), (1, 1, 1)),
    "F9": (F(9), (1, 1, 1)),
    "F8 rows permuted": (F(8)[PERM_ROWS[8]], (0, 1, 0)),
    "F8 columns permuted": (F(8)[:, PERM_COLS[8]], (1, 0, 0)),
    "P8^(1/2)": (permutation_power(8, 0.5), (0, 0, 1)),
    "P9^(1/3)": (permutation_power(9, 1.0 / 3.0), (0, 0, 1)),
    "shift8": (cyclic_shift(8), (0, 0, 1)),
    "I6": (np.eye(6), (0, 0, 1)),
    "P8^(1/2) dephased": (_dephased(permutation_power(8, 0.5), SEED), (0, 0, 1)),
    "P8^(1/16) dephased": (dephase(permutation_power(8, 1 / 16)), (0, 0, 1)),
    "C8 pairs": (CIRCULANT_PAIRS8, (0, 0, 1)),
    "C8 pairs dephased": (_dephased(CIRCULANT_PAIRS8, SEED), (0, 0, 1)),
    "C9 triples": (CIRCULANT_TRIPLES9, (0, 0, 1)),
    "C9 triples dephased": (_dephased(CIRCULANT_TRIPLES9, SEED), (0, 0, 1)),
}


@pytest.mark.parametrize("name", list(KERNEL_PATHS))
def test_kernel_path_follows_translation_symmetry(name):
    u, held = KERNEL_PATHS[name]
    u3 = np.asarray(u, dtype=complex)[None]
    assert _translation_symmetry(u3).tolist() == [bool(h) for h in held]
    assert _path(u3) == ("reduced" if any(held) else "full")


def test_one_asymmetric_matrix_sends_its_stack_down_the_full_path():
    circulants = [permutation_power(6, beta) for beta in np.linspace(0.0, 1.0, 33)]
    assert _path(np.array(circulants)) == "reduced"
    circulants[17] = haar_unitary(6, RngSeed(SEED + 1310))
    assert _path(np.array(circulants)) == "full"


@pytest.mark.parametrize("how", ["phase", "modulus"])
def test_a_perturbed_circulant_takes_the_full_path(how):
    u = permutation_power(8, 0.5)
    x = u[2, 5]
    u[2, 5] = x * np.exp(10j * SYMMETRY_TOL / abs(x)) if how == "phase" else x * (1.0 + 10 * SYMMETRY_TOL / abs(x))
    assert not _translation_symmetry(u[None]).any()
    assert _path(u[None]) == "full"


def test_a_haar_led_stack_is_tested_on_its_first_matrix_only(monkeypatch):
    calls = []
    hold = submatrices._shifts_hold
    monkeypatch.setattr(submatrices, "_shifts_hold", lambda u3, gens: calls.append(len(u3)) or hold(u3, gens))
    monkeypatch.setattr(submatrices, "_phase_residual", None)  # never reached
    stack = np.stack([haar_unitary(5, RngSeed(SEED + 1320 + i)) for i in range(50)])
    assert not _translation_symmetry(stack).any()
    assert calls == [1]


@pytest.mark.parametrize("dim", range(4, 11))
def test_representatives_match_full_enumeration(dim, monkeypatch):
    """s from one block per orbit is within (k + 1) SYMMETRY_TOL of s from all."""
    rng = np.random.default_rng(SEED + dim)
    cases = {
        "F": F(dim),
        "P^(1/3)": permutation_power(dim, 1.0 / 3.0),
        "P^(1/2)": permutation_power(dim, 0.5),
        "P^0.37": permutation_power(dim, 0.37),
        "shift": cyclic_shift(dim),
        "I": np.eye(dim, dtype=complex),
        "P^(1/2) dephased": _dephased(permutation_power(dim, 0.5), SEED + dim),
        # one large entry a row
        "P^(1/16) dephased": dephase(permutation_power(dim, 1 / 16)),
        "P^(31/32) phased": _dephased(permutation_power(dim, 31 / 32), SEED + 100 + dim),
        # one side reduced: the column sets, then the row sets
        "F rows permuted": F(dim)[rng.permutation(dim)],
        "F columns permuted": F(dim)[:, rng.permutation(dim)],
    }
    if dim in COMPONENT_CIRCULANTS:
        cases["circulant"] = COMPONENT_CIRCULANTS[dim]
        cases["circulant dephased"] = _dephased(COMPONENT_CIRCULANTS[dim], SEED + dim)
    bound = np.arange(2, dim + 2) * SYMMETRY_TOL + 8 * np.finfo(float).eps
    for name, u in cases.items():
        assert _translation_symmetry(u[None]).any(), name
        reduced = s_coefficients_batch(u[None])[0]
        with monkeypatch.context() as mp:
            mp.setattr(submatrices, "_translation_symmetry", _no_symmetry)
            full = s_coefficients_batch(u[None])[0]
        assert np.all(np.abs(reduced - full) <= bound), (name, np.abs(reduced - full).max())


@pytest.mark.parametrize("dim", range(8, 13))
def test_stack_mates_reach_s_through_the_symmetry_alone(dim):
    """A matrix's s depends on its stack-mates only through the generators
    the whole stack holds. A Haar draw holds none and keeps its bits beside
    F_N and P_N^(1/2); P_N^(1/2) and P_N^(1/3) hold the diagonal shift alone
    and keep theirs together. F_N and P_N^(1/2) beside a Haar draw take the
    full enumeration, within the module docstring's bound of their own
    reduced one."""
    haar = haar_unitary(dim, RngSeed(SEED + 1730 + dim))
    half, third = permutation_power(dim, 0.5), permutation_power(dim, 1 / 3)
    alone = [s_coefficients_batch(u[None])[0] for u in (haar, F(dim), half, third)]
    mixed = s_coefficients_batch(np.stack([haar, F(dim), half]))
    assert np.array_equal(mixed[0], alone[0])
    assert _translation_symmetry(half[None]).tolist() == _translation_symmetry(third[None]).tolist() == [False, False, True]
    assert np.array_equal(s_coefficients_batch(np.stack([half, third])), np.stack(alone[2:]))
    k = np.arange(1, dim + 1)
    bound = 2 * ((k + 1) / 2) * (dim // 2) * SYMMETRY_TOL + 8 * np.finfo(float).eps
    for row in (1, 2):
        assert np.all(np.abs(mixed[row] - alone[row]) <= bound), (row, np.abs(mixed[row] - alone[row]).max())


def _margin_family(dim):
    # F_N, P_N^beta for beta = 0, 1/32, ..., 2, the shift and the identity,
    # each plain, with random unit phases on both sides and in dephased form
    plain = {"F": F(dim), "shift": cyclic_shift(dim), "I": np.eye(dim, dtype=complex)}
    plain.update({f"P^({b}/32)": permutation_power(dim, b / 32) for b in range(65)})
    cases = dict(plain)
    cases.update({f"{name} phased": _dephased(u, SEED + 1600 + dim) for name, u in plain.items()})
    cases.update({f"{name} dephased": dephase(u) for name, u in plain.items()})
    return cases


@pytest.mark.parametrize("dim", range(4, 17))
def test_accepted_translates_fit_well_inside_the_tolerance(dim):
    """On F_N, P_N^beta for beta = 0, 1/32, ..., 2, the shift and the
    identity, each plain, with random unit phases on both sides and in
    dephased form, the detector, which tests one step of each generator,
    accepts exactly the generators whose every power a = 1..N-1 passes its
    rule, and every such translate of an accepted generator has a phase-fit
    residual of at most SYMMETRY_TOL / 8."""
    cases = _margin_family(dim)
    held = {}
    for name, u in cases.items():
        u3 = np.asarray(u, dtype=complex)[None]
        held[name] = _translation_symmetry(u3)
        every_power = []
        for g, (g0, g1) in enumerate(submatrices._SHIFTS):
            # W[i, j] = U[i + a g_0, j + a g_1] for a = 1..N-1
            w = np.stack([np.roll(u3[0], (-a * g0, -a * g1), axis=(0, 1)) for a in range(1, dim)])[None]
            holds = bool((np.abs(np.abs(w) - np.abs(u3)[:, None]) <= SYMMETRY_TOL).all())
            if holds:
                resid = submatrices._phase_residual(u3, np.abs(u3), w)
                holds = bool((resid <= SYMMETRY_TOL).all())
                if held[name][g]:
                    assert resid.max() <= SYMMETRY_TOL / 8, (name, g, resid.max())
            every_power.append(holds)
        assert held[name].tolist() == every_power, name
    # the fit is reached: F_N holds under all three generators, and every
    # input, plain, phased or dephased, under the diagonal one
    assert held["F"].all() and held["F phased"].all() and held["F dephased"].all()
    assert all(held[name][2] for name in cases)


def test_the_detector_never_warns():
    """The phase fit's products, squarings and divisions raise no floating-
    point warning, which on the CLI would reach stderr: on the margin family,
    random permutation matrices, direct sums, F2 x F3 and a Haar-led stack."""
    rng = np.random.default_rng(SEED + 1700)
    family = [np.asarray(u, dtype=complex)[None] for dim in (4, 9, 16) for u in _margin_family(dim).values()]
    stacks = family + [np.eye(dim, dtype=complex)[rng.permutation(dim)][None] for dim in range(4, 13) for _ in range(3)]
    stacks += [
        _direct_sum(F(3), F(3))[None],
        _direct_sum(F(4), cyclic_shift(4))[None],
        np.kron(F(2), F(3))[None],
        np.stack([haar_unitary(6, RngSeed(SEED + 1710))] + [permutation_power(6, b / 8) for b in range(8)]),
    ]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        held = [_translation_symmetry(u3) for u3 in stacks]
    assert all(h[2] for h in held[: len(family)])  # the margin family reaches the fit


def _served_lambda(u, shape, sym):
    # a served class's maximum squared norm as the kernel takes it: 1 minus
    # the least bottom eigenvalue over its source class's blocks, or for a
    # self-complementary class the larger of that and its own maximum
    plan = _full_plan(len(u), tuple(sym.tolist()))
    source = _served(plan)[shape]
    rows, cols = _classes(plan)[source]
    top, least = _run_class(u[None], *source, np.zeros(1), rows, cols)
    return max(top[0], 1.0 - least[0]) if source == shape else 1.0 - least[0]


@pytest.mark.parametrize("dim", range(4, 10))
def test_complement_classes_match_the_oracle_on_haar(dim):
    """Every served class, (2, n), (3, n), (n, 2) and (n, 3), the
    self-complementary ones among them, agrees with one-block-at-a-time
    enumeration; at N <= 7 the whole chain does too."""
    for i in range(2):
        u = haar_unitary(dim, RngSeed(SEED + 1400 + dim, i))
        assert _served(_plan_of(u[None])) == SERVED[dim]
        for shape in SERVED[dim]:
            top = math.sqrt(_served_lambda(u, shape, _no_symmetry(u[None])))
            assert top == pytest.approx(max_norm_over_shape(u, *shape), abs=1e-12), shape
        if dim <= 7:
            assert np.max(np.abs(s_coefficients(u).s - _oracle_s(u))) <= 1e-12


def _degenerate(dim):
    # inputs whose Grams have repeated eigenvalues, zero ones among them
    half = dim // 2
    rng = np.random.default_rng(SEED + dim)
    return {
        "F": F(dim),
        "perm": np.eye(dim)[rng.permutation(dim)],
        "I": np.eye(dim, dtype=complex),
        "haar+haar": _direct_sum(
            haar_unitary(half, RngSeed(SEED + 1450 + dim)), haar_unitary(dim - half, RngSeed(SEED + 1460 + dim))
        ),
        "F+F": _direct_sum(F(half), F(dim - half)),
        "I+F": _direct_sum(np.eye(half), F(dim - half)),
        "P^(1/2) dephased": _dephased(permutation_power(dim, 0.5), SEED + 1470 + dim),
        "F rows permuted": F(dim)[rng.permutation(dim)],
        "P^(1/2) columns permuted": permutation_power(dim, 0.5)[:, rng.permutation(dim)],
    }


@functools.lru_cache(maxsize=None)
def _degenerate_oracle(dim, name, shape=None):
    # the oracle's norm of one shape, or its whole chain, shared by both paths
    u = _degenerate(dim)[name]
    return max_norm_over_shape(u, *shape) if shape else _oracle_s(u)


@pytest.mark.parametrize("path", ["reduced", "full"])
@pytest.mark.parametrize("dim", range(4, 9))
def test_complement_classes_match_the_oracle_on_degenerate_grams(dim, path, monkeypatch):
    """Degenerate Grams through the served classes, self-complementary ones
    among them, on the representatives of a translation symmetry and on
    every block; at N <= 7 the whole chain of both fast paths agrees with
    the oracle too."""
    for name, u in _degenerate(dim).items():
        sym = _translation_symmetry(u[None]) if path == "reduced" else _no_symmetry(u[None])
        served = _served(_full_plan(dim, tuple(sym.tolist())))
        assert set(served) - _own(served) == set(SERVED[dim]) - _own(SERVED[dim]), name
        for shape in served:
            top = math.sqrt(_served_lambda(u, shape, sym))
            assert top == pytest.approx(_degenerate_oracle(dim, name, shape), abs=1e-12), (name, shape)
        if dim <= 7:
            with monkeypatch.context() as mp:
                if path == "full":
                    mp.setattr(submatrices, "_translation_symmetry", _no_symmetry)
                ref = _degenerate_oracle(dim, name)
                assert np.max(np.abs(s_coefficients(u).s - ref)) <= 1e-12, name
                assert np.max(np.abs(s_coefficients_batch(u[None])[0] - ref)) <= 1e-12, name


def _residuals(u):
    # max-norm residuals of U U^dag - I and U^dag U - I
    eye = np.eye(len(u))
    return np.abs(u @ u.conj().T - eye).max(), np.abs(u.conj().T @ u - eye).max()


def _near_tolerance(u, seed, frac=0.7):
    # u plus a random perturbation, scaled back to norm 1 so that the norm
    # check passes, with its larger residual at about frac * UNITARITY_TOL
    g = np.random.default_rng(seed)
    e = g.standard_normal(u.shape) + 1j * g.standard_normal(u.shape)

    def perturbed(eps):
        v = u + eps * e
        return v / np.linalg.norm(v, 2)

    eps = 1e-12
    return perturbed(eps * frac * UNITARITY_TOL / max(_residuals(perturbed(eps))))


def _enumerated_plan(dim, sym, k, plan=submatrices._class_plan):
    # rung k of the plan with every served class of the chain, a
    # self-complementary one too, enumerated over every block at its k, and
    # no source's bottom eigenvalues read; for inputs without symmetry
    served = _served(_full_plan(dim, sym, plan))
    every = [(m, n, None, *tables) for m, n, _, *tables in plan(dim, sym, k) if (m, n) not in served]
    for m, n in served:
        if m + n - 1 == k:
            rows, cols = _combinations(dim, m), _combinations(dim, n)
            rows, cols = (rows, cols) if m <= n else (cols, rows)
            every.append((m, n, None, rows, cols, *submatrices._class_tables(dim, rows, cols)))
    return tuple(sorted(every, key=lambda entry: min(entry[:2])))


@pytest.mark.parametrize("dim", range(4, 9))
def test_complement_classes_near_the_unitarity_tolerance(dim, monkeypatch):
    """With residuals r at 0.5-0.9 UNITARITY_TOL, a served class is within
    |R| r of the direct maximum of its blocks, |R| = 2 or 3 the rows (columns)
    of its blocks (r of U U^dag - I by column complements, of U^dag U - I by
    row complements), s^2 within the largest such bound of s^2 with every
    class enumerated, and s_coefficients needs no repair it cannot make."""
    base = {"haar": haar_unitary(dim, RngSeed(SEED + 1500 + dim)), "perm": _degenerate(dim)["perm"]}
    eps = 8 * np.finfo(float).eps
    for name, u0 in base.items():
        u = _near_tolerance(u0, SEED + 1510 + dim)
        by_rows, by_cols = _residuals(u)
        assert 0.5 * UNITARITY_TOL <= max(by_rows, by_cols) <= 0.9 * UNITARITY_TOL, name
        assert unitarity_residual(u) <= UNITARITY_TOL
        assert not _translation_symmetry(u[None]).any(), name
        bounds = []
        for shape, source in SERVED[dim].items():
            by_columns = _by_columns(shape, source, dim)
            bounds.append((shape[0] if by_columns else shape[1]) * (by_rows if by_columns else by_cols))
            direct = _all_blocks(u[None], *shape, np.zeros(1))[0]
            assert abs(_served_lambda(u, shape, _no_symmetry(u[None])) - direct) <= bounds[-1] + eps, (name, shape)
        s = s_coefficients(u).s
        with monkeypatch.context() as mp:
            mp.setattr(submatrices, "_class_plan", _enumerated_plan)
            enumerated = s_coefficients(u).s
        assert np.max(np.abs(s**2 - enumerated**2)) <= max(bounds) + eps, name
        # the other entries keep their bits
        moved = {sum(shape) - 1 for shape in SERVED[dim]}
        assert all(s[k - 1] == enumerated[k - 1] for k in range(1, dim + 1) if k not in moved), name


def _hermitian_cases(m):
    q = haar_unitary(m, RngSeed(SEED + 700, m - 3))
    v = 0.9 * q[:, :1]
    tail = list(np.linspace(0.3, 0.1, m - 2))

    def spectrum(*lam):
        h = (q * np.array(lam)) @ q.conj().T
        return 0.5 * (h + h.conj().T)

    cases = {
        "scalar": 0.7 * np.eye(m),
        "zero": np.zeros((m, m)),
        "rank1": v @ v.conj().T,
        "double_top": spectrum(1.0, 1.0, *tail),
        "double_bottom": spectrum(1.0, *tail, tail[-1]),
        # lambda_max = 1/12, the smallest squared floor at N <= 12
        "top_1/12": spectrum(1.0 / 12.0, *(t / 12.0 for t in tail), 0.0),
    }
    for e in range(4, 11):
        cases[f"top_gap_1e-{e}"] = spectrum(1.0, 1.0 - 10.0**-e, *tail)
    return cases


def test_top_eig_3x3_matches_eigvalsh():
    cases = _hermitian_cases(3)
    h = np.array(list(cases.values()), dtype=complex)
    ti, tj = np.triu_indices(3)
    got = _top_eig_3x3(h[:, ti, tj].real.T, h[:, ti, tj].imag.T)[0]
    err = np.abs(got - np.linalg.eigvalsh(h)[:, -1])
    assert err.max() <= 8 * np.finfo(float).eps, dict(zip(cases, err))


def test_top_eig_3x3_bottom_root():
    """lambda_min matches eigvalsh, a double or nearly double bottom
    eigenvalue (r near +1) through the fallback, whose eigvalsh sees those
    Grams, and lambda_max does too."""
    cases = _hermitian_cases(3)
    q = haar_unitary(3, RngSeed(SEED + 730))
    for e in range(4, 11):
        lam = np.array([0.9, 0.3 + 10.0**-e, 0.3])
        cases[f"bottom_gap_1e-{e}"] = (q * lam) @ q.conj().T
    rng = np.random.default_rng(SEED + 731)
    for i in range(200):
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        cases[f"random{i}"] = x @ x.conj().T / np.linalg.norm(x, 2) ** 2
    h = np.array(list(cases.values()), dtype=complex)
    ti, tj = np.triu_indices(3)
    re, im = h[:, ti, tj].real.T, h[:, ti, tj].imag.T
    sent = []
    eigvalsh = np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda g, UPLO="L": sent.append(g.copy()) or eigvalsh(g, UPLO=UPLO))
        top, bottom = _top_eig_3x3(re, im)
    eig = np.linalg.eigvalsh(h)
    err = np.abs(bottom - eig[:, 0])
    assert err.max() <= 8 * np.finfo(float).eps, dict(zip(cases, err))
    assert np.abs(top - eig[:, -1]).max() <= 8 * np.finfo(float).eps
    redone = np.concatenate(sent)
    for name in ["double_bottom", "rank1", "zero", "scalar"] + [f"bottom_gap_1e-{e}" for e in range(4, 11)]:
        g = h[list(cases).index(name)]
        assert any(np.array_equal(np.triu(x), np.triu(g)) for x in redone), name
    # the fallback is rare on generic Grams
    assert len(redone) < 0.1 * len(cases)


def test_a_double_bottom_eigenvalue_serves_its_complement():
    """A (3, 3) block with a double bottom eigenvalue goes through the
    bottom-root fallback in the kernel, its bottom eigenvalue serves the
    complementary (3, 4) block at N = 7, and the served class and the
    whole chain agree with the oracle."""
    # U = (X + W) CS (Y + V)^dag, CS the 7 x 7 cosine-sine rotation: the
    # block U[:3, :3] = X diag(c) Y^dag has singular values c, the last two equal
    c = np.array([0.9, 0.5, 0.5])
    cs = np.eye(7)
    cs[:3, :3], cs[3:6, 3:6] = np.diag(c), np.diag(c)
    cs[:3, 3:6], cs[3:6, :3] = -np.diag(np.sqrt(1 - c**2)), np.diag(np.sqrt(1 - c**2))
    x, y = (_direct_sum(haar_unitary(3, RngSeed(SEED + 740 + i)), haar_unitary(4, RngSeed(SEED + 750 + i))) for i in range(2))
    u = x @ cs @ y.conj().T
    assert unitarity_residual(u) <= 1e-14
    g = u[:3, :3] @ u[:3, :3].conj().T
    assert np.allclose(np.linalg.eigvalsh(g), np.sort(c**2), rtol=0, atol=1e-15)
    sent = []
    eigvalsh = np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda a, UPLO="L": sent.append(a.copy()) or eigvalsh(a, UPLO=UPLO))
        one = np.array([[0, 1, 2]])
        _, least = _run_class(u[None], 3, 3, np.zeros(1), one, one)
    assert [a.shape for a in sent] == [(1, 3, 3)] and np.allclose(np.triu(sent[0][0]), np.triu(g), rtol=0, atol=1e-15)
    assert least[0] == pytest.approx(0.25, rel=0, abs=4 * np.finfo(float).eps)
    r = np.abs(u @ u.conj().T - np.eye(7)).max()
    complement = largest_singular_value(u[:3, 3:])
    assert abs(1.0 - least[0] - complement**2) <= 3 * r + 4 * np.finfo(float).eps
    served = _served_lambda(u, (3, 4), _no_symmetry(u[None]))
    assert math.sqrt(served) == pytest.approx(max_norm_over_shape(u, 3, 4), abs=1e-12)
    assert np.max(np.abs(s_coefficients(u).s - _oracle_s(u))) <= 1e-12


def _block_grams(u, rows, cols):
    # the Gram of every block U[R, C], shape (row sets, column sets, m, m)
    x = u[rows[:, None, :, None], cols[None, :, None, :]]
    return x @ x.conj().swapaxes(-1, -2)


# inputs of the two tiers' validity test beyond a Haar draw per N: exact
# ties of the pruned classes, the benchmark's at N = 9 and 10. Each is run
# one way round only: F_N and I are symmetric, the rest circulants or their
# row and column permutations, whose transposes have the same blocks up to
# such permutations
TIER_INPUTS = {
    8: {**{f"structured {name}": u for name, u in STRUCTURED_8.items()}},
    9: {"P^(1/3)": permutation_power(9, 1.0 / 3.0)},
    10: {"F": F(10), "P^(1/2)": permutation_power(10, 0.5)},
}


@pytest.mark.parametrize("dim", [8, 9, 10])
def test_complement_bound_caps_eigvalsh(dim):
    """Both tiers' lower bounds mu on lambda_min(F), F the Gram of a block's
    rows on its complementary columns, read as 1 + e - mu, are at least the
    block's top eigenvalue on every block of the pruned shapes: on Haar
    draws, near the unitarity tolerance, on exact ties and on degenerate
    Grams, both ways round but for TIER_INPUTS. The det tier's bound is at
    least 0, and its D = det F is det(I - G) of the block's own Gram, up to
    the residual; the AM-GM step's, fed D and the trace T of F, is NaN only
    where T = 0, and there D = 0 (the kernel keeps NaN)."""
    haar = haar_unitary(dim, RngSeed(SEED + 1600 + dim))
    inputs = {"haar": haar, **TIER_INPUTS[dim]}
    if dim < 10:  # the other inputs at N = 10 cost the suite seconds
        inputs.update({"haar near tolerance": _near_tolerance(haar, SEED + 1610 + dim), **_degenerate(dim)})
    e = dim * UNITARITY_TOL
    for name, u0 in inputs.items():
        # det F and det(I - G) differ by O(r), r of U U^dag - I (of U^dag U - I on U^T)
        atol = 1e-12 + dim * max(_residuals(u0))
        for u in (u0,) if name in TIER_INPUTS[dim] else (u0, u0.T):
            for m in range(4, dim // 2 + 1):
                rows = _combinations(dim, m)
                minors = submatrices._squared_minors(u[None], rows)
                for n in range(m, dim - m + 1):
                    indicator = submatrices._indicator(dim, _combinations(dim, n))
                    det = submatrices._complement_det(minors, submatrices._complement_sets(indicator, m))[0]
                    trace = (np.abs(u) ** 2 @ (1.0 - indicator))[rows].sum(axis=1)
                    ub = 1.0 + e - det / (1.0 + e) ** (m - 1)
                    zero = trace == 0.0
                    with np.errstate(divide="ignore", invalid="ignore"):
                        tight = 1.0 + e - det * ((m - 1) / trace) ** (m - 1)
                    g = _block_grams(u, rows, _combinations(dim, n))
                    lam = np.linalg.eigvalsh(g)[..., -1]
                    assert ub.min() >= 0.0, (name, m, n)
                    # exact bounds in real arithmetic; half the slack keeps the attaining block
                    assert np.all(lam <= ub * (1.0 + PRUNE_SLACK / 2)), (name, m, n, (lam - ub).max())
                    assert np.all(lam[~zero] <= tight[~zero] * (1.0 + PRUNE_SLACK / 2)), (name, m, n, (lam - tight)[~zero].max())
                    assert np.array_equal(np.isnan(tight), zero) and np.all(det[zero] == 0.0), (name, m, n)
                    assert np.allclose(det, np.linalg.det(np.eye(m) - g).real, rtol=0, atol=atol), (name, m, n)


def test_squared_minors_match_numpy_determinants():
    u = haar_unitary(9, RngSeed(SEED + 1620))
    for m in (1, 2, 4, 5):
        rows, every = _necklaces(9, m), _combinations(9, m)
        minors = submatrices._squared_minors(u[None], rows)[0]
        want = np.abs(np.linalg.det(u[rows[:, None, :, None], every[None, :, None, :]])) ** 2
        assert minors.shape == (len(rows), len(every)) and np.allclose(minors, want, rtol=0, atol=1e-14)


def test_complement_bound_prunes_most_blocks_before_eigvalsh(monkeypatch):
    """On a Haar draw at N = 10 fewer than 1% of the pruned classes' blocks
    reach eigvalsh, and s keeps its bits (see the unpruned tests). On
    P10^(1/2), whose tied Grams pass the complement bound by the thousand
    (1410 of its 18,100 representatives), the AM-GM tier leaves at most 600."""
    reached = []
    top_eig = submatrices._top_eig_eigvalsh
    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", lambda g: reached.append(len(g)) or top_eig(g))
    s_coefficients(haar_unitary(10, RngSeed(SEED + 1630)))
    blocks = 2 * math.comb(10, 4) * math.comb(10, 5) + math.comb(10, 4) ** 2 * 2 + math.comb(9, 4) * math.comb(10, 5)
    assert 0 < sum(reached) < 0.01 * blocks
    reached.clear()
    s_coefficients(permutation_power(10, 0.5))
    assert 0 < sum(reached) <= 600


def test_a_call_builds_each_table_once(monkeypatch):
    """A stack of one builds the pair products once per orientation and one
    squared-minor table per m: at N = 10 the 4 x 4 table serves (4, 4),
    (4, 5), (4, 6) and, transposed, (5, 4), and the 5 x 5 table on class N's
    half rows serves (5, 5). Each is dropped after its last reader, so at
    most one minor table is held at a time here and none at the end."""
    built, held = [], []
    for name in ("_pair_products", "_minor_table"):
        fn = getattr(submatrices, name)
        monkeypatch.setattr(submatrices, name, lambda *a, fn=fn: built.append((fn.__name__, a[-1].shape)) or fn(*a))
    release = submatrices._CallTables.release
    monkeypatch.setattr(submatrices._CallTables, "release", lambda self, i: release(self, i) or held.append(set(self.held)))
    u = haar_unitary(10, RngSeed(SEED + 1630))
    s = s_coefficients(u).s
    assert built == [("_pair_products", (1, 10, 10))] * 2 + [("_minor_table", (210, 4)), ("_minor_table", (126, 5))]
    assert all(sum(isinstance(key, tuple) for key in keys) <= 1 for keys in held) and held[-1] == set()
    monkeypatch.undo()
    assert np.array_equal(s_coefficients(u).s, s)


@pytest.mark.parametrize(
    "dim, syms",
    [(dim, REACHABLE_SYMMETRIES) for dim in range(4, 13)] + [(dim, [(1, 1, 1)]) for dim in range(13, 17)],
    ids=lambda x: str(x) if isinstance(x, int) else "every" if len(x) > 1 else "F",
)
def test_every_table_is_read_on_consecutive_rungs(dim, syms):
    """The readers of each per-call table, the pair products of either
    orientation and each minor table, sit on consecutive rungs. So release,
    which keeps what the rest of the entry's rung and the next rung read,
    drops every table right after its last reader in the whole plan. Past
    the guard only F_N's symmetry: plans without one hold hundreds of MB."""
    tables = submatrices._CallTables(np.zeros((1, dim, dim), dtype=complex))
    for sym in syms:
        sym = tuple(bool(x) for x in sym)
        readers = {}
        for k in range(1, dim):
            for entry in submatrices._class_plan(dim, sym, k):
                for key in tables.reads(entry):
                    readers.setdefault(key, set()).add(k)
        assert readers, sym
        for key, rungs in readers.items():
            assert rungs == set(range(min(rungs), max(rungs) + 1)), (sym, key, sorted(rungs))
        plan = _full_plan(dim, sym)
        for i, (k, *entry) in enumerate(plan):
            read = set().union(*(tables.reads(e[1:]) for e in plan[: i + 1]))
            later = set().union(*(tables.reads(e[1:]) for e in plan[i + 1 :]))
            tables.held = dict.fromkeys(read)
            rest = tuple(e[1:] for e in plan[i + 1 :] if e[0] == k)
            tables.release(rest + submatrices._class_plan(dim, sym, k + 1))
            assert set(tables.held) == read & later, (sym, k, entry[:2])


SATURATED_16 = {"shift16": cyclic_shift(16), "I16": np.eye(16, dtype=complex), "F16": fourier_matrix(16)}


@pytest.mark.parametrize("name", list(SATURATED_16))
def test_a_saturated_chain_builds_only_the_rungs_it_reaches(name, monkeypatch):
    """A chain that stops at the first entry whose k already has a squared
    norm of 1 builds the tables of the rungs up to there and of one rung
    more, which release looks at, and no other: the 16-cycle shift and I16
    stop at rung 3, their strips being 1 from k = 1 on, and F16 stops with
    its first exact 1, at k = 8, so it builds rungs 3-9 of the 13 that hold
    classes."""
    built = []
    class_tables = submatrices._class_tables
    monkeypatch.setattr(
        submatrices, "_class_tables", lambda dim, rows, cols: built.append(rows.shape[1] + cols.shape[1] - 1) or class_tables(dim, rows, cols)
    )
    submatrices._class_plan.cache_clear()
    s = s_coefficients_batch(SATURATED_16[name][None])[0]
    first = int(np.argmax(s == 1.0)) + 1  # the first rung at exactly 1
    assert first == (8 if name == "F16" else 1) and np.all(s[first - 1 :] == 1.0)
    assert built and sorted(set(built)) == list(range(3, max(3, first + 1) + 1)), sorted(set(built))


def _mixed_stack(dim, seed):
    # Haar draws with a permutation in every other row: the permutations'
    # chains are 1 from k = 1 on
    u3 = montecarlo._haar_batch(dim, RngSeed(seed), 0, 8, False)[0]
    u3[::2] = np.eye(dim)[np.roll(np.arange(dim), 3)][::-1]
    return u3


STOP_STACKS = {
    **{f"haar{dim}": montecarlo._haar_batch(dim, RngSeed(SEED + 1700 + dim), 0, count, False)[0]
       for dim, count in ((4, 300), (5, 300), (6, 120), (7, 40), (8, 12), (9, 4))},
    # P6^beta on a grid through the permutations at beta = 0, 1 and 2
    "P6 sweep": np.stack([permutation_power(6, beta) for beta in np.linspace(0.0, 2.0, 17)]),
    "mixed7": _mixed_stack(7, SEED + 1710),
}


def _stop_rules(dim):
    # (name, rule) pairs: every row at one rung, each kmax; rows picked by
    # their s_1 at every rung, so different rows leave at different rungs;
    # and a rule that stops none
    rules = [(f"at {j}", lambda j0, s, j=j: np.full(len(s), j0 >= j)) for j in range(2, dim - 1)]
    rules.append(("by s_1", lambda j, s: (s[:, 0] * 1e6 * j) % 1.0 < 0.3))
    rules.append(("never", lambda j, s: np.zeros(len(s), dtype=bool)))
    return rules


@pytest.mark.parametrize("name", list(STOP_STACKS))
def test_a_stop_rule_keeps_each_rows_prefix(name):
    """Under every rule, each row returns the full chain's s_1..s_j bit for
    bit and NaN after, j the rung it stopped after, or its whole chain. The
    rule sees the full chain's prefix s_1..s_{k-1} of the rows still in the
    loop, before each rung k with plan entries; a row whose chain has
    reached 1 leaves with it before the rule sees it."""
    u3 = STOP_STACKS[name]
    dim = u3.shape[1]
    full = s_coefficients_batch(u3)
    assert np.array_equal(s_coefficients_batch(u3, stop=None), full)
    rungs = [k for k in range(3, dim) if submatrices._class_plan(dim, tuple(_translation_symmetry(u3).tolist()), k)]
    for rule_name, rule in _stop_rules(dim):
        seen = []

        def spy(j, s, rule=rule):
            seen.append((j, s.copy(), rule(j, s)))
            return seen[-1][2]

        s = s_coefficients_batch(u3, stop=spy)
        kept = np.isfinite(s).sum(axis=1)
        for row, j in enumerate(kept):
            assert np.array_equal(s[row, :j], full[row, :j]) and np.isnan(s[row, j:]).all(), (rule_name, row)
            assert j == dim or j + 1 in rungs, (rule_name, row, j)
        # the rule's calls, rung by rung, each on the rows still in the loop
        assert [j + 1 for j, *_ in seen] == rungs[: len(seen)], rule_name
        for j, prefix, go in seen:
            # a row whose chain is 1 at s_j left before the rule's call at
            # j; one that reaches 1 first at s_{j+1} would leave before or
            # after it, by its squared norms then, and these stacks have none
            assert not ((full[:, j - 1] < 1.0) & (full[:, j] == 1.0)).any()
            stayed = (kept >= j) & (full[:, j - 1] < 1.0)
            assert np.array_equal(prefix, full[stayed, :j]), (rule_name, j)
            # the rows it marks stop there, and only they
            seen_rows = np.flatnonzero(stayed)
            assert (kept[seen_rows[go]] == j).all() and (kept[seen_rows[~go]] > j).all(), (rule_name, j)
    if name == "mixed7":
        assert len(seen[0][1]) == 4  # the Haar rows; the permutations left first


def test_a_stop_rule_never_runs_below_rung_3():
    """N <= 3 has no rung with plan entries, so no rule is called, and every
    row keeps its full chain."""
    def fail(j, s):
        raise AssertionError("called")

    for dim in (2, 3):
        u3 = montecarlo._haar_batch(dim, RngSeed(SEED + 1720 + dim), 0, 5, False)[0]
        assert np.array_equal(s_coefficients_batch(u3, stop=fail), s_coefficients_batch(u3))


def test_stopped_rows_leave_the_kernels(monkeypatch):
    """After a rule stops rows at rung k, the kernels of rungs k and up run
    on the rows that stay: the closed forms and the pruned classes both see
    the stack shrink."""
    u3 = STOP_STACKS["haar8"]
    full = s_coefficients_batch(u3)
    low, high = np.quantile(full[:, 0], [0.25, 0.75])

    def rule(j, s):
        # the top quarter by s_1 before rung 3, the bottom quarter before rung 5
        return s[:, 0] > high if j == 2 else s[:, 0] < low if j == 4 else np.zeros(len(s), dtype=bool)

    heights = []
    closed_form_max, pruned_max = submatrices._closed_form_max, submatrices._pruned_max
    monkeypatch.setattr(submatrices, "_closed_form_max", lambda tables, *a: heights.append(len(tables.views[0])) or closed_form_max(tables, *a))
    monkeypatch.setattr(submatrices, "_pruned_max", lambda tables, *a: heights.append(-len(tables.views[0])) or pruned_max(tables, *a))
    s = s_coefficients_batch(u3, stop=rule)
    plan = _plan_of(u3)
    assert len(heights) == len(plan)
    first, later = np.sum(full[:, 0] <= high), np.sum((full[:, 0] <= high) & (full[:, 0] >= low))
    assert 0 < later < first < len(u3)
    for height, (k, *_, sets) in zip(heights, plan):
        assert height == (first if k < 5 else later) * (1 if sets is None else -1), k
    assert any(h < 0 for h in heights)  # the pruned classes ran
    stayed = (full[:, 0] <= high) & (full[:, 0] >= low)
    assert np.array_equal(s[stayed], full[stayed])


def _split_rows(dim, seed):
    # X (+) Y, X a 3 x 3 and Y an (N - 3) x (N - 3) Haar draw, with rows i
    # and i + 3 (i = 0, 1, 2) turned by [[0.6, 0.8], [-0.8, 0.6]]. Each pair
    # spans X's row i, on columns 0-2, so its 2 x 3 block there has norm 1,
    # while the turned rows span all N columns, the others Y's N - 3, and
    # columns 0-2 span six rows: at N = 6 or N >= 8 the chain first reaches
    # 1 at k = 4, in the rung's first class
    x, y = (montecarlo._haar_batch(d, RngSeed(seed + i), 0, 1, False)[0][0] for i, d in enumerate((3, dim - 3)))
    turn = np.eye(dim)
    for i in range(3):
        turn[np.ix_([i, i + 3], [i, i + 3])] = [[0.6, 0.8], [-0.8, 0.6]]
    return turn @ _direct_sum(x, y)


@pytest.mark.parametrize("dim", [6, 8])
def test_a_row_that_saturates_inside_a_rung_leaves_before_its_next_entry(dim, monkeypatch):
    """Rows whose squared norm reaches 1 at rung 4's first class leave
    before its second, with or without a stop rule, and the entries after
    that run on the rows that stay. Every row returns its own chain, or
    the prefix the rule stopped it with."""
    u3 = montecarlo._haar_batch(dim, RngSeed(SEED + 1740 + dim), 0, 6, False)[0]
    u3[1::2] = [_split_rows(dim, SEED + 1750 + 2 * j) for j in range(3)]
    alone = np.array([s_coefficients_batch(u[None])[0] for u in u3])
    assert (alone[1::2, 2] < 1.0).all() and (alone[1::2, 3] == 1.0).all()
    assert (alone[::2, :-1] < 1.0).all()
    plan = _plan_of(u3)
    assert [entry[:3] for entry in plan if entry[0] == 4] == [(4, 2, 3), (4, 3, 2)]
    heights = []
    closed_form_max, pruned_max = submatrices._closed_form_max, submatrices._pruned_max
    monkeypatch.setattr(submatrices, "_closed_form_max", lambda tables, *a: heights.append(len(tables.views[0])) or closed_form_max(tables, *a))
    monkeypatch.setattr(submatrices, "_pruned_max", lambda tables, *a: heights.append(len(tables.views[0])) or pruned_max(tables, *a))
    # the rule stops Haar row 0 before rung 4
    for rule, stopped in ((None, 0), (lambda j, s: (j == 3) & (s[:, 0] == alone[0, 0]), 1)):
        heights.clear()
        s = s_coefficients_batch(u3, stop=rule)
        assert np.array_equal(s[stopped:], alone[stopped:])
        assert np.array_equal(s[:stopped, :3], alone[:stopped, :3]) and np.isnan(s[:stopped, 3:]).all()
        want = [6 if k < 4 else 6 - stopped if (k, m, n) == (4, 2, 3) else 3 - stopped for k, m, n, *_ in plan]
        assert heights == want, (rule, heights)


@pytest.mark.parametrize("dim", [8, 9])
def test_pruning_keeps_near_tolerance_s_bit_identical(dim, monkeypatch):
    # the complement bound leans on the unitarity tolerance through e = N UNITARITY_TOL
    u = _near_tolerance(haar_unitary(dim, RngSeed(SEED + 1640 + dim)), SEED + 1650 + dim, frac=0.95)
    assert unitarity_residual(u) <= UNITARITY_TOL
    assert np.array_equal(s_coefficients(u).s, _unpruned_s(u, monkeypatch))


def _no_symmetry(u3):
    # the detector's answer for an input without symmetry
    return np.zeros(len(submatrices._SHIFTS), dtype=bool)


def test_chunking_is_bit_identical(monkeypatch):
    # at N = 8 the pruned (4, 4) class runs in sub-chunks of one row set,
    # each against its matrix's floor
    for n, haar_count in ((5, 12), (6, 12), (8, 3)):
        haar = [haar_unitary(n, RngSeed(SEED + 800 + i)) for i in range(haar_count)]
        batch = np.stack(haar + [fourier_matrix(n)])
        default = s_coefficients_batch(batch)
        reduced = s_coefficients_batch(batch[-1:])
        monkeypatch.setattr(submatrices, "_CHUNK_ELEMENTS", 1)
        chunked = s_coefficients_batch(batch)
        chunked_single = s_coefficients_batch(batch[:1])[0]
        # F_N alone takes one block per translation orbit, in chunks too
        assert np.array_equal(s_coefficients_batch(batch[-1:]), reduced)
        monkeypatch.undo()
        assert np.array_equal(default, chunked)
        assert np.array_equal(chunked_single, default[0])
        # a stack led by a Haar draw visits every block, so F_N's row is
        # its single-matrix result on the full enumeration, as each Haar
        # row is its own: floors are per matrix
        monkeypatch.setattr(submatrices, "_translation_symmetry", _no_symmetry)
        for i, u in enumerate(batch):
            assert np.array_equal(s_coefficients_batch(u[None])[0], default[i])
        # the validated entry is the same kernel on a stack of one
        assert np.array_equal(s_coefficients(batch[0]).s, default[0])
        assert np.array_equal(s_coefficients(batch[-1]).s, default[-1])
        monkeypatch.undo()


def _haar_stack(n, count, seed):
    return montecarlo._haar_batch(n, RngSeed(seed), 0, count, False)[0]


@pytest.mark.parametrize("n,count", [(5, 700), (6, 300), (7, 64)])
def test_batch_sub_chunks_are_bit_identical(n, count, monkeypatch):
    # stacks that span several batch sub-chunks of the closed-form classes
    batch = _haar_stack(n, count, SEED + 850 + n)
    grams, classes = [], []
    column_grams, closed_form_max = submatrices._column_grams, submatrices._closed_form_max
    monkeypatch.setattr(submatrices, "_column_grams", lambda pairs, ind: grams.append(len(pairs[0])) or column_grams(pairs, ind))
    monkeypatch.setattr(submatrices, "_closed_form_max", lambda *a: classes.append(1) or closed_form_max(*a))
    default = s_coefficients_batch(batch)
    assert len(grams) > 2 * len(classes) and max(grams) < count
    monkeypatch.undo()
    for i, u in enumerate(batch):
        assert np.array_equal(s_coefficients_batch(u[None])[0], default[i])
    monkeypatch.setattr(submatrices, "_CHUNK_ELEMENTS", 1)
    assert np.array_equal(s_coefficients_batch(batch), default)


@pytest.mark.parametrize("n", [5, 6])
def test_closed_form_sub_chunks_stay_within_the_budget(n, monkeypatch):
    """What a closed-form sub-chunk of a 2048-stack keeps live, as tracemalloc
    reads it, fits _CHUNK_ELEMENTS: building the pair products, then the
    column Grams from them, and the Grams with the entries gathered for _top_eig_2x2 / _top_eig_3x3 and those
    functions' temporaries."""
    batch = _haar_stack(n, 2048, SEED + 870 + n)
    budget = 8 * submatrices._CHUNK_ELEMENTS  # bytes
    held, seen = [0], []

    def peak_of(fn, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before

    def spy_pairs(u3, fn=submatrices._pair_products):
        pairs, peak = peak_of(fn, u3)
        seen.append(("pairs", len(u3), peak))
        return pairs

    def spy_grams(pairs, indicator, fn=submatrices._column_grams):
        (re, im), peak = peak_of(fn, pairs, indicator)
        held[0] = re.nbytes + im.nbytes
        seen.append(("grams", len(re), pairs[0].nbytes + pairs[1].nbytes + peak))
        return re, im

    def spy_top(re, im, fn):
        out, peak = peak_of(fn, re, im)
        seen.append(("top", re.shape[2], held[0] + re.nbytes + im.nbytes + peak))
        # the closed forms keep at most 4 temporaries a block, both roots
        # taken: 2 + 4 or 6 + 4 of 3 m^2 elements
        top_peak.append((fn.__name__, peak / re[0].nbytes))
        return out

    top_peak = []
    monkeypatch.setattr(submatrices, "_pair_products", spy_pairs)
    monkeypatch.setattr(submatrices, "_column_grams", spy_grams)
    for name in ("_top_eig_2x2", "_top_eig_3x3"):
        fn = getattr(submatrices, name)
        monkeypatch.setattr(submatrices, name, lambda re, im, fn=fn: spy_top(re, im, fn))
    tracemalloc.start()
    try:
        s = s_coefficients_batch(batch)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert np.array_equal(s, s_coefficients_batch(batch))
    assert {kind for kind, _, _ in seen} == {"pairs", "grams", "top"}
    for kind, matrices, live in seen:
        assert 1 < matrices < 2048 and live <= budget, (kind, matrices, live)
    # n = 5 runs only the (2, 2) source; n = 6 adds the self-complementary
    # (2, 3), (3, 2) and (3, 3), each its own source
    assert {name for name, _ in top_peak} == {"_top_eig_2x2"} | (set() if n == 5 else {"_top_eig_3x3"})
    for name, per_block in top_peak:
        assert per_block <= (4.5 if name == "_top_eig_2x2" else 14.5), (name, per_block)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_closed_form_classes_stay_within_the_budget(n, monkeypatch):
    """A whole closed-form class of a 2048-stack, as tracemalloc reads it,
    fits _CHUNK_ELEMENTS: a row sub-chunk's gathered entries and eigenvalues
    are freed before the next one gathers its own or the next batch sub-chunk
    builds its Grams, with each class's bottom eigenvalues. Every n has a
    source class: at n = 4, class N's (2, 2) is its own."""
    batch = _haar_stack(n, 2048, SEED + 875 + n)
    seen = []
    closed_form_max = submatrices._closed_form_max

    def spy(tables, transposed, rows, indicator, entries):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = closed_form_max(tables, transposed, rows, indicator, entries)
        seen.append((rows.shape[1], indicator.shape[1], tracemalloc.get_traced_memory()[1] - before))
        return out

    monkeypatch.setattr(submatrices, "_closed_form_max", spy)
    tracemalloc.start()
    try:
        s_coefficients_batch(batch)
    finally:
        tracemalloc.stop()
    assert len(seen) == len(_plan_of(batch[:1])) > 0
    for m, ncols, peak in seen:
        assert peak <= 8 * submatrices._CHUNK_ELEMENTS, (m, ncols, peak)


@pytest.mark.parametrize("dim", [8, 9, 10])
def test_a_stack_of_one_keeps_the_whole_budget_sub_chunks(dim, monkeypatch):
    # one matrix: a row sub-chunk takes 250,000 elements at m^2 a block in
    # the closed forms, and at 8 a block in the det tier of the
    # pruned classes, which read their minors from the call's table,
    # whatever its Grams hold
    classes = []

    def note(rows, indicator):
        # the kernels take the smaller side as their row sets
        classes.append((rows.shape[1], len(rows), indicator.shape[1], []))

    def spy(fn, blocks):
        def run(*args, **kw):
            classes[-1][3].append(blocks(args[0]))
            return fn(*args, **kw)

        return run

    # blocks per row sub-chunk: one Gram entry each, or one bound each
    closed_form_max, pruned_max = submatrices._closed_form_max, submatrices._pruned_max
    monkeypatch.setattr(
        submatrices, "_closed_form_max", lambda tables, t, rows, ind, *rest: note(rows, ind) or closed_form_max(tables, t, rows, ind, *rest)
    )
    monkeypatch.setattr(
        submatrices,
        "_pruned_max",
        lambda tables, t, floor2, rows, ind, *rest: note(rows, ind) or pruned_max(tables, t, floor2, rows, ind, *rest),
    )
    monkeypatch.setattr(submatrices, "_top_eig_2x2", spy(submatrices._top_eig_2x2, lambda re: re[0].size))
    monkeypatch.setattr(submatrices, "_top_eig_3x3", spy(submatrices._top_eig_3x3, lambda re: re[0].size))
    bound = submatrices._complement_det
    monkeypatch.setattr(
        submatrices, "_complement_det", lambda minors, sets: classes[-1][3].append(minors.shape[1] * sets.shape[1]) or bound(minors, sets)
    )
    s_coefficients_batch(haar_unitary(dim, RngSeed(SEED + 880 + dim))[None])
    assert {m for m, _, _, _ in classes} == set(range(2, dim // 2 + 1))
    for m, nrows, ncols, steps in classes:
        rstep = max(1, 250_000 // (ncols * m * m if m <= 3 else 8 * ncols))
        assert steps == [ncols * min(rstep, nrows - r0) for r0 in range(0, nrows, rstep)], (m, nrows, ncols)


def test_grams_do_not_depend_on_batch():
    # numpy's complex multiply rounds differently on large arrays; 300
    # matrices are enough to show it
    for n in (5, 6):
        batch = np.stack([haar_unitary(n, RngSeed(SEED + 1000 + i)) for i in range(300)])
        indicator = submatrices._indicator(n, _combinations(n, 3))
        grams = np.stack(submatrices._column_grams(submatrices._pair_products(batch), indicator))
        alone = [np.stack(submatrices._column_grams(submatrices._pair_products(u[None]), indicator))[:, 0] for u in batch]
        assert np.array_equal(grams, np.stack(alone, axis=1))


@pytest.mark.parametrize("path", ["single", "batch"])
def test_bounded_repair(path):
    def s_of(u):
        return s_coefficients(u).s if path == "single" else s_coefficients_batch(u[None])[0]

    # N = 5, 6 take a (2, n) class from its complements, whose value for a
    # scaled identity has no overshoot; the strips still carry it into s
    for dim in (4, 5, 6):
        # an ulp-level overshoot of 1 is repaired ...
        assert np.array_equal(s_of(np.eye(dim) * (1.0 + 4.4e-16)), np.ones(dim))
        # ... a 1e-8 one is refused
        with pytest.raises(ValueError, match="unitarity" if path == "single" else "repair"):
            s_of(np.eye(dim) * (1.0 + 1e-8))


def test_repair_rejects_broken_monotonicity():
    with pytest.raises(ValueError, match="repair"):
        submatrices._finalize(np.array([[0.6, 0.5, 1.0]]))
    assert np.array_equal(submatrices._finalize(np.array([[0.6, 0.6 - 1e-16, 1.0]])), [[0.6, 0.6, 1.0]])
    # no entry is set without a bound: a last entry below 1 stays
    assert np.array_equal(submatrices._finalize(np.array([[0.5, 0.9]])), [[0.5, 0.9]])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("n", [3, 6, 8])
def test_batch_refuses_non_finite_input(n, value):
    # the trusted entry makes no input check of its own: eigvalsh fails on
    # the entry (LinAlgError is a ValueError) or the strips carry it into s,
    # which the bounded repair refuses
    u = F(n)
    u[1, 2] = value
    # alone and in a stack, whose strips share the network's planes
    for stack in (u[None], np.stack([u] * (8 * n))):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            s_coefficients_batch(stack)


def test_batch_takes_an_empty_stack():
    for n in (3, 5):
        assert s_coefficients_batch(np.zeros((0, n, n), dtype=complex)).shape == (0, n)


def test_entries_refuse_an_empty_dimension():
    with pytest.raises(ValueError, match="expected a square matrix"):
        s_coefficients(np.zeros((0, 0)))
    for batch in (0, 1):
        with pytest.raises(ValueError, match="expected a stack of square matrices"):
            s_coefficients_batch(np.zeros((batch, 0, 0)))


STRIP_INPUTS = {
    "haar": lambda dim: haar_unitary(dim, RngSeed(SEED + 1700 + dim)),
    "F": fourier_matrix,
    "I": lambda dim: np.eye(dim, dtype=complex),
    "P^(1/2)": lambda dim: permutation_power(dim, 0.5),
}


@pytest.mark.parametrize("name", list(STRIP_INPUTS))
@pytest.mark.parametrize("dim", range(2, 8))
def test_strip_maxima_match_the_oracle(dim, name):
    """Column k - 1 of the strip step is the largest squared norm over the
    1 x k and k x 1 shapes for k + 1 < N, over 1 x (N - 1) alone at class
    N, and 1 at class N + 1; the sorting network gives the bits of a sort
    and cumsum, and a stack's rows are those of each matrix alone."""
    u = STRIP_INPUTS[name](dim)
    got = submatrices._strip_maxima(u[None])[0]
    want = [max(max_norm_over_shape(u, 1, k), max_norm_over_shape(u, k, 1)) ** 2 for k in range(1, dim - 1)]
    want += [max_norm_over_shape(u, 1, dim - 1) ** 2, 1.0]
    assert got.shape == (dim,) and np.allclose(got, want, rtol=0, atol=1e-14), got - want
    assert got[-1] == 1.0
    draws, _ = montecarlo._haar_batch(dim, RngSeed(SEED + 1710 + dim), 0, 8 * dim - 1, False)
    stack = np.concatenate([u[None], draws])
    strips = submatrices._strip_maxima(stack)
    singles = np.concatenate([submatrices._strip_maxima(v[None]) for v in stack])
    assert np.array_equal(strips, singles)
    absq = np.abs(stack) ** 2
    rows, cols = (np.cumsum(np.sort(a, axis=2)[:, :, ::-1], axis=2).max(axis=1) for a in (absq, absq.swapaxes(1, 2)))
    rows[:, : dim - 2] = np.maximum(rows[:, : dim - 2], cols[:, : dim - 2])
    rows[:, -1] = 1.0
    assert np.array_equal(strips, rows)


# Comparators of Batcher's merge exchange at n = 1..16 (Knuth, TAOCP vol. 3,
# 5.2.2): the odd-even merge network of the next power of two, trimmed to n,
# has more at n = 9-12 (28, 32, 38, 42)
MERGE_EXCHANGE_SIZES = (0, 1, 3, 5, 9, 12, 16, 19, 26, 31, 37, 41, 48, 53, 59, 63)


@pytest.mark.parametrize("n", range(1, 17))
def test_sorting_network_sorts_every_0_1_vector(n):
    # the 0-1 principle: a comparator network that sorts every 0/1 vector
    # sorts every vector; n <= 16 reaches the largest N the known answers run
    network = submatrices._sorting_network(n)
    assert len(network) == MERGE_EXCHANGE_SIZES[n - 1]
    v = (np.arange(2**n) >> np.arange(n)[:, None]) & 1
    for i, j in network:
        assert 0 <= i < j < n
        v[i], v[j] = np.maximum(v[i], v[j]), np.minimum(v[i], v[j])
    assert np.all(np.diff(v, axis=0) <= 0)


def test_batch_agrees_with_oracle():
    batch = np.stack([haar_unitary(4, RngSeed(SEED + 300 + i)) for i in range(10)])
    s = s_coefficients_batch(batch)
    assert s.shape == (10, 4)
    for i in range(10):
        assert np.max(np.abs(s[i] - _oracle_s(batch[i]))) <= 1e-12


def test_batch_small_dims():
    for n in (2, 3):
        batch = np.stack([haar_unitary(n, RngSeed(SEED + 500 + n * 10 + i)) for i in range(10)])
        s = s_coefficients_batch(batch)
        assert s.shape == (10, n)
        for i in range(10):
            assert np.max(np.abs(s[i] - _oracle_s(batch[i]))) <= 1e-12


def test_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitarity residual"):
        s_coefficients(np.eye(3) * 0.99)


def _norm_above_one(eps=0.99e-10):
    # (I + eps J)^(1/2) F6 has unitarity residual eps, 9.9e-11 by default,
    # inside the tolerance, but norm (1 + 6 eps)^(1/2) = 1 + 3.0e-10
    c = np.expm1(0.5 * np.log1p(6 * eps)) / 6  # (I + cJ)^2 = I + eps J
    return (np.eye(6) + c * np.ones((6, 6))) @ fourier_matrix(6)


def test_rejects_norm_above_one():
    # the kernel pins s_N = 1, so the validated entry has to refuse it
    u = _norm_above_one()
    assert unitarity_residual(u) <= UNITARITY_TOL
    with pytest.raises(ValueError, match="s_N deviates from 1"):
        s_coefficients(u)


@pytest.mark.parametrize(
    "stack",
    [
        # two non-unitary matrices: the first one's residual is named
        [fourier_matrix(6), np.eye(6) * 0.99, np.eye(6) * 0.9],
        [fourier_matrix(6), _norm_above_one(), fourier_matrix(6)],
        [np.eye(13), np.eye(13)],
        # two norms above one, the first the smaller: the first is named
        [fourier_matrix(6), _norm_above_one(0.5e-10), _norm_above_one()],
    ],
    ids=["unitarity", "norm", "guard", "norm-first"],
)
def test_stack_check_raises_the_single_message(stack):
    with pytest.raises(ValueError) as single:
        s_coefficients(stack[1])
    with pytest.raises(ValueError) as batched:
        _checked_coefficients(np.array(stack, dtype=complex))
    assert str(batched.value) == str(single.value)


def _eigvalsh_norm_rule(u3):
    # the norm check with eigvalsh on every matrix: the message of the first
    # matrix whose norm exceeds 1 by more than UNITARITY_TOL, or None
    g = u3 @ u3.conj().swapaxes(-1, -2)
    excess = np.sqrt(np.maximum(np.linalg.eigvalsh(g)[:, -1], 0.0)) - 1.0
    bad = np.flatnonzero(~(excess <= UNITARITY_TOL))
    return f"s_N deviates from 1: the norm of u exceeds 1 by {excess[bad[0]]:.3e}" if bad.size else None


def _spy_gram_norm(monkeypatch):
    calls = []
    gram_norm = submatrices._gram_norm

    def spy(g):
        calls.append(np.shape(g))
        return gram_norm(g)

    monkeypatch.setattr(submatrices, "_gram_norm", spy)
    return calls


def test_norm_check_settles_unitary_stacks_from_the_gram(monkeypatch):
    # N r <= UNITARITY_TOL on Haar draws and on F_N, so no eigvalsh runs
    calls = _spy_gram_norm(monkeypatch)
    for n in range(2, 9):
        _checked_coefficients(montecarlo._haar_batch(n, RngSeed(SEED + n), 0, 16, False)[0])
    _checked_coefficients(np.array([fourier_matrix(6)] * 3))
    for n in range(2, 11):
        s_coefficients(fourier_matrix(n))
    assert calls == []


def _scaled_f6(t):
    # (1 + t) F6: residual 2t + t^2 and norm 1 + t
    return (1.0 + t) * fourier_matrix(6)


@pytest.mark.parametrize(
    "u, settled",
    [
        # N r = 6 (2t + t^2) on either side of UNITARITY_TOL: accepted both ways
        (_scaled_f6(0.999 * UNITARITY_TOL / 12), True),
        (_scaled_f6(1.001 * UNITARITY_TOL / 12), False),
        (_scaled_f6(0.49 * UNITARITY_TOL), False),
        # N r = 6 eps and norm (1 + 6 eps)^(1/2): settled and accepted below
        # eps = UNITARITY_TOL / 6, accepted by eigvalsh up to UNITARITY_TOL / 3
        # and refused above it
        (_norm_above_one(0.999 * UNITARITY_TOL / 6), True),
        (_norm_above_one(1.001 * UNITARITY_TOL / 6), False),
        (_norm_above_one(0.999 * UNITARITY_TOL / 3), False),
        (_norm_above_one(1.001 * UNITARITY_TOL / 3), False),
        (_norm_above_one(), False),
    ],
    ids=["scaled-below", "scaled-above", "scaled-far", "sqrt-below", "sqrt-above", "sqrt-accepted", "sqrt-refused", "sqrt-9.9e-11"],
)
def test_norm_check_matches_eigvalsh_on_both_sides_of_the_bound(u, settled, monkeypatch):
    u3 = u[None]
    r = unitarity_residual(u)
    assert r <= UNITARITY_TOL and (6 * r <= UNITARITY_TOL) == settled
    calls = _spy_gram_norm(monkeypatch)
    want = _eigvalsh_norm_rule(u3)
    if want is None:
        _checked_coefficients(u3)
    else:
        with pytest.raises(ValueError) as got:
            _checked_coefficients(u3)
        assert str(got.value) == want
    assert calls == ([] if settled else [(1, 6, 6)])


def test_stack_check_gives_the_single_coefficients():
    us = [haar_unitary(n, RngSeed(SEED + 40 + i)) for n in (3, 5) for i in range(4)]
    for n in (3, 5):
        stack = np.array([u for u in us if u.shape[0] == n])
        sc = _checked_coefficients(stack)
        assert sc.n == n and sc.s.shape == sc.r.shape == (len(stack), n)
        for u, s, r in zip(stack, sc.s, sc.r):
            single = s_coefficients(u)
            assert np.array_equal(s, single.s) and np.array_equal(r, single.r)


def test_dimension_guard():
    with pytest.raises(ValueError, match="allow_large"):
        s_coefficients(np.eye(13))
    # the flag is a pass-through below the guard
    u = haar_unitary(3, RngSeed(SEED))
    assert np.array_equal(s_coefficients(u, allow_large=True).s, s_coefficients(u).s)


def test_n8_runtime():
    u = haar_unitary(8, RngSeed(SEED + 900))
    t0 = time.monotonic()
    sc = s_coefficients(u)
    dt = time.monotonic() - t0
    assert sc.n == 8
    assert dt < 10.0
