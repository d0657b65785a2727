import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import eub.montecarlo as montecarlo
import eub.submatrices as submatrices
from eub import (
    RngSeed,
    cyclic_shift,
    fourier_matrix,
    haar_unitary,
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


def _all_blocks(u3, m, n, floor2):
    # _block_max over every m x n block, as for an input without symmetry
    dim = u3.shape[1]
    return submatrices._block_max(u3, m, n, floor2, _combinations(dim, m), _combinations(dim, n))


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
    [F(9), permutation_power(9, 1.0 / 3.0), _permuted(F(9)), _permuted(permutation_power(9, 1.0 / 3.0))],
    ids=["F9", "P9^(1/3)", "F9 permuted", "P9^(1/3) permuted"],
)
def test_pruning_keeps_tied_s_bit_identical(u, monkeypatch):
    # exact ties through the (4, 5) class: many blocks pass every tier, on
    # the representatives and (permuted) on the full enumeration
    assert np.array_equal(s_coefficients(u).s, _unpruned_s(u, monkeypatch))


def test_keep_test_gates_every_tier(monkeypatch):
    """With every keep test failing, a pruned class evaluates no block."""
    calls = []
    monkeypatch.setattr(submatrices, "_may_attain", lambda ub, thr: np.zeros(ub.shape, dtype=bool))
    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", lambda g: calls.append(g.shape))
    u = haar_unitary(9, RngSeed(SEED + 1150))
    for m, n in ((4, 4), (4, 5), (5, 4)):
        assert _all_blocks(u[None], m, n, np.zeros(1))[0] == 0.0
    assert calls == []


@pytest.mark.parametrize("u", [haar_unitary(9, RngSeed(SEED + 1170)), F(9)], ids=["haar9", "F9"])
def test_floor_is_a_squared_norm(u, monkeypatch):
    """A zero floor sends every block of a pruned class to eigvalsh; a floor
    lambda prunes every block whose top eigenvalue the bound puts below it."""
    seen = []
    top_eig = submatrices._top_eig_eigvalsh

    def spy(g):
        lam = top_eig(g)
        seen.append(lam.ravel())
        return lam

    monkeypatch.setattr(submatrices, "_top_eig_eigvalsh", spy)
    for m, n in ((4, 4), (4, 5), (5, 4)):
        seen.clear()
        top = _all_blocks(u[None], m, n, np.zeros(1))[0]
        lam = np.concatenate(seen)
        assert lam.size == math.comb(9, m) * math.comb(9, n)
        assert math.sqrt(top) == pytest.approx(max_norm_over_shape(u, m, n), abs=1e-12)
        # a 4 x 4 Gram has ub <= lambda_max * 4^(1/128) at H^64, the last tier
        floor2 = 0.9 * top
        reach = floor2 * (1.0 - 2 * PRUNE_SLACK) / 4.0 ** (1.0 / 2 ** (submatrices._MAX_SQUARINGS + 1))
        seen.clear()
        assert _all_blocks(u[None], m, n, np.array([floor2]))[0] == top
        assert sum(x.size for x in seen) <= np.count_nonzero(lam >= reach)


def test_embeddings_are_gathered_contiguous(monkeypatch):
    """Each row sub-chunk's embeddings come out of the gather C-contiguous,
    so flattening them is a view, and each is its block Gram's embedding."""
    seen = []
    survivors = submatrices._survivors

    def spy(h, floor2):
        seen.append(h)
        return survivors(h, floor2)

    monkeypatch.setattr(submatrices, "_survivors", spy)
    batch = np.stack([haar_unitary(8, RngSeed(SEED + 1190 + i)) for i in range(3)])
    _all_blocks(batch, 4, 4, np.zeros(3))
    combos = submatrices._combinations(8, 4)
    r0 = 0
    for h in seen:
        assert h.flags.c_contiguous and h.shape[:2] == (3, len(combos))
        assert np.shares_memory(h, h.reshape(-1, 8, 8))
        for b, c, r in ((0, 0, 0), (2, len(combos) - 1, h.shape[2] - 1)):
            x = batch[b][np.ix_(combos[r0 + r], combos[c])]
            g = x @ x.conj().T
            assert np.allclose(h[b, c, r], np.block([[g.real, -g.imag], [g.imag, g.real]]), rtol=0, atol=1e-14)
        r0 += h.shape[2]
    assert len(seen) > 1 and r0 == len(combos)


# The (2, n) and (n, 2) classes with N - n < n <= N - 2, each taken from
# the complements of the blocks of the source class named beside it
SERVED = {
    5: {(2, 3): (2, 2)},
    6: {(2, 4): (2, 2)},
    7: {(2, 5): (2, 2), (2, 4): (2, 3), (4, 2): (3, 2)},
    8: {(2, 6): (2, 2), (2, 5): (2, 3), (5, 2): (3, 2)},
    9: {(2, 7): (2, 2), (2, 6): (2, 3), (6, 2): (3, 2), (2, 5): (2, 4), (5, 2): (4, 2)},
}


def _enumerated(plan):
    # the plan's enumerated classes in run order, (m, n, rows, cols, low)
    return [(m, n, *how) for entries in plan for m, n, how in entries if how is not None and len(how) == 3]


def _served(plan):
    # the plan's served classes, {shape: source}
    return {(m, n): how for entries in plan for m, n, how in entries if how is not None and len(how) == 2}


def _plan_of(u3):
    # the plan the kernel runs for a stack
    return submatrices._class_plan(u3.shape[1], tuple(_translation_symmetry(u3).tolist()))


@pytest.mark.parametrize("dim", [5, 6, 7, 8, 9])
def test_class_loop_runs_each_block_shape_once(dim):
    """Classes below N run every block shape but the served ones; class N
    runs m <= n only. Only the sources take their bottom eigenvalues."""
    plan = _plan_of(haar_unitary(dim, RngSeed(SEED + 1180 + dim))[None])
    runs = _enumerated(plan)
    shapes = {(m, n): (rows, cols) for m, n, rows, cols, _ in runs}
    below = [(m, k - m) for k in range(4, dim) for m in range(2, k - 1)]
    at_n = [(m, dim - m) for m in range(2, dim // 2 + 1)]
    served = SERVED[dim]
    assert _served(plan) == served
    assert len(runs) == len(shapes) and sorted(shapes) == sorted(set(below + at_n) - set(served))
    assert {(m, n) for m, n, _, _, low in runs if low} == set(served.values())
    if dim % 2 == 0:
        # the self-complementary shape runs the row sets containing index 0,
        # one of each complementary pair, against every column set
        half, cols = shapes.pop((dim // 2, dim // 2))
        assert half.shape == (math.comb(dim - 1, dim // 2 - 1), dim // 2) and np.all(half[:, 0] == 0)
        assert len({tuple(r) for r in half}) == half.shape[0]
        assert cols is _combinations(dim, dim // 2)
    # every other shape runs every row set against every column set
    assert all(rows is _combinations(dim, m) and cols is _combinations(dim, n) for (m, n), (rows, cols) in shapes.items())


REACHABLE_SYMMETRIES = [(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("sym", REACHABLE_SYMMETRIES)
@pytest.mark.parametrize("dim", range(2, 13))
def test_class_plan_lists_each_shape_once(dim, sym):
    """Each shape of classes 2..N once (class N with m <= n only), sources
    enumerated before the classes they serve, strips first, min(m, n) never
    falling, and the row and column set counts of the reductions."""
    sym = tuple(bool(x) for x in sym)
    plan = submatrices._class_plan(dim, sym)
    assert len(plan) == dim - 1
    enumerated = {(m, n): (rows, cols, low) for m, n, rows, cols, low in _enumerated(plan)}
    for k, entries in enumerate(plan, 1):
        shapes = [(m, n) for m, n, _ in entries]
        want = {(m, k + 1 - m) for m in range(1, k + 1) if k + 1 < dim or 2 * m <= k + 1}
        assert len(shapes) == len(want) and set(shapes) == want, k
        sides = [min(shape) for shape in shapes]
        assert sides == sorted(sides), k
        for m, n, how in entries:
            assert (how is None) == (min(m, n) == 1), (m, n)
            if how is not None and len(how) == 2:
                # served: from the (2, N - n) column complements or the (N - m, 2) row complements
                assert how == ((2, dim - n) if m == 2 else (dim - m, 2)) and 2 in (m, n), (m, n)
                assert sum(how) - 1 < k and enumerated[how][2], (m, n, how)
    served = _served(plan)
    assert {shape for shape, (_, _, low) in enumerated.items() if low} == set(served.values())
    if dim in SERVED:
        assert served == SERVED[dim]
    by_rows, by_cols, diagonal = sym
    for (m, n), (rows, cols, _) in enumerated.items():
        # the diagonal shift alone reduces the smaller side
        reduce_rows = by_rows or diagonal and not by_cols and m <= n
        reduce_cols = by_cols or diagonal and not by_rows and m > n
        whole = math.comb(dim - 1, m - 1) if 2 * m == dim == m + n else math.comb(dim, m)  # half class
        assert len(rows) == (_necklace_count(dim, m) if reduce_rows else whole), (m, n)
        assert len(cols) == (_necklace_count(dim, n) if reduce_cols else math.comb(dim, n)), (m, n)
        assert rows.shape[1:] == (m,) and cols.shape[1:] == (n,)
        assert not rows.flags.writeable and not cols.flags.writeable
    assert submatrices._class_plan(dim, sym) is plan


BLOCK_MAX_INPUTS = {
    **{f"haar{dim}": haar_unitary(dim, RngSeed(SEED + 1190 + dim)) for dim in range(5, 10)},
    "F8": F(8),
    "P8^(1/2)": permutation_power(8, 0.5),
    "F8 rows permuted": F(8)[PERM_ROWS[8]],
    "F8 columns permuted": F(8)[:, PERM_COLS[8]],
}


@pytest.mark.parametrize("name", list(BLOCK_MAX_INPUTS))
def test_kernel_runs_the_plan(name, monkeypatch):
    """_block_max is called on exactly the plan's enumerated classes, in
    order, with the plan's own arrays, and with low by keyword for the
    sources only."""
    u3 = np.asarray(BLOCK_MAX_INPUTS[name], dtype=complex)[None]
    calls = []
    block_max = submatrices._block_max

    def spy(u3, m, n, floor2, rows, cols, **kw):
        calls.append((m, n, rows, cols, kw))
        return block_max(u3, m, n, floor2, rows, cols, **kw)

    monkeypatch.setattr(submatrices, "_block_max", spy)
    s_coefficients_batch(u3)
    want = _enumerated(_plan_of(u3))
    assert len(calls) == len(want)
    for (m, n, rows, cols, kw), (pm, pn, prows, pcols, low) in zip(calls, want):
        assert (m, n) == (pm, pn) and rows is prows and cols is pcols, (m, n)
        assert kw == ({"low": True} if low else {}), (m, n)


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
    # a served class's complements of its source's, and at m + n = N with
    # m > n the complements of the (n, m) blocks
    full = set(range(dim))

    def flip(sets):
        return [full - set(x) for x in sets]

    enumerated = {(a, b): (rows, cols) for a, b, rows, cols, _ in _enumerated(plan)}
    served = _served(plan)
    if (m, n) in enumerated:
        rows, cols = enumerated[m, n]
    elif (m, n) in served:
        rows, cols = enumerated[served[m, n]]
        rows, cols = (rows, flip(cols)) if m == 2 else (flip(rows), cols)
    else:
        assert m + n == dim and m > n, (m, n)
        return {(tuple(sorted(full - set(r))), tuple(sorted(full - set(c)))) for r, c in _visited(plan, dim, n, m)}
    return {(tuple(sorted(r)), tuple(sorted(c))) for r in rows for c in cols}


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
    plan = submatrices._class_plan(dim, tuple(bool(x) for x in sym))
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
    # complementary pair in the self-complementary class), "reduced" when
    # all visit fewer
    dim = u3.shape[1]
    seen = [
        (rows is _combinations(dim, m) or rows.base is _combinations(dim, m)) and cols is _combinations(dim, n)
        for m, n, rows, cols, _ in _enumerated(_plan_of(u3))
    ]
    assert seen and (all(seen) or not any(seen))
    return "full" if all(seen) else "reduced"


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
        # one side reduced: the column sets, then the row sets
        "F rows permuted": F(dim)[rng.permutation(dim)],
        "F columns permuted": F(dim)[:, rng.permutation(dim)],
    }
    bound = np.arange(2, dim + 2) * SYMMETRY_TOL + 8 * np.finfo(float).eps
    for name, u in cases.items():
        assert _translation_symmetry(u[None]).any(), name
        reduced = s_coefficients_batch(u[None])[0]
        with monkeypatch.context() as mp:
            mp.setattr(submatrices, "_translation_symmetry", _no_symmetry)
            full = s_coefficients_batch(u[None])[0]
        assert np.all(np.abs(reduced - full) <= bound), (name, np.abs(reduced - full).max())


def _served_lambda(u, shape, sym):
    # a served class's maximum squared norm as the kernel takes it: 1 minus
    # the least bottom eigenvalue over its source class's blocks
    plan = submatrices._class_plan(len(u), tuple(sym.tolist()))
    source = _served(plan)[shape]
    rows, cols, low = {(m, n): how for m, n, *how in _enumerated(plan)}[source]
    assert low
    return 1.0 - submatrices._block_max(u[None], *source, np.zeros(1), rows, cols, low=True)[1][0]


@pytest.mark.parametrize("dim", range(5, 10))
def test_complement_classes_match_the_oracle_on_haar(dim):
    """Every served class, (2, n) and (n, 2), agrees with one-block-at-a-time
    enumeration; at N <= 7 the whole chain does too."""
    for i in range(2):
        u = haar_unitary(dim, RngSeed(SEED + 1400 + dim, i))
        for shape in SERVED[dim]:
            top = math.sqrt(_served_lambda(u, shape, _no_symmetry(u[None])))
            assert top == pytest.approx(max_norm_over_shape(u, *shape), abs=1e-12), shape
        if dim <= 7:
            assert np.max(np.abs(s_coefficients(u).s - _oracle_s(u))) <= 1e-12


def _degenerate(dim):
    # inputs whose Grams have repeated eigenvalues, zero ones among them
    half = dim // 2
    return {
        "F": F(dim),
        "perm": np.eye(dim)[np.random.default_rng(SEED + dim).permutation(dim)],
        "I": np.eye(dim, dtype=complex),
        "haar+haar": _direct_sum(
            haar_unitary(half, RngSeed(SEED + 1450 + dim)), haar_unitary(dim - half, RngSeed(SEED + 1460 + dim))
        ),
        "P^(1/2) dephased": _dephased(permutation_power(dim, 0.5), SEED + 1470 + dim),
    }


@pytest.mark.parametrize("path", ["reduced", "full"])
@pytest.mark.parametrize("dim", range(5, 9))
def test_complement_classes_match_the_oracle_on_degenerate_grams(dim, path, monkeypatch):
    """Degenerate Grams through the served classes, on the representatives
    of a translation symmetry and on every block; at N <= 7 the whole chain
    of both fast paths agrees with the oracle too."""
    for name, u in _degenerate(dim).items():
        sym = _translation_symmetry(u[None]) if path == "reduced" else _no_symmetry(u[None])
        for shape in SERVED[dim]:
            top = math.sqrt(_served_lambda(u, shape, sym))
            assert top == pytest.approx(max_norm_over_shape(u, *shape), abs=1e-12), (name, shape)
        if dim <= 7:
            with monkeypatch.context() as mp:
                if path == "full":
                    mp.setattr(submatrices, "_translation_symmetry", _no_symmetry)
                ref = _oracle_s(u)
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


def _enumerated_plan(dim, sym, plan=submatrices._class_plan):
    # the plan with every served class enumerated over every block, and no
    # source taking its bottom eigenvalues; for inputs without symmetry
    def every_block(m, n, how):
        if how is None:
            return how
        return (_combinations(dim, m), _combinations(dim, n), False) if len(how) == 2 else (*how[:2], False)

    return tuple(tuple((m, n, every_block(m, n, how)) for m, n, how in entries) for entries in plan(dim, sym))


@pytest.mark.parametrize("dim", range(5, 9))
def test_complement_classes_near_the_unitarity_tolerance(dim, monkeypatch):
    """With residuals r at 0.5-0.9 UNITARITY_TOL, a served class is within
    2 r of the direct maximum of its blocks (r of U U^dag - I for (2, n),
    of U^dag U - I for (n, 2)), s^2 within 2 r of s^2 with every class
    enumerated, and s_coefficients needs no repair it cannot make."""
    base = {"haar": haar_unitary(dim, RngSeed(SEED + 1500 + dim)), "perm": _degenerate(dim)["perm"]}
    eps = 8 * np.finfo(float).eps
    for name, u0 in base.items():
        u = _near_tolerance(u0, SEED + 1510 + dim)
        by_rows, by_cols = _residuals(u)
        assert 0.5 * UNITARITY_TOL <= max(by_rows, by_cols) <= 0.9 * UNITARITY_TOL, name
        assert unitarity_residual(u) <= UNITARITY_TOL
        assert not _translation_symmetry(u[None]).any(), name
        for shape in SERVED[dim]:
            r = by_rows if shape[0] == 2 else by_cols
            direct = _all_blocks(u[None], *shape, np.zeros(1))[0]
            assert abs(_served_lambda(u, shape, _no_symmetry(u[None])) - direct) <= 2 * r + eps, (name, shape)
        s = s_coefficients(u).s
        with monkeypatch.context() as mp:
            mp.setattr(submatrices, "_class_plan", _enumerated_plan)
            enumerated = s_coefficients(u).s
        assert np.max(np.abs(s**2 - enumerated**2)) <= 2 * max(by_rows, by_cols) + eps, name
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
        # the smallest squared floor at N <= 12: a block must still pass
        # every tier with lambda_max = 1/12
        "top_1/12": spectrum(1.0 / 12.0, *(t / 12.0 for t in tail), 0.0),
    }
    for e in range(4, 11):
        cases[f"top_gap_1e-{e}"] = spectrum(1.0, 1.0 - 10.0**-e, *tail)
    return cases


def test_top_eig_3x3_matches_eigvalsh():
    cases = _hermitian_cases(3)
    h = np.array(list(cases.values()), dtype=complex)
    ti, tj = np.triu_indices(3)
    got = _top_eig_3x3(h[:, ti, tj].real.T, h[:, ti, tj].imag.T)
    err = np.abs(got - np.linalg.eigvalsh(h)[:, -1])
    assert err.max() <= 8 * np.finfo(float).eps, dict(zip(cases, err))


def _embeddings(h):
    # real embeddings of a stack of m x m Grams, gathered as the kernel does
    m = h.shape[-1]
    ti, tj = np.triu_indices(m)
    src = submatrices._embedding(h[:, ti, tj].real.T[None], h[:, ti, tj].imag.T[None])
    return np.take(src, submatrices._embedding_index(submatrices._combinations(m, m), m), axis=2)[0, :, 0]


@pytest.mark.parametrize("m", [4, 5, 6])
def test_power_bound_caps_eigvalsh(m):
    rng = np.random.default_rng(SEED + m)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    g = x @ x.conj().T / np.linalg.norm(x, 2) ** 2
    cases = {"random": 0.5 * (g + g.conj().T), **_hermitian_cases(m)}
    h = np.array(list(cases.values()), dtype=complex)
    emb = _embeddings(h)
    assert np.array_equal(emb, np.block([[h.real, -h.imag], [h.imag, h.real]]))
    top = np.linalg.eigvalsh(h)[:, -1]
    # a NaN Gram has a NaN bound at every tier, and the keep test keeps it
    h[0, 0, 1], h[0, 1, 0] = np.nan, np.nan
    nan_emb = _embeddings(h[:1])
    hp, nan_hp = emb, nan_emb
    for squarings in range(1, submatrices._MAX_SQUARINGS + 1):
        hp, nan_hp = hp @ hp, nan_hp @ nan_hp
        if squarings < submatrices._SQUARINGS:
            continue
        ub = submatrices._power_bound(hp, squarings)
        # ub is an exact bound in real arithmetic and may miss by rounding;
        # half the slack keeps the attaining block in the class
        assert np.all(top <= ub * (1.0 + PRUNE_SLACK / 2)), (squarings, dict(zip(cases, top - ub)))
        assert not submatrices._may_attain(ub[list(cases).index("zero")], 0.5)
        nan_ub = submatrices._power_bound(nan_hp, squarings)
        assert np.isnan(nan_ub[0]) and submatrices._may_attain(nan_ub[0], 0.5)
        if squarings == submatrices._SQUARINGS:
            first = ub
    # all tiers together: a block passes at a floor at or below its top
    # eigenvalue, the NaN block at any floor, the zero block at none; two
    # matrices in one stack, each against its own floor
    stack = np.concatenate([nan_emb, emb])
    floors = np.array([0.5, 1.0 / 12.0])
    alive = submatrices._survivors(np.stack([stack, stack])[:, None], floors)
    kept = [{int(a) - i * len(stack) for a in alive if a // len(stack) == i} for i in range(2)]
    for floor2, mine in zip(floors, kept):
        must = {0} | {1 + i for i in np.flatnonzero(top >= floor2)}
        assert must <= mine and 1 + list(cases).index("zero") not in mine
    low = 1 + list(cases).index("top_1/12")
    assert low not in kept[0] and low in kept[1]
    # the later tiers prune what the first keeps: a double top eigenvalue 0.8
    # has ub = 0.8 * 2^(1/16) = 0.836 at H^8 but 0.8 * 2^(1/128) = 0.804 at H^64
    double = list(cases).index("double_top")
    assert submatrices._may_attain(0.8 * first[double], 0.816)
    assert not submatrices._survivors(0.8 * emb[None, None, double : double + 1], np.array([0.816])).size


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
    column_grams, block_max = submatrices._column_grams, submatrices._block_max
    monkeypatch.setattr(submatrices, "_column_grams", lambda u3, ind: grams.append(len(u3)) or column_grams(u3, ind))
    monkeypatch.setattr(submatrices, "_block_max", lambda *a, **kw: classes.append(1) or block_max(*a, **kw))
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
    reads it, fits _CHUNK_ELEMENTS: building the column Grams, and the Grams
    with the entries gathered for _top_eig_2x2 / _top_eig_3x3 and those
    functions' temporaries."""
    batch = _haar_stack(n, 2048, SEED + 870 + n)
    budget = 8 * submatrices._CHUNK_ELEMENTS  # bytes
    held, seen = [0], []

    def peak_of(fn, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before

    def spy_grams(u3, indicator, fn=submatrices._column_grams):
        (re, im), peak = peak_of(fn, u3, indicator)
        held[0] = re.nbytes + im.nbytes
        seen.append(("grams", len(u3), peak))
        return re, im

    def spy_top(re, im, fn, **kw):
        lam, peak = peak_of(functools.partial(fn, **kw), re, im)
        seen.append(("top", re.shape[2], held[0] + re.nbytes + im.nbytes + peak))
        # the closed forms keep at most 4 temporaries a block, with or
        # without the bottom eigenvalue: 2 + 4 or 6 + 4 of 3 m^2 elements
        top_peak.append((fn.__name__, bool(kw), peak / re[0].nbytes))
        return lam

    top_peak = []
    monkeypatch.setattr(submatrices, "_column_grams", spy_grams)
    for name in ("_top_eig_2x2", "_top_eig_3x3"):
        fn = getattr(submatrices, name)
        monkeypatch.setattr(submatrices, name, lambda re, im, fn=fn, **kw: spy_top(re, im, fn, **kw))
    tracemalloc.start()
    try:
        s = s_coefficients_batch(batch)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert np.array_equal(s, s_coefficients_batch(batch))
    assert {kind for kind, _, _ in seen} == {"grams", "top"}
    for kind, matrices, live in seen:
        assert 1 < matrices < 2048 and live <= budget, (kind, matrices, live)
    # n = 5 runs only the (2, 2) source; n = 6 adds the direct (2, 3), (3, 2) and (3, 3)
    kinds = {(name, low) for name, low, _ in top_peak}
    direct = set() if n == 5 else {("_top_eig_2x2", False), ("_top_eig_3x3", False)}
    assert kinds == {("_top_eig_2x2", True)} | direct
    for name, low, per_block in top_peak:
        assert per_block <= (4.5 if name == "_top_eig_2x2" else 14.5), (name, low, per_block)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_closed_form_classes_stay_within_the_budget(n, monkeypatch):
    """A whole closed-form class of a 2048-stack, as tracemalloc reads it,
    fits _CHUNK_ELEMENTS: a row sub-chunk's gathered entries and eigenvalues
    are freed before the next one gathers its own or the next batch sub-chunk
    builds its Grams, and a source's bottom eigenvalues fit too. n = 4 has no
    source class."""
    batch = _haar_stack(n, 2048, SEED + 875 + n)
    seen = []
    block_max = submatrices._block_max

    def spy(*args, **kw):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = block_max(*args, **kw)
        seen.append((args[1:3], kw.get("low", False), tracemalloc.get_traced_memory()[1] - before))
        return out

    monkeypatch.setattr(submatrices, "_block_max", spy)
    tracemalloc.start()
    try:
        s_coefficients_batch(batch)
    finally:
        tracemalloc.stop()
    assert any(low for _, low, _ in seen) == (n >= 5)
    for shape, low, peak in seen:
        assert peak <= 8 * submatrices._CHUNK_ELEMENTS, (shape, low, peak)


@pytest.mark.parametrize("dim", [8, 9, 10])
def test_a_stack_of_one_keeps_the_whole_budget_sub_chunks(dim, monkeypatch):
    # one matrix: a row sub-chunk takes 250,000 elements at m^2 a block in
    # the closed forms and 16 m^2 in the power bound, whatever its Grams hold
    classes = []
    block_max = submatrices._block_max

    def spy_block_max(u3, m, n, floor2, rows, cols, low=False):
        small, large = (rows, cols) if m <= n else (cols, rows)
        classes.append((min(m, n), len(small), len(large), []))
        return block_max(u3, m, n, floor2, rows, cols, low=low)

    def spy(fn, blocks):
        def run(*args, **kw):
            classes[-1][3].append(blocks(args[0]))
            return fn(*args, **kw)

        return run

    # blocks per row sub-chunk: one Gram entry each, or one embedding each
    monkeypatch.setattr(submatrices, "_block_max", spy_block_max)
    monkeypatch.setattr(submatrices, "_top_eig_2x2", spy(submatrices._top_eig_2x2, lambda re: re[0].size))
    monkeypatch.setattr(submatrices, "_top_eig_3x3", spy(submatrices._top_eig_3x3, lambda re: re[0].size))
    monkeypatch.setattr(submatrices, "_survivors", spy(submatrices._survivors, lambda h: math.prod(h.shape[:3])))
    s_coefficients_batch(haar_unitary(dim, RngSeed(SEED + 880 + dim))[None])
    assert {m for m, _, _, _ in classes} == set(range(2, dim // 2 + 1))
    for m, nrows, ncols, steps in classes:
        rstep = max(1, 250_000 // (ncols * m * m * (1 if m <= 3 else 16)))
        assert steps == [ncols * min(rstep, nrows - r0) for r0 in range(0, nrows, rstep)], (m, nrows, ncols)


def test_grams_do_not_depend_on_batch():
    # numpy's complex multiply rounds differently on large arrays; 300
    # matrices are enough to show it
    for n in (5, 6):
        batch = np.stack([haar_unitary(n, RngSeed(SEED + 1000 + i)) for i in range(300)])
        indicator = submatrices._indicator(n, _combinations(n, 3))
        grams = np.stack(submatrices._column_grams(batch, indicator))
        alone = [np.stack(submatrices._column_grams(u[None], indicator))[:, 0] for u in batch]
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
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        s_coefficients_batch(u[None])


def test_batch_takes_an_empty_stack():
    for n in (3, 5):
        assert s_coefficients_batch(np.zeros((0, n, n), dtype=complex)).shape == (0, n)


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


def _norm_above_one():
    # (I + eps J)^(1/2) F6 has unitarity residual eps = 9.9e-11, inside the
    # tolerance, but norm (1 + 6 eps)^(1/2) = 1 + 3.0e-10
    eps = 0.99e-10
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
    ],
    ids=["unitarity", "norm", "guard"],
)
def test_stack_check_raises_the_single_message(stack):
    with pytest.raises(ValueError) as single:
        s_coefficients(stack[1])
    with pytest.raises(ValueError) as batched:
        _checked_coefficients(np.array(stack, dtype=complex))
    assert str(batched.value) == str(single.value)


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
