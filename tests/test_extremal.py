import math

import numpy as np
import pytest

import eub
from eub import (
    RngSeed,
    SubspacePair,
    cross_gram,
    deutsch_max_product,
    haar_unitary,
    lemma_max_value,
    maximizing_state,
    pair_objective,
    rotation_matrix,
)

SEED = 424242


def random_pair(n, seed, m1=None, m2=None):
    rng = np.random.default_rng(seed)
    m1 = m1 or int(rng.integers(1, n + 1))
    m2 = m2 or int(rng.integers(1, n + 1))
    u1 = haar_unitary(n, RngSeed(seed, stream=1))
    u2 = haar_unitary(n, RngSeed(seed, stream=2))
    return SubspacePair(u1[:m1], u2[:m2])


def test_cross_gram_shape_and_entries():
    e0 = np.array([[1.0, 0.0, 0.0]], dtype=complex)
    e01 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    a = cross_gram(SubspacePair(e0, e01))
    assert a.shape == (2, 1)
    assert a[0, 0] == pytest.approx(1.0)
    assert a[1, 0] == pytest.approx(0.0)


def test_lemma_value_aligned_and_orthogonal():
    e0 = np.array([[1.0, 0.0]], dtype=complex)
    e1 = np.array([[0.0, 1.0]], dtype=complex)
    assert lemma_max_value(SubspacePair(e0, e0)) == pytest.approx(2.0, abs=1e-14)
    assert lemma_max_value(SubspacePair(e0, e1)) == pytest.approx(1.0, abs=1e-14)


def test_lemma_value_full_bases():
    # two complete bases always give sigma_1 = 1
    u1 = haar_unitary(4, RngSeed(SEED, stream=5))
    u2 = haar_unitary(4, RngSeed(SEED, stream=6))
    assert lemma_max_value(SubspacePair(u1, u2)) == pytest.approx(2.0, abs=1e-12)


def test_orthonormality_validation():
    bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormality residual"):
        SubspacePair(bad, np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="orthonormality residual"):
        SubspacePair(np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex))
    # a stack whose pairs 1 and 3 fail names pair 1's residual, here of its second set
    good = np.eye(2, dtype=complex)
    firsts, seconds = np.array([good, good, good, bad]), np.array([good, 1.5 * good, good, good])
    with pytest.raises(ValueError, match=r"^second set orthonormality residual 1\.250e\+00$"):
        SubspacePair(firsts, seconds)
    with pytest.raises(ValueError, match="different ambient dimensions or stacks"):
        SubspacePair(firsts, seconds[:3])


@pytest.mark.parametrize(
    "first, second, label",
    [
        (np.zeros((0, 3)), np.eye(3), "first"),
        (np.eye(3)[:1], np.zeros((0, 3)), "second"),
        (np.zeros((2, 0, 3)), np.stack([np.eye(3)] * 2), "first"),
    ],
    ids=["first", "second", "stack"],
)
def test_empty_set_is_refused_by_name(first, second, label):
    with pytest.raises(ValueError, match=rf"^{label} set is empty$"):
        SubspacePair(first, second)


def test_maximizing_state_postconditions():
    for i in range(40):
        n = 2 + i % 5
        sp = random_pair(n, SEED + i)
        psi = maximizing_state(sp)
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-12
        top = lemma_max_value(sp)
        assert pair_objective(sp, psi) == pytest.approx(top, abs=1e-10)
        # projections onto the two subspaces carry equal weight
        w1 = float((np.abs(sp.first_set.conj() @ psi) ** 2).sum())
        w2 = float((np.abs(sp.second_set.conj() @ psi) ** 2).sum())
        assert abs(w1 - w2) <= 1e-10


def test_objective_never_exceeds_lemma_value():
    rng = np.random.default_rng(SEED)
    for i in range(20):
        n = 2 + i % 5
        sp = random_pair(n, SEED + 100 + i)
        top = lemma_max_value(sp)
        for _ in range(300):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            assert pair_objective(sp, psi) <= top + 1e-10


def test_block_matrix_eigenvalue_identity():
    """lambda_max of [[I, A*], [A, I]] equals 1 + sigma_1(A)."""
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        a *= 0.5 / max(1.0, np.linalg.norm(a, 2))  # keep sigma_1 < 1
        block = np.block([[np.eye(m), a.conj().T], [a, np.eye(n)]])
        lam = np.linalg.eigvalsh(block)[-1]
        s1 = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(lam - (1.0 + s1)) <= 1e-12


def test_deutsch_max_product_values():
    r = rotation_matrix(math.pi / 4)
    assert deutsch_max_product(r) == pytest.approx(0.7285533905932737, abs=1e-15)
    assert deutsch_max_product(np.eye(3)) == pytest.approx(1.0, abs=1e-15)


def test_deutsch_max_product_attained():
    # the one-dimensional pair built at the largest entry attains the product
    for i in range(20):
        n = 2 + i % 4
        u = haar_unitary(n, RngSeed(SEED + 300 + i))
        j_star, i_star = np.unravel_index(int(np.abs(u).argmax()), u.shape)
        first = np.zeros((1, n), dtype=complex)
        first[0, i_star] = 1.0
        second = u[j_star : j_star + 1, :].conj()
        psi = maximizing_state(SubspacePair(first, second))
        p = abs(psi[i_star]) ** 2
        q = abs((u @ psi)[j_star]) ** 2
        assert p * q == pytest.approx(deutsch_max_product(u), abs=1e-10)


def _unit_states(rng, count, n):
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=complex).view(float).ravel().tolist()]


def test_pair_objective_stack_rows_match_single_calls():
    # one value per row, each to the bits of the one-state call; a 1-d state
    # still gives a float. A stack of four pairs (or four unitaries) gives
    # each pair the bits of its own lemma value, state, objective and product.
    rng = np.random.default_rng(SEED)
    for n in range(2, 9):
        for j in range(4):
            sp = random_pair(n, SEED + 500 + 10 * n + j)
            states = _unit_states(rng, 50, n)
            stacked = pair_objective(sp, states)
            assert stacked.shape == (50,)
            singles = [pair_objective(sp, psi) for psi in states]
            assert all(type(v) is float for v in singles)
            assert [float(v).hex() for v in stacked] == [v.hex() for v in singles]
            assert pair_objective(sp, states[:1]).shape == (1,)
        for m1, m2 in ((1, 1), (1, n), (n, 1 + n // 2), (n, n)):
            pairs = [random_pair(n, SEED + 700 + 10 * n + j, m1, m2) for j in range(4)]
            sp = SubspacePair([p.first_set for p in pairs], [p.second_set for p in pairs])
            assert _hex(cross_gram(sp)) == _hex([cross_gram(p) for p in pairs])
            assert _hex(lemma_max_value(sp)) == _hex([lemma_max_value(p) for p in pairs])
            psi = maximizing_state(sp)
            assert psi.shape == (4, n) and _hex(psi) == _hex([maximizing_state(p) for p in pairs])
            assert _hex(pair_objective(sp, psi)) == _hex([pair_objective(p, v) for p, v in zip(pairs, psi)])
        us = np.array([haar_unitary(n, RngSeed(SEED + 800 + n, stream=j)) for j in range(3)] + [np.eye(n)])
        assert all(type(deutsch_max_product(u)) is float for u in us)
        assert _hex(deutsch_max_product(us)) == _hex([deutsch_max_product(u) for u in us])


def test_pair_objective_refuses_a_state_off_the_unit_sphere():
    # a longer state would exceed the lemma's maximum: 2 e1 against the pair
    # (e1, e2) gives 4, where the maximum is 1 + sigma_1 = 1
    e1 = np.array([[1.0, 0.0]], dtype=complex)
    e2 = np.array([[0.0, 1.0]], dtype=complex)
    sp = SubspacePair(e1, e2)
    assert lemma_max_value(sp) == 1.0
    with pytest.raises(ValueError, match=r"state norm squared 4\.0 deviates from 1 beyond 1e-12"):
        pair_objective(sp, 2.0 * e1[0])
    with pytest.raises(ValueError, match="state norm squared nan"):
        pair_objective(sp, np.array([math.nan, 1.0]))
    # the first bad row of a stack names its own norm
    rows = np.array([[1.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=r"state norm squared 9\.0 deviates"):
        pair_objective(sp, rows)


def test_pair_objective_takes_the_last_axis_as_the_state():
    sp = random_pair(3, SEED + 900)
    with pytest.raises(ValueError, match="state dimension 2 does not match matrix 3"):
        pair_objective(sp, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="state dimension 2 does not match matrix 3"):
        pair_objective(sp, np.full((3, 2), math.sqrt(0.5)))
    with pytest.raises(ValueError, match=r"state dimension \(1, 1, 3\) does not match matrix 3"):
        pair_objective(sp, np.full((1, 1, 3), math.sqrt(1.0 / 3.0)))
    # a stack of pairs takes one state per pair
    stack = SubspacePair([sp.first_set] * 3, [sp.second_set] * 3)
    for psi, count in ((np.eye(3)[0], 1), (np.eye(3)[:2], 2)):
        with pytest.raises(ValueError, match=f"{count} states for a stack of 3 pairs"):
            pair_objective(stack, psi)


@pytest.mark.parametrize(
    "psi",
    [np.array([2.0, 0.0]), np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([1.0, 0.0, 0.0]), np.ones((1, 1, 2))],
    ids=["long", "long-row", "dimension", "3d"],
)
def test_pair_objective_and_eur_lhs_share_one_state_check(psi):
    # the same bad state gets the same message from both entries
    with pytest.raises(ValueError) as from_lhs:
        eub.eur_lhs(np.eye(2), psi, 1.0)
    with pytest.raises(ValueError) as from_objective:
        pair_objective(SubspacePair(np.eye(2)[:1], np.eye(2)[1:]), psi)
    assert str(from_objective.value) == str(from_lhs.value)
