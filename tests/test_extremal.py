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


def test_pair_objective_stack_rows_match_single_calls():
    # one value per row, each to the bits of the one-state call; a 1-d state
    # still gives a float
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
