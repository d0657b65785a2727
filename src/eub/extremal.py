"""Extremal overlap of two orthonormal sets and the maximizing state.

For orthonormal sets {a_1..a_m} and {b_1..b_n} in dimension N, the
maximum over unit psi of sum_i |<a_i|psi>|^2 + sum_j |<b_j|psi>|^2
equals 1 + sigma_1(A), where A is the cross-Gram overlap matrix of the
two sets. The maximizer is psi ~ xi_0 + eta_0 built from the leading
singular pair; at it both partial sums are equal. Specialized to a
single coordinate direction and a single matrix row this produces the
closed form ((1 + c) / 2)^2 for the largest product p_i q_j. Every
function also takes a stack of P pairs (or of P unitaries), and gives each
item the bits of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import UNITARITY_TOL, _first_failure, _orthonormality_residual, _unit_normalized
from .matrices import _unit_rows, require_unitary


@dataclass(frozen=True)
class SubspacePair:
    """Two orthonormal sets of vectors in a common ambient dimension.

    Vectors are rows: first_set is (m, N), second_set is (n, N); a stack of
    P pairs holds (P, m, N) and (P, n, N), the first failing pair raising.
    """

    first_set: np.ndarray
    second_set: np.ndarray

    def __post_init__(self):
        first = np.atleast_2d(np.asarray(self.first_set, dtype=complex))
        second = np.atleast_2d(np.asarray(self.second_set, dtype=complex))
        object.__setattr__(self, "first_set", first)
        object.__setattr__(self, "second_set", second)
        if first.shape[:-2] + first.shape[-1:] != second.shape[:-2] + second.shape[-1:]:
            raise ValueError(f"sets live in different ambient dimensions or stacks: {first.shape}, {second.shape}")
        for label, vecs in (("first", first), ("second", second)):
            if vecs.shape[-2] > vecs.shape[-1]:
                raise ValueError(f"{label} set has more vectors than the dimension")
        resid = np.stack((_orthonormality_residual(first)[1], _orthonormality_residual(second)[1]), axis=-1)
        bad = _first_failure((resid <= UNITARITY_TOL).ravel())  # pair by pair, the first set first
        if bad is not None:
            raise ValueError(f"{('first', 'second')[bad % 2]} set orthonormality residual {resid.flat[bad]:.3e}")


def cross_gram(sp: SubspacePair) -> np.ndarray:
    """Overlap matrix of the second set against the first.

    Entry (j, i) is the inner product of b_j with a_i, so the array has
    shape (n, m), or (P, n, m) for a stack. Its singular values are
    basis-free invariants of the two spans.
    """
    return sp.second_set.conj() @ sp.first_set.swapaxes(-1, -2)


def lemma_max_value(sp: SubspacePair):
    """1 + sigma_1 of the cross-Gram matrix.

    Equals the maximum over unit psi of the summed squared overlaps with
    both sets; also the top eigenvalue of the combined Gram matrix
    [[I_m, A^dag], [A, I_n]].
    """
    sigma = np.linalg.svd(cross_gram(sp), compute_uv=False)[..., 0]  # SubspacePair refuses an empty set
    return 1.0 + (float(sigma) if sigma.ndim == 0 else sigma)


def pair_objective(sp: SubspacePair, psi: np.ndarray):
    """sum_i |<a_i|psi>|^2 + sum_j |<b_j|psi>|^2 for a unit vector psi.

    psi is one state (a float is returned) or a stack of states on its rows
    (an array, one value per row, each to the bits of its value alone); a
    stack of P pairs takes P states, one per pair. Each state must have the
    ambient dimension and a squared norm within STATE_NORM_TOL of 1, the
    first bad row naming its norm; a longer state would exceed the lemma's
    maximum 1 + sigma_1.
    """
    rows = _unit_rows(psi, sp.first_set.shape[-1])
    if sp.first_set.ndim == 3 and len(rows) != len(sp.first_set):
        raise ValueError(f"{len(rows)} states for a stack of {len(sp.first_set)} pairs")
    ov1 = np.matmul(sp.first_set.conj(), rows[..., None])[..., 0]
    ov2 = np.matmul(sp.second_set.conj(), rows[..., None])[..., 0]
    val = (np.abs(ov1) ** 2).sum(axis=1) + (np.abs(ov2) ** 2).sum(axis=1)
    return float(val[0]) if np.ndim(psi) == 1 else val


def maximizing_state(sp: SubspacePair) -> np.ndarray:
    """Unit vector attaining the extremal overlap value.

    Built as xi_0 + eta_0 (normalized), where xi_0 and eta_0 are the unit
    vectors of the two spans realizing the largest mutual overlap. They
    come from the leading singular pair of the cross-Gram matrix with
    phases aligned so <xi_0|eta_0> = sigma_1 >= 0, which makes the sum's
    norm squared 2 (1 + sigma_1) >= 2: the construction never degenerates,
    even for orthogonal spans. Any leading pair is acceptable when
    sigma_1 is degenerate.
    """
    u, _, vh = np.linalg.svd(cross_gram(sp))
    xi = vh[..., :1, :].conj() @ sp.first_set
    eta = u[..., :, :1].swapaxes(-1, -2) @ sp.second_set
    return _unit_normalized(xi + eta)[..., 0, :]


def deutsch_max_product(u: np.ndarray):
    """((1 + c) / 2)^2 with c the largest entry modulus of a unitary.

    This is the largest achievable product p_i q_j over states, with
    p_i = |psi_i|^2 and q_j = |(U psi)_j|^2; the tests cross-validate it
    against ``maximizing_state`` on the attaining coordinate pair.
    """
    product = ((1.0 + np.abs(require_unitary(u)).max(axis=(-2, -1))) / 2.0) ** 2
    return float(product) if product.ndim == 0 else product
