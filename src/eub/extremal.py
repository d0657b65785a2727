"""Extremal overlap of two orthonormal sets and the maximizing state.

For orthonormal sets {a_1..a_m} and {b_1..b_n} in dimension N, the
maximum over unit psi of sum_i |<a_i|psi>|^2 + sum_j |<b_j|psi>|^2
equals 1 + sigma_1(A), where A is the cross-Gram overlap matrix of the
two sets. The maximizer is psi ~ xi_0 + eta_0 built from the leading
singular pair; at it both partial sums are equal. Specialized to a
single coordinate direction and a single matrix row this produces the
closed form ((1 + c) / 2)^2 for the largest product p_i q_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import UNITARITY_TOL, require_unitary


@dataclass(frozen=True)
class SubspacePair:
    """Two orthonormal sets of vectors in a common ambient dimension.

    Vectors are rows: first_set is (m, N), second_set is (n, N).
    """

    first_set: np.ndarray
    second_set: np.ndarray

    def __post_init__(self):
        first = np.atleast_2d(np.asarray(self.first_set, dtype=complex))
        second = np.atleast_2d(np.asarray(self.second_set, dtype=complex))
        object.__setattr__(self, "first_set", first)
        object.__setattr__(self, "second_set", second)
        if first.shape[1] != second.shape[1]:
            raise ValueError("sets live in different ambient dimensions")
        dim = first.shape[1]
        for label, vecs in (("first", first), ("second", second)):
            if vecs.shape[0] > dim:
                raise ValueError(f"{label} set has more vectors than the dimension")
            gram = vecs.conj() @ vecs.T
            resid = float(np.abs(gram - np.eye(vecs.shape[0])).max())
            if not resid <= UNITARITY_TOL:
                raise ValueError(f"{label} set orthonormality residual {resid:.3e}")

    @property
    def ambient_dim(self) -> int:
        return self.first_set.shape[1]


def cross_gram(sp: SubspacePair) -> np.ndarray:
    """Overlap matrix of the second set against the first.

    Entry (j, i) is the inner product of b_j with a_i, so the array has
    shape (n, m). Its singular values are basis-free invariants of the
    two spans.
    """
    return sp.second_set.conj() @ sp.first_set.T


def lemma_max_value(sp: SubspacePair) -> float:
    """1 + sigma_1 of the cross-Gram matrix.

    Equals the maximum over unit psi of the summed squared overlaps with
    both sets; also the top eigenvalue of the combined Gram matrix
    [[I_m, A^dag], [A, I_n]].
    """
    a = cross_gram(sp)
    sigma = float(np.linalg.svd(a, compute_uv=False)[0]) if min(a.shape) else 0.0
    return 1.0 + sigma


def pair_objective(sp: SubspacePair, psi: np.ndarray) -> float:
    """sum_i |<a_i|psi>|^2 + sum_j |<b_j|psi>|^2 for a unit vector psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    ov1 = sp.first_set.conj() @ psi
    ov2 = sp.second_set.conj() @ psi
    return float((np.abs(ov1) ** 2).sum() + (np.abs(ov2) ** 2).sum())


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
    a = cross_gram(sp)
    u, _, vh = np.linalg.svd(a)
    xi = vh[0].conj() @ sp.first_set
    eta = u[:, 0] @ sp.second_set
    psi = xi + eta
    return psi / np.linalg.norm(psi)


def deutsch_max_product(u: np.ndarray) -> float:
    """((1 + c) / 2)^2 with c the largest entry modulus of a unitary.

    This is the largest achievable product p_i q_j over states, with
    p_i = |psi_i|^2 and q_j = |(U psi)_j|^2; the tests cross-validate it
    against ``maximizing_state`` on the attaining coordinate pair.
    """
    u = require_unitary(u)
    c = float(np.abs(u).max())
    return ((1.0 + c) / 2.0) ** 2
