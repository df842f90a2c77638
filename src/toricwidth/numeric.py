"""Floating point checks for the Kaehler potential of a monomial embedding.

The embedding xi -> [xi^{J_1} : ... : xi^{J_N}] pulls the ambient form back
to (i/2) del delbar Phi with Phi(xi) = 2 log sum_k |xi|^{2 J_k}.  Writing
x_l = |xi_l|^2 and Phi~(x) = 2 log sum_k x^{J_k}, the map

    Psi(xi)_k = sqrt(dPhi~/dx_k at x) * xi_k

is a symplectomorphism onto its image wherever the partials are positive.
This module evaluates those quantities and verifies the pullback identity:
Psi's Jacobian is a central difference, the form side is in closed form.

Everything is computed in log space, t = log x, on the N x n exponent array:
Phi~ = 2 logsumexp(J t) and x_j dPhi~/dx_j = 2 (softmax-weighted mean of the
j-th exponents), so no monomial is ever formed and none can overflow.  The
batched functions take one point per row and work through the rows a few at
a time, so that a batch never holds more than BATCH_ENTRIES point-monomial
pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .embedding import MonomialEmbedding

GRADIENT_STEP = 1e-6
# central differences with step 1e-6 leave ~1e-10 of noise in an exactly
# singular determinant, while honest Jacobians here have |det| of order 1
DEGENERATE_JACOBIAN_TOL = 1e-8
ZERO_DENOMINATOR_BUMP = 1e-12
# points x exponents held at once: 128 KiB per float work array (a larger
# budget buys no speed); with N > BATCH_ENTRIES exponents a slice is one
# row, and a work array N floats
BATCH_ENTRIES = 1 << 14
# The work arrays are reused from the heap only once glibc's malloc has
# raised its mmap threshold (128 KiB at start) above them, and its trim
# threshold, twice the mmap one, above the few freed together after a batch;
# else every call maps them afresh or trims the heap and faults it in again.
# Freeing a mapped block raises both to its size, so allocating and dropping
# this 512 KiB one here raises them whatever the process loaded before numpy,
# whose own import raises them only when it comes first.
np.empty(2 * BATCH_ENTRIES, dtype=complex)


class DegenerateJacobianWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ToricPotential:
    """Phi~(x) = 2 log sum_k x^{J_k} for a fixed exponent set."""

    embedding: MonomialEmbedding

    @property
    def dim(self) -> int:
        return self.embedding.dim

    @cached_property
    def exponent_array(self) -> np.ndarray:
        """The exponents as an N x n float array, one row per monomial in
        lexicographic order, built from the fibres: each prefix repeated
        along its fibre, next to the fibre's range of x_n.  The exponents
        must fit in int64."""
        fibres = self.embedding.fibres
        a, b = (np.array([f[i] for f in fibres], dtype=np.int64) for i in (1, 2))
        lengths = b - a + 1
        starts = np.cumsum(lengths) - lengths
        J = np.empty((int(lengths.sum()), self.dim), dtype=np.int64)
        J[:, :-1] = np.repeat(np.array([f[0] for f in fibres], dtype=np.int64), lengths, axis=0)
        J[:, -1] = np.arange(len(J)) + np.repeat(a - starts, lengths)  # a + (row - start)
        # Exact, as the exponents of a section set stay far below 2^53.  Filling
        # int64 and converting in one pass frees an array as large as the
        # result, so glibc's malloc raises its mmap threshold and the N-wide
        # work arrays of a first verify call are reused from the heap instead
        # of mapped afresh (135,000 fewer page faults on example-3.8:50).
        return J.astype(float)


def _batched(T: ToricPotential, X: np.ndarray, fn) -> np.ndarray:
    """fn applied to the rows of X in slices of at most BATCH_ENTRIES entries."""
    step = max(1, BATCH_ENTRIES // len(T.exponent_array))
    if len(X) <= step:
        return fn(X)
    return np.concatenate([fn(X[i:i + step]) for i in range(0, len(X), step)])


def _log_sum(T: ToricPotential, X: np.ndarray):
    """For rows x >= 0 of X: the unmasked log-monomials sum_j J_kj log x_j
    (log 0 read as 0), the softmax weights of the monomials that do not
    vanish, their sum and log sum_k x^{J_k}.  Rows whose monomials all
    vanish get nan weights and a nan log sum."""
    J = T.exponent_array
    zero = X == 0
    t = np.log(np.where(zero, 1.0, X))
    # axis by axis rather than one matrix product, so that a row's values
    # do not depend on the other rows of its batch
    raw = t[:, :1] * J[:, 0]
    for j in range(1, T.dim):
        raw = raw + t[:, j:j + 1] * J[:, j]
    L = np.where(zero @ (J.T > 0), -np.inf, raw) if zero.any() else raw
    top = L.max(axis=1)
    with np.errstate(invalid="ignore"):
        W = np.exp(L - top[:, None])
    den = W.sum(axis=1)
    return raw, W, den, top + np.log(den)


def _partials(T: ToricPotential, X: np.ndarray) -> np.ndarray:
    J = T.exponent_array
    raw, W, den, lse = _log_sum(T, X)
    with np.errstate(divide="ignore", invalid="ignore"):
        # einsum, not W @ J: BLAS sums in an order that varies with the batch
        out = 2.0 * np.einsum("mk,kj->mj", W, J) / den[:, None] / X
    # on x_j = 0 only the reduced monomials x^{J_k - e_j} with (J_k)_j = 1
    # survive, and only if no other zero coordinate kills them
    zero = X == 0
    for r, j in zip(*np.nonzero(zero)):
        others = zero[r].copy()
        others[j] = False
        alive = (J[:, j] == 1) & ~(J[:, others] > 0).any(axis=1)
        out[r, j] = 2.0 * np.exp(raw[r, alive] - lse[r]).sum()
    return out


def _points(T: ToricPotential, X, dtype=float) -> np.ndarray:
    X = np.asarray(X, dtype=dtype)
    if X.ndim != 2 or X.shape[1] != T.dim:
        raise ValueError(f"need points with {T.dim} coordinates, one per row")
    if dtype is float and (X < 0).any():
        raise ValueError("coordinates must be nonnegative")
    if dtype is float and not np.isfinite(X).all():
        raise ValueError("coordinate not finite: x = |xi|^2 overflows above |xi| ~ 1.3e154")
    return X


def potential_values(T: ToricPotential, X) -> np.ndarray:
    """Phi~ at each row of X (points with nonnegative coordinates)."""
    values = _batched(T, _points(T, X), lambda C: 2.0 * _log_sum(T, C)[3])
    if np.isnan(values).any():
        raise ValueError("potential undefined: monomial sum vanishes")
    return values


def potential_partials(T: ToricPotential, X) -> np.ndarray:
    """dPhi~/dx_j at each row of X, one column per axis.

    On a coordinate hyperplane x_j = 0 the partial is continued through the
    reduced exponents J_k - e_j; rows where the monomial sum vanishes are nan.
    """
    return _batched(T, _points(T, X), lambda C: _partials(T, C))


def radial_quantities(T: ToricPotential, X) -> np.ndarray:
    """sqrt(x_j * dPhi~/dx_j) = |Psi(xi)_j| at x = |xi|^2, for each row of
    X > 0; bounded above by sqrt(2 max_k (J_k)_j)."""
    X = _points(T, X)
    if (X == 0).any():
        raise ValueError("coordinates must be positive")
    return np.sqrt(X * potential_partials(T, X))


def potential_value(T: ToricPotential, x: Sequence[float]) -> float:
    if len(x) != T.dim:
        raise ValueError(f"need {T.dim} coordinates")
    return float(potential_values(T, [x])[0])


def potential_partial(T: ToricPotential, x: Sequence[float], j: int) -> float:
    """dPhi~/dx_j = 2 sum_k (J_k)_j x^{J_k - e_j} / sum_k x^{J_k}.

    The reduced exponent J_k - e_j keeps the numerator finite on the
    coordinate hyperplanes, but callers must still pass positive x here.
    """
    if len(x) != T.dim:
        raise ValueError(f"need {T.dim} coordinates")
    if not 0 <= j < T.dim:
        raise ValueError("axis out of range")
    if any(c <= 0 for c in x):
        raise ValueError("coordinates must be positive")
    return float(potential_partials(T, [x])[0, j])


def psi_maps(T: ToricPotential, XI) -> np.ndarray:
    """Psi at each row of the complex array XI, extended continuously to the
    coordinate hyperplanes; raises if some partial is nonpositive."""
    XI = _points(T, XI, complex)
    with np.errstate(over="ignore"):  # an x overflowed to inf is refused below
        X = np.abs(XI) ** 2
    partials = potential_partials(T, X)
    vanished = np.isnan(partials).any(axis=1)
    if vanished.any():
        # the monomial sum vanishes on this hyperplane; step just inside
        X = X[vanished]
        partials[vanished] = potential_partials(T, np.where(X > 0, X, ZERO_DENOMINATOR_BUMP))
        warnings.warn(
            "potential degenerates on a coordinate hyperplane; evaluated "
            f"at distance {ZERO_DENOMINATOR_BUMP} instead",
            DegenerateJacobianWarning,
        )
    if (partials <= 0).any():
        raise ValueError("a partial is nonpositive; the map is not defined here")
    return np.sqrt(partials) * XI


def psi_map(T: ToricPotential, xi: Sequence[complex]) -> tuple[complex, ...]:
    """Psi(xi)_k = sqrt(dPhi~/dx_k at |xi|^2) * xi_k, extended continuously
    to the coordinate hyperplanes; raises if some partial is nonpositive."""
    if len(xi) != T.dim:
        raise ValueError(f"need {T.dim} coordinates")
    return tuple(complex(w) for w in psi_maps(T, [xi])[0])


def _complex_hessians(T: ToricPotential, XI: np.ndarray) -> np.ndarray:
    """d^2 Phi / d xi_a d conj(xi_b) at each row of XI: in log coordinates
    the Hessian of Phi~ is twice the covariance of the exponents under the
    softmax weights (Abreu 2003), so H_ab = 2 Cov(J_a, J_b) / (xi_a conj(xi_b)).
    On x_a = 0 row and column a vanish but for H_aa, the continued dPhi~/dx_a."""
    X = np.abs(XI) ** 2
    W, den, lse = _log_sum(T, X)[1:]  # the log-monomials are not kept
    if np.isnan(lse).any():
        raise ValueError("potential undefined: monomial sum vanishes")
    W /= den[:, None]
    # einsum, not @: BLAS sums in an order that varies with the batch
    D = T.exponent_array - np.einsum("mk,kj->mj", W, T.exponent_array)[:, None]
    xi = np.where(X == 0, 1.0, XI)
    H = 2.0 * np.einsum("mk,mka,mkb->mab", W, D, D) / (xi[:, :, None] * xi.conj()[:, None])
    r, a = np.nonzero(X == 0)
    if len(r):
        H[r, a, a] = _partials(T, X[r])[np.arange(len(r)), a]
    return H


def _pullback_deviations(T: ToricPotential, XI: np.ndarray):
    """The deviation of pullback_check at each row of XI, and whether the
    Jacobian of Psi is numerically singular there.  Every step works row by
    row, so a row's values do not depend on the other rows."""
    m, n = XI.shape
    p0 = np.hstack([XI.real, XI.imag])
    steps = GRADIENT_STEP * np.maximum(1.0, np.abs(p0))
    shift = np.eye(2 * n) * steps[:, :, None]  # shift[r, b] moves row r along axis b
    P = np.stack([p0[:, None] + shift, p0[:, None] - shift], axis=2).reshape(-1, 2 * n)
    psi = psi_maps(T, P[:, :n] + 1j * P[:, n:])
    psi = np.hstack([psi.real, psi.imag]).reshape(m, 2 * n, 2, 2 * n)
    # row b of jac_t is the central difference of Psi along axis b: J^T
    jac_t = (psi[:, :, 0] - psi[:, :, 1]) / (2 * steps[:, :, None])
    singular = np.abs(np.linalg.det(jac_t)) < DEGENERATE_JACOBIAN_TOL
    # J^T Omega0 J = A B^T - B A^T for the real and imaginary blocks [A | B] of J^T
    AB = jac_t[..., :n] @ jac_t[..., n:].transpose(0, 2, 1)
    # the form matrix of (i/2) del delbar Phi in real coordinates (x, y):
    # [[-Im H, Re H], [-Re H, -Im H]] for the complex Hessian H
    H = _complex_hessians(T, XI)
    rhs = np.block([[-H.imag, H.real], [-H.real, -H.imag]])
    return np.abs(AB - AB.transpose(0, 2, 1) - rhs).max(axis=(1, 2)), singular


def pullback_check(T: ToricPotential, xi) -> float:
    """Max entrywise deviation between J^T Omega0 J for the real Jacobian J
    of Psi and the form matrix of (i/2) del delbar Phi at xi.

    xi is one point or an m x n array of points, one per row; the result is
    the worst deviation over the rows.  The Jacobian is a central difference
    of psi_maps, the form is in closed form (_complex_hessians); the rows go
    through in slices whose stencil points and rows hold at most
    BATCH_ENTRIES point-monomial pairs, and each row's deviation equals that
    of a call with the row alone.  A numerically singular Jacobian at any
    row gives one warning.
    """
    n = T.dim
    XI = np.asarray(xi, dtype=complex)
    if XI.ndim not in (1, 2) or XI.shape[-1] != n:
        raise ValueError(f"need {n} coordinates")
    XI = XI.reshape(-1, n)
    # 4n stencil points for the Jacobian and the row itself for the form
    step = max(1, BATCH_ENTRIES // ((4 * n + 1) * len(T.exponent_array)))
    worst, singular = 0.0, False
    for i in range(0, len(XI), step):
        dev, sing = _pullback_deviations(T, XI[i:i + step])
        worst, singular = max(worst, float(dev.max())), singular or bool(sing.any())
    if singular:
        warnings.warn("Jacobian of Psi is numerically singular", DegenerateJacobianWarning)
    return worst


def axis_radius_bound(T: ToricPotential, j: int) -> float:
    return math.sqrt(2 * T.exponent_array[:, j].max())


def suggested_path_exponent(T: ToricPotential, j: int) -> int:
    """Smallest s certain to make the axis-j terms dominate along the path
    x = (t^s on axis j, t elsewhere): one more than the largest complementary
    degree appearing in the exponent set."""
    J = T.exponent_array
    return 1 + int((J.sum(axis=1) - J[:, j]).max())


def sup_along_path(T: ToricPotential, j: int, s: int, t_max: float) -> float:
    """Column j of radial_quantities along x_j = t^s, x_i = t (i != j),
    evaluated at t_max in log space so that huge powers like t^60 cannot
    overflow."""
    if t_max <= 1:
        raise ValueError("t_max must exceed 1")
    J = T.exponent_array
    weights = J[:, j] * s + (J.sum(axis=1) - J[:, j])
    e = np.exp((weights - weights.max()) * math.log(t_max))
    return math.sqrt(2 * (J[:, j] @ e) / e.sum())

