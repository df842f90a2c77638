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
j-th exponents), so no monomial is ever formed and none can overflow.

All of it comes from passes over stacks of points (evaluate), one point per
row: per slice of at most BATCH_ENTRIES point-monomial pairs, one _log_sum
gives each row's log sum and softmax weights, from which the partials
follow, and, in a pass with hessians, the covariance of the exponents that
the Hessian needs.  Each check is a function of a pass's per-row Sums
(potential_values, radial_quantities, psi_maps, _complex_hessians), so a
caller may stack the rows of several checks into one pass, as verify's
numeric suite does; pullback_check runs its own two passes, one over Psi's
stencil and one with hessians over its rows.  Every step works row by row,
so a row's values do not depend on the other rows of its pass.
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


@dataclass(frozen=True)
class Sums:
    """The potential's sums at each row of a stack of points X, from one
    pass (evaluate) for T: lse = log sum_k x^{J_k}, the partials dPhi~/dx_j
    and, if the pass asked for them, the softmax covariances of the
    exponents, sum_k w_k D_ka D_kb with D = J - sum_k w_k J_k.

    On a coordinate hyperplane x_j = 0 the partial is continued through the
    reduced exponents J_k - e_j; rows where the monomial sum vanishes are
    nan.  X is checked as it went in, so a function handed these sums does
    not check its rows again."""

    T: ToricPotential
    X: np.ndarray  # (m, n)
    lse: np.ndarray  # (m,)
    partials: np.ndarray  # (m, n)
    cov: np.ndarray | None  # (m, n, n), or None without hessians

    def __getitem__(self, rows) -> "Sums":
        cov = None if self.cov is None else self.cov[rows]
        return Sums(self.T, self.X[rows], self.lse[rows], self.partials[rows], cov)


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


def _partials(T: ToricPotential, X: np.ndarray, raw, W, den, lse) -> np.ndarray:
    """dPhi~/dx_j at each row of X from its _log_sum."""
    J = T.exponent_array
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


def _covariances(T: ToricPotential, W: np.ndarray, den: np.ndarray) -> np.ndarray:
    """sum_k w_k D_ka D_kb at each row of the weights W, normalized by den."""
    J = T.exponent_array
    W = W / den[:, None]
    # einsum, not @: BLAS sums in an order that varies with the batch
    D = J - np.einsum("mk,kj->mj", W, J)[:, None]
    return np.einsum("mk,mka,mkb->mab", W, D, D)


def evaluate(T: ToricPotential, X, hessians: bool = False) -> Sums:
    """The Sums at each row of X (points with nonnegative coordinates), with
    the covariances, n^2 floats a row, if hessians.

    The rows go through _log_sum in slices of at most BATCH_ENTRIES
    point-monomial pairs, n times fewer with hessians, as the covariance's
    work array is n times as wide; every step works row by row, so a row's
    values do not depend on the other rows of its slice."""
    X = _points(T, X)
    (m, n), N = X.shape, len(T.exponent_array)
    lse, partials = np.empty(m), np.empty((m, n))
    cov = np.empty((m, n, n)) if hessians else None
    step = max(1, BATCH_ENTRIES // (N * n if hessians else N))
    for i in range(0, m, step):
        rows = slice(i, i + step)
        raw, W, den, lse[rows] = _log_sum(T, X[rows])
        partials[rows] = _partials(T, X[rows], raw, W, den, lse[rows])
        if hessians:
            cov[rows] = _covariances(T, W, den)
    return Sums(T, X, lse, partials, cov)


def _points(T: ToricPotential, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != T.dim:
        raise ValueError(f"need points with {T.dim} coordinates, one per row")
    if (X < 0).any():
        raise ValueError("coordinates must be nonnegative")
    if not np.isfinite(X).all():
        raise ValueError("coordinate not finite: x = |xi|^2 overflows above |xi| ~ 1.3e154")
    return X


def moduli(XI: np.ndarray) -> np.ndarray:
    """x = |xi|^2 at each entry; an x that overflows to inf is refused by
    whatever evaluates it."""
    with np.errstate(over="ignore"):
        return np.abs(XI) ** 2


def potential_values(sums: Sums) -> np.ndarray:
    """Phi~ at each row of a pass."""
    values = 2.0 * sums.lse
    if np.isnan(values).any():
        raise ValueError("potential undefined: monomial sum vanishes")
    return values


def radial_quantities(sums: Sums) -> np.ndarray:
    """sqrt(x_j * dPhi~/dx_j) = |Psi(xi)_j| at x = |xi|^2, for each row
    x > 0 of a pass; bounded above by sqrt(2 max_k (J_k)_j)."""
    if (sums.X == 0).any():
        raise ValueError("coordinates must be positive")
    return np.sqrt(sums.X * sums.partials)


def potential_value(T: ToricPotential, x: Sequence[float]) -> float:
    if len(x) != T.dim:
        raise ValueError(f"need {T.dim} coordinates")
    return float(potential_values(evaluate(T, [x]))[0])


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
    return float(evaluate(T, [x]).partials[0, j])


def psi_maps(XI, sums: Sums) -> np.ndarray:
    """Psi at each row of the complex array XI, from the pass at
    moduli(XI), extended continuously to the coordinate hyperplanes;
    raises if some partial is nonpositive."""
    X, partials = sums.X, sums.partials.copy()
    vanished = np.isnan(partials).any(axis=1)
    if vanished.any():
        # the monomial sum vanishes on this hyperplane; step just inside
        X = X[vanished]
        partials[vanished] = evaluate(sums.T, np.where(X > 0, X, ZERO_DENOMINATOR_BUMP)).partials
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
    XI = np.array([xi], dtype=complex)
    return tuple(complex(w) for w in psi_maps(XI, evaluate(T, moduli(XI)))[0])


def _complex_hessians(XI: np.ndarray, sums: Sums) -> np.ndarray:
    """d^2 Phi / d xi_a d conj(xi_b) at each row of XI, from the pass at
    moduli(XI) with hessians: in log coordinates the Hessian of Phi~ is
    twice the covariance of the exponents under the softmax weights (Abreu
    2003), so H_ab = 2 Cov(J_a, J_b) / (xi_a conj(xi_b)).  On x_a = 0 row
    and column a vanish but for H_aa, the continued dPhi~/dx_a."""
    X = sums.X
    if np.isnan(sums.lse).any():
        raise ValueError("potential undefined: monomial sum vanishes")
    xi = np.where(X == 0, 1.0, XI)
    H = 2.0 * sums.cov / (xi[:, :, None] * xi.conj()[:, None])
    r, a = np.nonzero(X == 0)
    if len(r):
        H[r, a, a] = sums.partials[r, a]
    return H


def _stencil(XI: np.ndarray):
    """The central-difference stencil of Psi's Jacobian at each row of XI,
    4n complex points a row, row r's at [4n r, 4n (r + 1)), and the step
    along each real axis."""
    m, n = XI.shape
    p0 = np.concatenate([XI.real, XI.imag], axis=1)
    steps = GRADIENT_STEP * np.maximum(1.0, np.abs(p0))
    shift = np.eye(2 * n) * steps[:, :, None]  # shift[r, b] moves row r along axis b
    P = np.empty((m, 2 * n, 2, 2 * n))
    np.add(p0[:, None], shift, out=P[:, :, 0])
    np.subtract(p0[:, None], shift, out=P[:, :, 1])
    P = P.reshape(-1, 2 * n)
    return P[:, :n] + 1j * P[:, n:], steps


def pullback_check(T: ToricPotential, xi) -> float:
    """Max entrywise deviation between J^T Omega0 J for the real Jacobian J
    of Psi and the form matrix of (i/2) del delbar Phi at xi.

    xi is one point or an m x n array of points, one per row; the result is
    the worst deviation over the rows.  The Jacobian is a central difference
    of psi_maps, from one pass over the stencil points, and the form is in
    closed form (_complex_hessians), from one pass with hessians over the
    rows; both hold O(n^2) floats a row, whatever the number of exponents.
    Each row's deviation equals that of a call with the row alone.  A
    numerically singular Jacobian at any row gives one warning.
    """
    XI = np.asarray(xi, dtype=complex)
    if XI.ndim not in (1, 2) or XI.shape[-1] != T.dim:
        raise ValueError(f"need {T.dim} coordinates")
    XI = XI.reshape(-1, T.dim)
    m, n = XI.shape
    stencil, steps = _stencil(XI)
    psi = psi_maps(stencil, evaluate(T, moduli(stencil)))
    psi = np.concatenate([psi.real, psi.imag], axis=1).reshape(m, 2 * n, 2, 2 * n)
    # row b of jac_t is the central difference of Psi along axis b: J^T
    jac_t = (psi[:, :, 0] - psi[:, :, 1]) / (2 * steps[:, :, None])
    # J^T Omega0 J = A B^T - B A^T for the real and imaginary blocks [A | B] of J^T
    AB = jac_t[..., :n] @ jac_t[..., n:].transpose(0, 2, 1)
    # the form matrix of (i/2) del delbar Phi in real coordinates (x, y):
    # [[-Im H, Re H], [-Re H, -Im H]] for the complex Hessian H
    H = _complex_hessians(XI, evaluate(T, moduli(XI), hessians=True))
    rhs = np.empty((m, 2 * n, 2 * n))
    rhs[:, :n, :n] = rhs[:, n:, n:] = -H.imag
    rhs[:, :n, n:] = H.real
    rhs[:, n:, :n] = -H.real
    if (np.abs(np.linalg.det(jac_t)) < DEGENERATE_JACOBIAN_TOL).any():
        warnings.warn("Jacobian of Psi is numerically singular", DegenerateJacobianWarning)
    return float(np.abs(AB - AB.transpose(0, 2, 1) - rhs).max(initial=0.0))


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

