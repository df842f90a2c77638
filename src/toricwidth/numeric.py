"""Floating point checks for the Kaehler potential of a monomial embedding.

The embedding xi -> [xi^{J_1} : ... : xi^{J_N}] pulls the ambient form back
to (i/2) del delbar Phi with Phi(xi) = 2 log sum_k |xi|^{2 J_k}.  Writing
x_l = |xi_l|^2 and Phi~(x) = 2 log sum_k x^{J_k}, the map

    Psi(xi)_k = sqrt(dPhi~/dx_k at x) * xi_k

is a symplectomorphism onto its image wherever the partials are positive.
This module evaluates those quantities and verifies the pullback identity:
Psi's Jacobian is a central difference, the form side is in closed form.

Everything is computed in log space, t = log x, on the exponents stored once
as n x N columns: Phi~ = 2 logsumexp(J t) and x_j dPhi~/dx_j = 2
(softmax-weighted mean of the j-th exponents), so no monomial is ever formed
and none can overflow.

The domain is the closed chart x >= 0: on x_j = 0 the partials continue
through the reduced exponents J_k - e_j.  evaluate alone refuses a row, one
outside it (_points) or one whose monomial sum vanishes ("potential
undefined: monomial sum vanishes"); what reads a pass's Sums checks none.

All of it comes from passes over stacks of points (evaluate), one point per
row: per slice of at most BATCH_ENTRIES point-monomial pairs, one _log_sum
gives each row's log sum and softmax weights, from which the partials
follow, and, for the pass's last hessians rows, the covariance of the
exponents that the Hessian needs.  Each check is a function of a pass's
per-row Sums (potential_values, radial_quantities, psi_maps and
pullback_deviation, whose rows are Psi's stencil and then its base rows,
last for their covariances), so a caller may stack the rows of all checks
into one pass, as verify's numeric suite does.  Every step works row by row,
so a row's values do not depend on the other rows of its pass: each sum over
the N monomials is an einsum along the contiguous axis of the columns, whose
kernel adds a row's terms in an order fixed by N alone, where a BLAS product
would block the sum by the shape of the whole slice.
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
    def exponent_columns(self) -> np.ndarray:
        """The exponents as an n x N C-contiguous float array, one column per
        monomial in lexicographic order, built from the fibres: each prefix
        repeated along its fibre, above the fibre's range of x_n.  The
        exponents must fit in int64."""
        fibres = self.embedding.fibres
        a, b = (np.array([f[i] for f in fibres], dtype=np.int64) for i in (1, 2))
        lengths = b - a + 1
        starts = np.cumsum(lengths) - lengths
        prefixes = np.array([f[0] for f in fibres], dtype=np.int64)
        J = np.empty((self.dim, int(lengths.sum())), dtype=np.int64)
        J[:-1] = np.repeat(prefixes.T, lengths, axis=1)
        J[-1] = np.arange(J.shape[1]) + np.repeat(a - starts, lengths)  # a + (column - start)
        # Exact, as the exponents of a section set stay far below 2^53.  Filling
        # int64 and converting in one pass frees an array as large as the
        # result, so glibc's malloc raises its mmap threshold and the N-wide
        # work arrays of a first verify call are reused from the heap instead
        # of mapped afresh (135,000 fewer page faults on example-3.8:50).
        return J.astype(float)

    @cached_property
    def degrees(self) -> np.ndarray:
        """The total degree sum_j (J_k)_j of each monomial, as floats."""
        return self.exponent_columns.sum(axis=0)


@dataclass(frozen=True)
class Sums:
    """The potential's sums at each row of a stack of points X, from one
    pass of evaluate: lse = log sum_k x^{J_k}, the partials dPhi~/dx_j
    and, for the last len(cov) rows, those the pass asked covariances for,
    the softmax covariances of the exponents, sum_k w_k D_ka D_kb with
    D = J - sum_k w_k J_k.

    On a coordinate hyperplane x_j = 0 the partial is continued through the
    reduced exponents J_k - e_j.  evaluate has refused every row that the
    functions handed these sums could not take, so none checks again."""

    X: np.ndarray  # (m, n)
    lse: np.ndarray  # (m,)
    partials: np.ndarray  # (m, n)
    cov: np.ndarray  # (h, n, n) for the last h rows

    def __getitem__(self, rows: slice) -> "Sums":
        """A contiguous run of rows, whose covariances stay its last rows."""
        start, stop, _ = rows.indices(len(self.X))
        first = len(self.X) - len(self.cov)  # the first row with covariances
        cov = self.cov[max(start - first, 0):max(stop - first, 0)]
        return Sums(self.X[rows], self.lse[rows], self.partials[rows], cov)


def _log_sum(T: ToricPotential, X: np.ndarray):
    """For rows x >= 0 of X: the unmasked log-monomials sum_j J_kj log x_j
    (log 0 read as 0), the softmax weights of the monomials that do not
    vanish, their sum and log sum_k x^{J_k}.  Rows whose monomials all
    vanish get nan weights and a nan log sum."""
    JT = T.exponent_columns
    zero = X == 0
    t = np.log(np.where(zero, 1.0, X))
    # einsum, not t @ JT: it adds each entry's n products in axis order, as
    # an axis-by-axis sum would, where BLAS sums in an order set by the batch
    raw = np.einsum("mj,jk->mk", t, JT)
    L = np.where(zero @ (JT > 0), -np.inf, raw) if zero.any() else raw
    top = L.max(axis=1)
    with np.errstate(invalid="ignore"):
        W = np.subtract(L, top[:, None])
        np.exp(W, out=W)
    den = W.sum(axis=1)
    return raw, W, den, top + np.log(den)


def _partials(T: ToricPotential, X: np.ndarray, raw, W, den, lse) -> np.ndarray:
    """dPhi~/dx_j at each row of X from its _log_sum."""
    JT = T.exponent_columns
    with np.errstate(divide="ignore", invalid="ignore"):
        # einsum, not W @ JT.T: along the contiguous monomial axis it sums a
        # row in an order fixed by N alone, where BLAS sums in an order set
        # by the batch, so a row's partials do not depend on the other rows
        out = 2.0 * np.einsum("mk,jk->mj", W, JT) / den[:, None] / X
    # on x_j = 0 only the reduced monomials x^{J_k - e_j} with (J_k)_j = 1
    # survive, and only if no other zero coordinate kills them
    zero = X == 0
    for r, j in zip(*np.nonzero(zero)):
        others = zero[r].copy()
        others[j] = False
        alive = (JT[j] == 1) & ~(JT[others] > 0).any(axis=0)
        out[r, j] = 2.0 * np.exp(raw[r, alive] - lse[r]).sum()
    return out


def _covariances(T: ToricPotential, W: np.ndarray, den: np.ndarray) -> np.ndarray:
    """sum_k w_k D_ak D_bk at each row of the weights W, normalized by den
    in place, with D = J - sum_k w_k J_k the centred exponents."""
    JT = T.exponent_columns
    W /= den[:, None]
    # einsum along the contiguous monomial axis, as in _partials
    D = JT - np.einsum("mk,jk->mj", W, JT)[:, :, None]
    # three operands in one einsum, so that D is the only (m, n, N) array
    return np.einsum("mk,mak,mbk->mab", W, D, D)


def evaluate(T: ToricPotential, X, hessians: int = 0) -> Sums:
    """The Sums at each row of X (points with nonnegative coordinates), with
    the covariances, n^2 floats a row, of the last hessians rows; it alone
    refuses rows.

    The rows go through _log_sum in slices of at most BATCH_ENTRIES
    point-monomial pairs, and a slice's covariance rows, whose work array is
    n times as wide, n times fewer at a time; every step works row by row,
    so a row's values do not depend on the other rows of its slice."""
    X = _points(T, X)
    (m, n), N = X.shape, T.exponent_columns.shape[1]
    if isinstance(hessians, bool) or not 0 <= hessians <= m:  # True is no row count
        raise ValueError(f"hessians must count some of the {m} rows")
    first = m - hessians
    lse, partials, cov = np.empty(m), np.empty((m, n)), np.empty((hessians, n, n))
    step, wide = max(1, BATCH_ENTRIES // N), max(1, BATCH_ENTRIES // (N * n))
    for i in range(0, m, step):
        rows = slice(i, i + step)
        raw, W, den, lse[rows] = _log_sum(T, X[rows])
        if np.isnan(lse[rows]).any():
            raise ValueError("potential undefined: monomial sum vanishes")
        partials[rows] = _partials(T, X[rows], raw, W, den, lse[rows])
        stop = i + len(W)
        for j in range(max(i, first), stop, wide):
            k = min(j + wide, stop)
            cov[j - first:k - first] = _covariances(T, W[j - i:k - i], den[j - i:k - i])
    return Sums(X, lse, partials, cov)


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
    return 2.0 * sums.lse


def radial_quantities(sums: Sums) -> np.ndarray:
    """sqrt(x_j * dPhi~/dx_j) = |Psi(xi)_j| at x = |xi|^2, for each row of a
    pass, 0 on x_j = 0; bounded above by sqrt(2 max_k (J_k)_j)."""
    return np.sqrt(sums.X * sums.partials)


def potential_value(T: ToricPotential, x: Sequence[float]) -> float:
    return float(potential_values(evaluate(T, [x]))[0])


def potential_partial(T: ToricPotential, x: Sequence[float], j: int) -> float:
    """dPhi~/dx_j = 2 sum_k (J_k)_j x^{J_k - e_j} / sum_k x^{J_k} at x >= 0,
    continued to x_j = 0 by the reduced exponents J_k - e_j."""
    if not 0 <= j < T.dim:
        raise ValueError("axis out of range")
    return float(evaluate(T, [x]).partials[0, j])


def psi_maps(XI, sums: Sums) -> np.ndarray:
    """Psi at each row of the complex array XI, from the pass at
    moduli(XI), extended continuously to the coordinate hyperplanes;
    raises if some partial is nonpositive."""
    if (sums.partials <= 0).any():
        raise ValueError("a partial is nonpositive; the map is not defined here")
    return np.sqrt(sums.partials) * XI


def psi_map(T: ToricPotential, xi: Sequence[complex]) -> tuple[complex, ...]:
    """Psi(xi)_k = sqrt(dPhi~/dx_k at |xi|^2) * xi_k, extended continuously
    to the coordinate hyperplanes; raises if some partial is nonpositive."""
    XI = np.array([xi], dtype=complex)
    return tuple(complex(w) for w in psi_maps(XI, evaluate(T, moduli(XI)))[0])


def _complex_hessians(XI: np.ndarray, sums: Sums) -> np.ndarray:
    """d^2 Phi / d xi_a d conj(xi_b) at each row of XI, from the pass at
    moduli(XI) with hessians: in log coordinates the Hessian of Phi~ is
    twice the covariance of the exponents under the softmax weights (Abreu
    2003), so H_ab = 2 Cov(J_a, J_b) / (xi_a conj(xi_b)).  On x_a = 0 row
    and column a vanish but for H_aa, the continued dPhi~/dx_a."""
    X = sums.X
    xi = np.where(X == 0, 1.0, XI)
    H = 2.0 * sums.cov / (xi[:, :, None] * xi.conj()[:, None])
    r, a = np.nonzero(X == 0)
    if len(r):
        H[r, a, a] = sums.partials[r, a]
    return H


def central_stencil(p0: np.ndarray):
    """The central-difference stencil at each real row of p0 (m, k):
    P[r, b, 0] and P[r, b, 1] are row r moved by +steps[r, b] and
    -steps[r, b] along axis b, with steps = GRADIENT_STEP max(1, |p0|).
    Returns P (m, k, 2, k) and steps."""
    m, k = p0.shape
    steps = GRADIENT_STEP * np.maximum(1.0, np.abs(p0))
    shift = np.eye(k) * steps[:, :, None]  # shift[r, b] moves row r along axis b
    P = np.empty((m, k, 2, k))
    np.add(p0[:, None], shift, out=P[:, :, 0])
    np.subtract(p0[:, None], shift, out=P[:, :, 1])
    return P, steps


def pullback_stencil(XI: np.ndarray):
    """The stencil of Psi's Jacobian along the real axes (x, y) at each row
    of XI (m, n): its 4n complex points a row, stacked as (4nm, n), and
    their steps (m, 2n).  pullback_deviation reads a pass over the moduli
    of this stack followed by moduli(XI), with hessians for XI's m rows."""
    n = XI.shape[1]
    P, steps = central_stencil(np.concatenate([XI.real, XI.imag], axis=1))
    return (P[..., :n] + 1j * P[..., n:]).reshape(-1, n), steps


def pullback_deviation(XI: np.ndarray, stencil: np.ndarray, steps: np.ndarray, sums: Sums) -> float:
    """Max entrywise deviation, over the rows of XI, between J^T Omega0 J
    for the real Jacobian J of Psi and the form matrix of (i/2) del delbar
    Phi, read off the pass that pullback_stencil asks for: J is a central
    difference of psi_maps over the stencil, and the form is closed
    (_complex_hessians) on XI's rows.  A numerically singular Jacobian at
    any row gives one warning."""
    m, n = XI.shape
    psi = psi_maps(stencil, sums[:len(stencil)]).reshape(m, 2 * n, 2, n)
    diff = psi[:, :, 0] - psi[:, :, 1]
    del psi  # 4n complex rows a sample, the check's largest array
    # row b of jac_t is the central difference of Psi along axis b: J^T
    jac_t = np.concatenate([diff.real, diff.imag], axis=2) / (2 * steps[:, :, None])
    # J^T Omega0 J = A B^T - B A^T for the real and imaginary blocks [A | B] of J^T
    AB = jac_t[..., :n] @ jac_t[..., n:].transpose(0, 2, 1)
    # the form matrix of (i/2) del delbar Phi in real coordinates (x, y):
    # [[-Im H, Re H], [-Re H, -Im H]] for the complex Hessian H
    H = _complex_hessians(XI, sums[len(stencil):])
    rhs = np.empty((m, 2 * n, 2 * n))
    rhs[:, :n, :n] = rhs[:, n:, n:] = -H.imag
    rhs[:, :n, n:] = H.real
    rhs[:, n:, :n] = -H.real
    if (np.abs(np.linalg.det(jac_t)) < DEGENERATE_JACOBIAN_TOL).any():
        warnings.warn("Jacobian of Psi is numerically singular", DegenerateJacobianWarning)
    return float(np.abs(AB - AB.transpose(0, 2, 1) - rhs).max(initial=0.0))


def pullback_check(T: ToricPotential, xi) -> float:
    """pullback_deviation at xi, one point or an m x n array of points, one
    per row, from one pass over Psi's stencil and the rows.  Each row's
    deviation equals that of a call with the row alone."""
    XI = np.asarray(xi, dtype=complex)
    if XI.ndim not in (1, 2) or XI.shape[-1] != T.dim:
        raise ValueError(f"need {T.dim} coordinates")
    XI = XI.reshape(-1, T.dim)
    stencil, steps = pullback_stencil(XI)
    sums = evaluate(T, moduli(np.concatenate([stencil, XI])), hessians=len(XI))
    return pullback_deviation(XI, stencil, steps, sums)


def axis_radius_bounds(T: ToricPotential) -> np.ndarray:
    """sqrt(2 max_k (J_k)_j) for each axis j: the bound on |Psi_j|."""
    return np.sqrt(2 * T.exponent_columns.max(axis=1))


def suggested_path_exponent(T: ToricPotential, j: int) -> int:
    """Smallest s certain to make the axis-j terms dominate along the path
    x = (t^s on axis j, t elsewhere): one more than the largest complementary
    degree appearing in the exponent set."""
    return 1 + int((T.degrees - T.exponent_columns[j]).max())


def sup_along_path(T: ToricPotential, j: int, s: int, t_max: float) -> float:
    """Column j of radial_quantities along x_j = t^s, x_i = t (i != j),
    evaluated at t_max in log space so that huge powers like t^60 cannot
    overflow."""
    if t_max <= 1:
        raise ValueError("t_max must exceed 1")
    Jj = T.exponent_columns[j]
    # the exact integer weights s (J_k)_j + sum_{i != j} (J_k)_i, overwritten
    e = Jj * (s - 1)
    e += T.degrees
    e -= e.max()
    e *= math.log(t_max)
    np.exp(e, out=e)
    return math.sqrt(2 * (Jj @ e) / e.sum())

