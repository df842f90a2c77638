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
outside it or one whose monomial sum vanishes ("potential undefined:
monomial sum vanishes"); what reads a pass's Sums checks none.

All of it comes from passes over stacks of points (evaluate), one point per
row.  A pass takes log x once, finite exactly when no coordinate is zero,
negative or not finite, so one test clears a stack of drawn points, and
runs under one errstate.  Each check is a function of a pass's per-row Sums
(potential_values, radial_quantities, psi_maps and pullback_deviation,
whose rows are Psi's stencil and then its base rows, last for their
covariances), so a caller may stack the rows of all checks into one pass,
as verify's numeric suite does.

A pass sums the monomials in one of two ways.  The dense pass
(_dense_sums) sums over every exponent, per slice of at most BATCH_ENTRIES
point-monomial pairs: each row's log sum, softmax weights and partials,
and _covariances, for the pass's last hessians rows, the covariances the
Hessian needs.  The closed pass (_fibre_sums) sums each fibre (prefix,
a..b) in closed form, per slice of at most BATCH_ENTRIES point-fibre
pairs.  With s = log x_n, v = |s| and the index i counted from the fibre's
heavy end (b if s >= 0, else a), a fibre of length L is e^{M_f} sum_i
e^{-v i}, for M_f = <t', p_f> + s * (heavy end), so

    S0 = sum_i e^{-v i} = expm1(-L v) / expm1(-v)   (L at v = 0),
    mu = mean of i = 1 / expm1(v) - L / expm1(L v),
    sigma^2 = variance of i = 1 / (4 sinh^2(v/2)) - L^2 / (4 sinh^2(L v/2)),

each written through e^{-v} and e^{-L v}, which cannot overflow.  Below
L v = SERIES_BELOW the two terms of mu and sigma^2 cancel, and their series
take over: mu = (L-1)/2 - v (L^2-1)/12 + v^3 (L^4-1)/720 - v^5 (L^6-1)/30240
and sigma^2 = (L^2-1)/12 - v^2 (L^4-1)/240 + v^4 (L^6-1)/6048.  Then lse =
top + log sum_f e^{M_f - top} S0_f, the mean exponent is the weighted mean
of the fibres' centres (p_f, heavy end -+ mu_f), and the covariances are
the weighted covariance of the centres plus sum_f w_f sigma^2_f on entry
(n, n).  The closed pass runs where the potential's mean fibre length N / F
reaches CLOSED_FORM_LENGTH (T.closed_form), at the rows off the coordinate
hyperplanes; the dense pass takes every other row and stays the closed
one's oracle in the tests.

Every step of either pass works row by row, so a row's values do not
depend on the other rows of its pass: each sum over the monomials or the
fibres is an einsum or a reduction along the contiguous axis, whose kernel
adds a row's terms in an order fixed by N (or F) alone, where a BLAS
product would block the sum by the shape of the whole slice, and
sups_along_paths takes every axis in one call, a row's dot being the BLAS
call of 1-D operands.  Reductions call the ufuncs' reduce, as the ndarray
methods first run numpy's Python-level wrappers.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
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
# evaluate sums each fibre in closed form once the mean fibre length N / F
# reaches this.  The closed pass makes about three times the dense pass's
# numpy calls, so it wins only on long fibres: over verify's numeric suite
# the two cost the same at N / F = 13 in two dimensions (cpn:2:24), near 8
# in three and near 60 in one, where the suite's stack is shortest
CLOSED_FORM_LENGTH = 13
# below L v = SERIES_BELOW a fibre's mean and variance take their series
SERIES_BELOW = 0.05


FORM_PARTS, FORM_SIGNS = np.array([[1, 0], [0, 1]]), np.array([[-1.0, 1.0], [-1.0, -1.0]])


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
        monomial in lexicographic order, built from the fibres: each fibre's
        prefix above a - start (its first x_n less its first column),
        repeated along the fibre, plus the column index on the last row.
        Exact, as the exponents of a section set stay far below 2^53."""
        prefixes, a, b = zip(*self.embedding.fibres)
        lengths = [hi - lo + 1 for lo, hi in zip(a, b)]
        heads = [*zip(*prefixes), list(map(operator.sub, a, accumulate(lengths, initial=0)))]
        J = np.array(heads, dtype=float).repeat(lengths, axis=1)
        J[-1] += np.arange(J.shape[1])
        return J

    @cached_property
    def degrees(self) -> np.ndarray:
        """The total degree sum_j (J_k)_j of each monomial, as floats."""
        return np.add.reduce(self.exponent_columns, axis=0)

    @cached_property
    def fibre_columns(self) -> np.ndarray:
        """The fibres (prefix, a, b) as an (n + 2) x F float array, one
        column per fibre: the n - 1 prefix rows, then a, b and the fibre's
        length b - a + 1."""
        prefixes, a, b = zip(*self.embedding.fibres)
        C = np.array([*zip(*prefixes), a, b, b], dtype=float)
        C[-1] -= C[-3] - 1
        return C

    @cached_property
    def closed_form(self) -> bool:
        """Whether evaluate sums each fibre in closed form: the mean fibre
        length N / F reaches CLOSED_FORM_LENGTH."""
        fibres = self.embedding.fibres
        return sum(b - a + 1 for _, a, b in fibres) >= CLOSED_FORM_LENGTH * len(fibres)


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


def _row_max(L: np.ndarray) -> np.ndarray:
    """Each row's max, exact in any order: reduceat runs a row in one inner
    loop, where a reduction along axis 1 pays for each short row."""
    return np.maximum.reduceat(L.ravel(), np.arange(0, L.size, L.shape[1]))


def _dense_sums(T: ToricPotential, X: np.ndarray, t: np.ndarray, zero: np.ndarray | None):
    """The dense pass over a slice: log sum_k x^{J_k} and dPhi~/dx_j at the
    rows x >= 0 of X, from t = log x (log 0 read as 0) and zero, which marks
    the zero coordinates or is None if there is none, and a function giving
    the covariances of a run of these rows.  Rows whose monomials all
    vanish get a nan log sum."""
    JT = T.exponent_columns
    # einsum, not t @ JT: it adds each entry's n products in axis order, as
    # an axis-by-axis sum would, where BLAS sums in an order set by the batch
    raw = np.einsum("mj,jk->mk", t, JT)
    # the log-monomials; with no zero coordinate the weights overwrite raw,
    # which only the partials on x_j = 0 read again
    L = raw if zero is None else np.where(zero @ (JT > 0), -np.inf, raw)
    top = _row_max(L)
    W = np.subtract(L, top[:, None], out=L)
    np.exp(W, out=W)
    den = np.add.reduce(W, axis=1)
    lse = top + np.log(den)
    # einsum, not W @ JT.T: along the contiguous monomial axis it sums a
    # row in an order fixed by N alone, where BLAS sums in an order set by
    # the batch, so a row's partials do not depend on the other rows
    partials = 2.0 * np.einsum("mk,jk->mj", W, JT) / den[:, None] / X
    # on x_j = 0 only the reduced monomials x^{J_k - e_j} with (J_k)_j = 1
    # survive, and only if no other zero coordinate kills them
    for r, j in zip(*np.nonzero(zero)) if zero is not None else ():
        others = zero[r].copy()
        others[j] = False
        alive = (JT[j] == 1) & ~(JT[others] > 0).any(axis=0)
        partials[r, j] = 2.0 * np.exp(raw[r, alive] - lse[r]).sum()
    return lse, partials, lambda rows: _covariances(W[rows], den[rows], JT, "mk,jk->mj")


def _covariances(W: np.ndarray, den: np.ndarray, centres: np.ndarray, means: str) -> np.ndarray:
    """sum_k w_k D_ak D_bk at each row of the weights W, normalized by den
    in place, with D = c - sum_k w_k c_k for the points c_k, the columns
    of centres, and means the einsum that gives sum_k w_k c_k."""
    W /= den[:, None]
    # einsum along the contiguous axis of the points, as in _dense_sums
    D = centres - np.einsum(means, W, centres)[:, :, None]
    # three operands in one einsum, so that D is the only (m, n, K) array
    return np.einsum("mk,mak,mbk->mab", W, D, D)


def _fibre_sums(T: ToricPotential, X: np.ndarray, t: np.ndarray, zero):
    """The closed pass over a slice: what _dense_sums gives at rows x > 0
    (zero marks no coordinate), each fibre summed in closed form (see the
    module doc)."""
    C = T.fibre_columns
    P, L = C[:-3], C[-1]
    s = t[:, -1:]
    # the fibres' heavy ends, where x^J is largest along the fibre (b at
    # s = 0 too), and -v, -L v for v = |s|: each fibre's terms are
    # e^{M_f - v i}, 0 <= i < L
    heavy = np.where(s >= 0, C[-2], C[-3])
    nv = -np.abs(s)
    nLv = L * nv
    e, eL = np.expm1(nv), np.expm1(nLv)
    r, rL = np.exp(nv) / e, np.exp(nLv) / eL
    # the mean and variance of i: differences of two terms of order 1 / v
    # that cancel as L v -> 0, where their series take over
    LrL = L * rL
    mu, var = LrL - r, r / e - L * LrL / eL
    S0 = eL / e  # sum_i e^{-v i}
    series = nLv > -SERIES_BELOW
    if np.logical_or.reduce(series, axis=None):
        v, w = -nv, L * L
        u = v * v
        c1, c2, c3 = (w - 1) / 12, (w * w - 1) / 240, (w * w * w - 1) / 6048
        mu = np.where(series, (L - 1) / 2 - v * (c1 - u * (c2 / 3 - u * c3 / 5)), mu)
        var = np.where(series, c1 - u * (c2 - u * c3), var)
        S0 = np.where(v == 0, L, S0)
    M = np.einsum("mj,jf->mf", t[:, :-1], P)
    M += s * heavy
    top = _row_max(M)
    E = np.subtract(M, top[:, None], out=M)
    np.exp(E, out=E)
    E *= S0
    den = np.add.reduce(E, axis=1)
    lse = top + np.log(den)
    # the mean exponent of each fibre: its prefix, and its mean x_n, b - mu
    # or a + mu
    mean = heavy - np.copysign(mu, s)
    sums = np.empty_like(X)
    sums[:, :-1] = np.einsum("mf,jf->mj", E, P)
    sums[:, -1] = np.einsum("mf,mf->m", E, mean)
    partials = 2.0 * sums / den[:, None] / X

    def covariances(rows):
        # the covariance of the fibres' means, plus the variance along them
        means = mean[rows, None]
        centres = np.concatenate([np.broadcast_to(P, (len(means), *P.shape)), means], axis=1)
        spread = np.einsum("mf,mf->m", E[rows], var[rows]) / den[rows]
        cov = _covariances(E[rows], den[rows], centres, "mk,mjk->mj")
        cov[:, -1, -1] += spread
        return cov

    return lse, partials, covariances


def _sums(T: ToricPotential, X: np.ndarray, t: np.ndarray, zero, hessians: int, kernel):
    """lse, partials and the covariances of the last hessians rows, from
    kernel (_dense_sums or _fibre_sums) over slices of at most
    BATCH_ENTRIES point-monomial (or point-fibre) pairs, and a slice's
    covariance rows, whose work array is n times as wide, n times fewer at
    a time."""
    (m, n), K = X.shape, (T.fibre_columns if kernel is _fibre_sums else T.exponent_columns).shape[1]
    first = m - hessians
    lse, partials, cov = np.empty(m), np.empty((m, n)), np.empty((hessians, n, n))
    step, wide = max(1, BATCH_ENTRIES // K), max(1, BATCH_ENTRIES // (K * n))
    for i in range(0, m, step):
        rows = slice(i, i + step)
        z = None if zero is None else zero[rows]
        lse[rows], partials[rows], covariances = kernel(T, X[rows], t[rows], z)
        stop = min(i + step, m)
        for j in range(max(i, first), stop, wide):
            k = min(j + wide, stop)
            cov[j - first:k - first] = covariances(slice(j - i, k - i))
    return lse, partials, cov


def evaluate(T: ToricPotential, X, hessians: int = 0) -> Sums:
    """The Sums at each row of X (points with nonnegative coordinates), with
    the covariances, n^2 floats a row, of the last hessians rows; it alone
    refuses rows.

    A potential whose fibres are long (T.closed_form) takes the closed pass
    at every row off the coordinate hyperplanes, the rest the dense pass;
    every step of either works row by row, so a row's values do not depend
    on the other rows of its pass."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != T.dim:
        raise ValueError(f"need points with {T.dim} coordinates, one per row")
    # x_j = 0 divides by zero, and a vanishing sum makes a row nan, refused
    # below; the closed pass's unused branch may overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # finite exactly where x is positive and finite, as on the drawn points
        t, zero = np.log(X), None
        if not np.logical_and.reduce(np.isfinite(t), axis=None):
            if (X < 0).any():
                raise ValueError("coordinates must be nonnegative")
            if not np.isfinite(X).all():
                raise ValueError("coordinate not finite: x = |xi|^2 overflows above |xi| ~ 1.3e154")
            zero = X == 0
            t = np.log(np.where(zero, 1.0, X))
        m, n = X.shape
        if isinstance(hessians, bool) or not 0 <= hessians <= m:  # True is no row count
            raise ValueError(f"hessians must count some of the {m} rows")
        if T.closed_form and zero is not None:
            # the closed pass at the rows off the coordinate hyperplanes, the
            # dense one at the rest, each row to its place
            lse, partials, cov = np.empty(m), np.empty((m, n)), np.empty((hessians, n, n))
            on, first = np.logical_or.reduce(zero, axis=1), m - hessians
            for rows, kernel in ((np.flatnonzero(~on), _fibre_sums),
                                 (np.flatnonzero(on), _dense_sums)):
                h = np.count_nonzero(rows >= first)
                part = _sums(T, X[rows], t[rows], zero[rows], h, kernel)
                lse[rows], partials[rows], cov[rows[len(rows) - h:] - first] = part
        else:
            kernel = _fibre_sums if T.closed_form else _dense_sums
            lse, partials, cov = _sums(T, X, t, zero, hessians, kernel)
    if np.logical_or.reduce(np.isnan(lse)):
        raise ValueError("potential undefined: monomial sum vanishes")
    return Sums(X, lse, partials, cov)


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
    if np.logical_or.reduce(sums.partials <= 0, axis=None):
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
    zero = sums.X == 0
    xi = np.where(zero, 1.0, XI)
    H = 2.0 * sums.cov / (xi[:, :, None] * xi.conj()[:, None])
    r, a = zero.nonzero()
    if len(r):
        H[r, a, a] = sums.partials[r, a]
    return H


@cache
def _signed_axes(n: int, imaginary: bool = False) -> np.ndarray:
    """A[b, 0] = e_b and A[b, 1] = -e_b along each axis b: the n real axes,
    or with imaginary the 2n real axes (x, then y) of C^n, as complex
    vectors; one array per shape, so that no stencil builds its own."""
    axes = np.identity(n)
    if imaginary:
        axes = np.concatenate([axes, 1j * axes])
    signed = np.stack([axes, -axes], axis=1)
    signed.flags.writeable = False  # shared by every later call
    return signed


def central_stencil(p0: np.ndarray):
    """The central-difference stencil at each real row of p0 (m, k):
    P[r, b, 0] and P[r, b, 1] are row r moved by +steps[r, b] and
    -steps[r, b] along axis b, with steps = GRADIENT_STEP max(1, |p0|).
    Returns P (m, k, 2, k) and steps."""
    steps = GRADIENT_STEP * np.maximum(1.0, np.abs(p0))
    return p0[:, None, None] + steps[:, :, None, None] * _signed_axes(p0.shape[1]), steps


def pullback_stencil(XI: np.ndarray):
    """The stencil of Psi's Jacobian along the real axes (x, y) at each row
    of XI (m, n): its 4n complex points a row, stacked as (4nm, n), and
    their steps (m, 2n), as central_stencil takes them on (Re XI, Im XI).
    pullback_deviation reads a pass over the moduli of this stack followed
    by moduli(XI), with hessians for XI's m rows."""
    n = XI.shape[1]
    steps = GRADIENT_STEP * np.maximum(1.0, np.abs(np.concatenate([XI.real, XI.imag], axis=1)))
    stencil = XI[:, None, None] + steps[:, :, None, None] * _signed_axes(n, imaginary=True)
    return stencil.reshape(-1, n), steps


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
    # J^T Omega0 J = A B^T - B A^T for the real and imaginary blocks [A | B]
    # of J^T, with block (p, q) of its rows and columns as [r, a, b, p, q]
    AB = jac_t[..., :n] @ jac_t[..., n:].transpose(0, 2, 1)
    pulled = (AB - AB.transpose(0, 2, 1)).reshape(m, 2, n, 2, n).transpose(0, 2, 4, 1, 3)
    # the form matrix of (i/2) del delbar Phi in real coordinates (x, y),
    # [[-Im H, Re H], [-Re H, -Im H]] for the complex Hessian H, as [r, a, b, p, q]:
    # block (p, q) is part FORM_PARTS[p, q] of H (0 real, 1 imaginary) times FORM_SIGNS[p, q]
    H = _complex_hessians(XI, sums[len(stencil):]).view(float).reshape(m, n, n, 2)
    form = H[..., FORM_PARTS] * FORM_SIGNS
    if np.logical_or.reduce(np.abs(np.linalg.det(jac_t)) < DEGENERATE_JACOBIAN_TOL):
        warnings.warn("Jacobian of Psi is numerically singular", DegenerateJacobianWarning)
    return float(np.maximum.reduce(np.abs(pulled - form), axis=None, initial=0.0))


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
    return np.sqrt(2 * np.maximum.reduce(T.exponent_columns, axis=1))


def suggested_path_exponents(T: ToricPotential) -> np.ndarray:
    """For each axis j, the smallest s certain to make the axis-j terms
    dominate along the path x = (t^s on axis j, t elsewhere): one more than
    the largest complementary degree appearing in the exponent set."""
    return 1 + np.maximum.reduce(T.degrees - T.exponent_columns, axis=1)


def sups_along_paths(T: ToricPotential, axes, t_max: float) -> np.ndarray:
    """Row i: column j = axes[i] (axes a list or a slice) of
    radial_quantities along x_j = t^s, x_l = t (l != j), for s the suggested
    path exponent of axis j, at t_max in log space so that huge powers like
    t^60 cannot overflow.  A row's sums, one vector product and a pairwise
    sum along it, do not depend on the other rows."""
    if t_max <= 1:
        raise ValueError("t_max must exceed 1")
    J = T.exponent_columns[axes]
    # the exact integer weights s (J_k)_j + sum_{l != j} (J_k)_l, overwritten
    E = J * (suggested_path_exponents(T)[axes, None] - 1)
    E += T.degrees
    E -= np.maximum.reduce(E, axis=1, keepdims=True)
    E *= math.log(t_max)
    np.exp(E, out=E)
    return np.sqrt(2 * (J[:, None] @ E[:, :, None])[:, 0, 0] / np.add.reduce(E, axis=1))
