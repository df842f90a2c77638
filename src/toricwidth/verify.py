"""Property suites behind the command line verify subcommand.

Each check returns a CheckResult; a suite is a list of them.

The chart suite draws no points: each chart check is an identity between
Laurent monomial maps, which holds on the torus exactly when two integer
exponent matrices are equal, and exact_checks decides all six on the exact
table of charts.chart_table, of shape (k, n, d) for k charts: T[c] is the
pairings U_c^-1 G^T that the walk kept at chart c's vertex, with G the
(d, n) generators.  Chart c's map phi_c has exponents T[c], its V_c being
T[c] on c's complement, psi_c puts its coordinates on c's cone and 1
elsewhere, and R_c, -V_c on c's cone rows and I on its complement rows,
parametrizes the kernel torus: ac -> ac^(R_c).

- phi_after_psi_identity: phi_c after psi_c has exponents T[c] on c's cone,
  so it is the identity iff that is I (the diagonal).
- kernel_param_in_kernel: the torus map alpha -> alpha^(G^T) after the
  parametrization has exponents G^T R_c = W_c - U_c V_c, for U_c and W_c
  the generators on c's cone and off it: trivial iff U_c V_c = W_c.
- kernel_invariance: moving z by ac^(R_c) moves phi_c(z) by ac^(T[c] R_c),
  and T[c] R_c = V_c - D_c V_c for D_c = T[c] on c's cone: invariant iff
  D_c V_c = V_c, which the diagonal implies.
- exponents_kill_relations: the relations R_0 read off chart 0 satisfy
  G^T R_0 = 0 (the kernel check at chart 0), and every chart's exponent
  rows X[c] (T[c] with I on c's cone, as phi_c's formula reads them) kill
  them: X[c] R_0 = X[c] on 0's complement - (X[c] on 0's cone) V_0 = 0.
  Together these hold exactly when every chart's V is U^-1 W.
- transition_matches_charts: phi_b after psi_a has exponents X[b] on a's
  cone, and the chart change U_b^-1 U_a is U_b^-1 G^T there, multiplied out
  of the table's inverses; over every pair (a, b) that is
  U_b^-1 G^T = X[b] on the generators that lie in some cone (used): the
  walk's edges times G against its pairings, which its pivots update apart.
- transition_cocycle_exact: E[b,c] E[a,b] = E[a,c] is checked on pairs:
  E[a,a] = I for every a and E[a,b] = E[0,b] E[a,0] for every (a, b).  With
  M_a = E[a,0] these give E[0,b] M_b = E[b,b] = I, so E[a,b] = M_b^-1 M_a
  and every triple composes.  Conversely the triple identity gives both
  facts for invertible E (at a = b = c, and at b = 0), as every U_b^-1 U_a
  is, so the pair check rejects every table that the triple check rejects.
  Column m of E[a,b] is T[b]'s column of generator cone_a[m], and that of
  E[0,b] E[a,0] is E[0,b] times T[0]'s column of the same generator; so the
  k^2 pair identities are the k identities T[b] = E[0,b] T[0] on the used
  columns, and E[a,a] = I is the diagonal.

Each check is at most k n^2 d products, and none runs over the k^2 pairs.
They run in the table's dtype: int64 when chart_table's bound d M^2 < 2^63
holds.  M bounds every entry of G, of T (and so of each V_c and X[c]) and
n max|U^-1| max|G|.  An entry of U_c V_c, D_c V_c, (X[c] on 0's cone) V_0
or T[:, :, cone_0] T[0] is a sum of n products of at most M^2 each, and
one of U_b^-1 G^T a sum of n products of at most M / n: every product and
partial sum stays within n M^2 <= d M^2, so int64 is exact whenever
chart_table picked it.

The numeric checks draw their points from a random.Random(seed) of their
own: the gradient check real x in [0.1, 10], the pullback check modulus in
[0.1, 0.9], and the radial and psi checks modulus in [0.1, 3], so none lies
on a coordinate hyperplane.  They come in the order and number of a loop
over the checks and then the samples, one call a draw: a real point is
rng.uniform(lo, hi), a complex one cmath.rect(rng.uniform(lo, hi),
rng.uniform(0, 2 pi)), and a radial square rng.uniform(0.1, 3.0) ** 2.
chunk_draws makes a chunk's random() calls in one C pass and applies
Random.uniform's own arithmetic to them, so the points are the same bits.

The numeric suite takes a chunk's points from chunk_draws inside its loop
over chunks, each check from its own copy of the generator, set to the
check's first draw.
Every row where a check needs the potential, 6n + 13 a sample, goes into
one stack: the gradient stencil (2n) and its base point, the 10 radial
rows, the Psi row, Psi's stencil (4n) and, last, the pullback's base row,
which alone needs the n x n covariances.  The stack goes through one
numeric.evaluate pass a chunk, with hessians for those rows, in slices of
at most numeric.BATCH_ENTRIES point-monomial pairs, or point-fibre pairs
where the potential sums its fibres in closed form; each check then hands
its rows' Sums to the function the library offers for it (potential_values,
pullback_deviation, radial_quantities, psi_maps), and the path check of
every axis is one numeric.sups_along_paths call.  The chunks have at most
BATCH_ENTRIES // n^2 samples (one chunk at the default 10 for n <= 40), so
whatever the sample count a chunk holds at most (6 + 13/n) BATCH_ENTRIES
floats of stack and 8 BATCH_ENTRIES of Psi's stencil, dropped before the
next chunk's; every value is computed row by row, so the chunks give the
values of one stack.
"""

from __future__ import annotations

import cmath
import collections
import copy
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import numeric
from .charts import ChartTable, chart_table
from .embedding import sections_by_polytope
from .fan import Fan, normal_fan
from .numeric import (
    ToricPotential,
    axis_radius_bounds,
    evaluate,
    moduli,
    potential_values,
    psi_maps,
    pullback_deviation,
    pullback_stencil,
    radial_quantities,
    sups_along_paths,
)
from .polytope import HalfspacePolytope, delzant_vertices

GRADIENT_TOL = 1e-5
PULLBACK_TOL = 1e-4
PATH_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float | None
    tolerance: float | None


def exact_checks(table: ChartTable) -> list[CheckResult]:
    """The six chart checks, each decided exactly on the table T (see the
    module doc), in the table's dtype, which chart_table chose so that
    every product and partial sum fits."""
    T, G, cone, complement = table.T, table.generators, table.cone, table.complement
    k, n, d = T.shape
    chart, row = np.arange(k)[:, None, None], np.arange(n)[:, None]
    identity = np.eye(n, dtype=T.dtype)
    D = T[chart, row, cone[:, None]]  # T[c] on c's cone
    V = T[chart, row, complement[:, None]]
    U, W = G[cone].transpose(0, 2, 1), G[complement].transpose(0, 2, 1)
    diagonal = bool((D == identity).all())
    in_kernel = (U @ V == W).all(axis=(1, 2))  # G^T R_c = 0, chart by chart
    X = T.copy()
    X[chart, row, cone[:, None]] = identity
    used = np.zeros(d, dtype=bool)  # the generators in some cone
    used[cone] = True
    checks = {
        "phi_after_psi_identity": diagonal,
        "kernel_param_in_kernel": bool(in_kernel.all()),
        "kernel_invariance": bool((D @ V == V).all()),
        "exponents_kill_relations": bool(in_kernel[0])
        and bool((X[:, :, cone[0]] @ V[0] == X[:, :, complement[0]]).all()),
        "transition_matches_charts": bool((table.inverses @ G[used].T == X[:, :, used]).all()),
        "transition_cocycle_exact": diagonal
        and bool((T[:, :, cone[0]] @ T[0][:, used] == T[:, :, used]).all()),
    }
    return [CheckResult(name, passed, None, None) for name, passed in checks.items()]


def chart_suite(F: Fan) -> list[CheckResult]:
    return exact_checks(chart_table(F))


def _random(rng: random.Random, k: int):
    """The next k rng.random() values, in order, called in C."""
    return itertools.starmap(rng.random, itertools.repeat((), k))


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo + (hi - lo) * u for each random() value of u: what rng.uniform(lo,
    hi) computes from its one random() call, in the same two roundings."""
    return lo + (hi - lo) * u


def chunk_draws(seed: int, n: int, samples: int, chunk: int):
    """The points of the gradient, pullback, radial and psi checks, a chunk
    of at most `chunk` samples at a time: arrays of shape (m, n), (m, n),
    (10 m, n) and (m, n) for the chunk's m samples.

    They are the draws of a loop over the checks and then the samples from
    one random.Random(seed), bit for bit: a real point is rng.uniform(lo,
    hi), lo + (hi - lo) * rng.random() in Random.uniform's own arithmetic; a
    complex point is cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 pi));
    and a radial square is rng.uniform(0.1, 3.0) ** 2, by pow, the libm call
    that ** 2 makes (np.square can differ in the last bit).  A chunk's
    random() calls, every check's in turn, fill one array in one C pass, and
    cmath.rect and pow map over its slices in C.  Each check draws from its
    own copy of the generator, set to the check's first draw.
    """
    # the gradient, pullback and radial checks take n, 2n and 10n random()
    # calls a sample, so each later check's copy of rng starts that far on;
    # in one chunk (the default) the checks draw in turn from rng itself, as
    # a copy costs about a tenth of a small verify call
    rngs = [random.Random(seed)]
    for calls in (n, 2 * n, 10 * n):
        rng = rngs[-1]
        if samples > chunk:
            rng = copy.copy(rng)
            collections.deque(_random(rng, calls * samples), 0)  # the earlier checks' draws
        rngs.append(rng)

    def points(u: np.ndarray, hi: float) -> np.ndarray:  # a modulus, then an angle
        r, phi = _uniform(u[::2], 0.1, hi).tolist(), _uniform(u[1::2], 0, 2 * math.pi).tolist()
        return np.fromiter(map(cmath.rect, r, phi), complex, len(r)).reshape(-1, n)

    def chunk_points(k: int):  # k = m n, the draws die with the call
        u = np.fromiter(itertools.chain(*map(_random, rngs, (k, 2 * k, 10 * k, 2 * k))), float, 15 * k)
        radii = _uniform(u[3 * k:13 * k], 0.1, 3.0).tolist()
        radial = np.fromiter(map(math.pow, radii, itertools.repeat(2.0)), float, 10 * k)
        x = _uniform(u[:k], 0.1, 10.0).reshape(-1, n)
        return x, points(u[k:3 * k], 0.9), radial.reshape(-1, n), points(u[13 * k:], 3.0)

    for i in range(0, samples, chunk):
        yield chunk_points(min(chunk, samples - i) * n)


def numeric_suite(
    T: ToricPotential, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """A chunk of samples at a time, each check takes its chunk's points
    from chunk_draws, which draws them as a per-sample loop would; then the
    rows of every check go through one evaluate pass, with covariances for
    the pullback check's base rows, and each check reads its rows' sums."""
    n = T.dim
    bounds = axis_radius_bounds(T)
    chunk = max(1, numeric.BATCH_ENTRIES // (n * n))
    # the worst gradient, pullback and radial deviations so far (the largest
    # signed gap, 0.0 without samples); np.maximum keeps a nan
    worst, psi_ok = np.array([0.0, 0.0, -math.inf]), True
    for x, xi_pullback, radial, xi_psi in chunk_draws(seed, n, samples, chunk):
        m = len(x)
        stencil, h = numeric.central_stencil(x)
        psi_stencil, psi_steps = pullback_stencil(xi_pullback)
        # the gradient stencil and points, the radial rows, then the moduli of
        # the psi check's rows, of Psi's stencil and, last for their
        # covariances, of the pullback's base rows
        x_rows = moduli(np.concatenate([xi_psi, psi_stencil, xi_pullback]))
        sums = evaluate(T, np.concatenate([stencil.reshape(-1, n), x, radial, x_rows]), hessians=m)
        at_x, at_radial, at_psi = 2 * n * m, (2 * n + 1) * m, (2 * n + 11) * m

        # exact partials against central differences of the potential
        values = potential_values(sums[:at_x]).reshape(-1, n, 2)
        fd = (values[..., 0] - values[..., 1]) / (2 * h)
        exact = sums.partials[at_x:at_radial]
        dev = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))

        # pullback of the standard form through Psi reproduces the form of Phi
        pullback = pullback_deviation(xi_pullback, psi_stencil, psi_steps, sums[at_psi + m:])

        # |Psi_j| never exceeds the per-axis radius bound: the largest signed
        # gap, so that a passing run shows its margin
        gap = np.maximum.reduce(radial_quantities(sums[at_radial:at_psi]) - bounds, axis=None)
        np.maximum(worst, (np.maximum.reduce(dev, axis=None), pullback, gap), out=worst)

        # |Psi_j|^2 stays below 2 max_k (J_k)_j at the drawn points, |xi| in
        # [0.1, 3]; on the closed chart's hyperplanes the tests check it
        psi = psi_maps(xi_psi, sums[at_psi:at_psi + m])
        psi_ok &= not np.logical_or.reduce(np.abs(psi) > bounds + 1e-9, axis=None)
        del stencil, psi_stencil, x_rows, sums  # before the next chunk's are drawn

    fd, pullback, gap = worst.tolist() if samples > 0 else (0.0, 0.0, 0.0)
    # the radial quantity attains the bound along the distinguished path
    sups = sups_along_paths(T, slice(None), 1e6)
    path = float(np.maximum.reduce(np.abs(sups - bounds), axis=None, initial=0.0))
    return [
        CheckResult("gradient_finite_difference", fd < GRADIENT_TOL, fd, GRADIENT_TOL),
        CheckResult("symplectic_pullback", pullback < PULLBACK_TOL, pullback, PULLBACK_TOL),
        CheckResult("radial_bound", gap <= 1e-9, gap, 1e-9),
        CheckResult("radial_sup_along_path", path < PATH_TOL, path, PATH_TOL),
        CheckResult("psi_within_cylinder", psi_ok, None, None),
    ]


def polytope_suites(
    P: HalfspacePolytope, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Chart and numeric suites of one polytope, refused by delzant_vertices.

    The fan is built once, on P.  The embedding is that of qP, for
    q = P.integer_offsets[0], at its first vertex: sections_by_polytope
    reads the chart of qP there off the walk's slacks and pairings, so no
    dilated copy of P and no second polytope is built.
    """
    vertices = delzant_vertices(P)
    results = chart_suite(normal_fan(P))
    E = sections_by_polytope(P, vertices[0])
    results += numeric_suite(ToricPotential(E), seed=seed, samples=samples)
    return results
