"""Randomized property suites behind the command line verify subcommand.

Each check returns a CheckResult; a suite is a list of them.  Chart checks
run at relative tolerance 1e-9 on coordinates with modulus in [0.5, 2].
Of the numeric sweeps, the gradient sweep draws real x in [0.1, 10], the
pullback sweep modulus in [0.1, 0.9], and the radial and psi sweeps modulus
in [0.1, 3].

Every sweep draws its points from the seeded rng in the order and number of
a loop over charts (or ordered pairs of charts), then samples, then
coordinates, so a seed gives the same points however they are evaluated;
each slice takes them from one getrandbits call.  The chart sweeps put one
(chart, sample) or (chart a, chart b, sample) on each row and evaluate a
slice of rows in one numpy pass, each row with its own chart arrays
(charts.stack_charts).  A slice holds at most numeric.BATCH_ENTRIES
entries, counted by its sweep's row width, and draws its own points, so
memory does not grow with the sample count.  The one-chart sweeps have rows
of n * d entries; the transition sweep evaluates phi_b after psi_a on the n
coordinates that psi_a sets (charts.phi_after_psi_sigmas), rows of
n * (n + 1) entries.  The pullback sweep hands all samples to one
pullback_check call, which takes the form side in closed form, differences
only Psi and slices its stencils the same way.  The gradient and radial
sweeps draw their reals with one getrandbits call each (_uniform).

The transition exponents E[a,b] = U_b^-1 U_a are one exact table from a
single stacked product (charts.transition_exponents).  Its cocycle identity
E[b,c] E[a,b] = E[a,c] is checked on pairs only: E[a,a] = I for every a and
E[a,b] = E[0,b] E[a,0] for every (a, b), k^2 products instead of k^3.  With
M_a = E[a,0] these give E[0,b] M_b = E[b,b] = I, so E[a,b] = M_b^-1 M_a and
every triple composes.  Conversely the triple identity gives both facts for
invertible E (at a = b = c, and at b = 0), as every U_b^-1 U_a is, so the
pair check rejects every table that the triple check rejects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import numeric
from .charts import (
    ChartArrays,
    chart_for_cone,
    kernel_params,
    monomials,
    phi_after_psi_sigmas,
    phi_sigmas,
    psi_sigmas,
    stack_charts,
    torus_images,
    transition_exponents,
)
from .embedding import sections_by_polytope
from .fan import Fan, normal_fan
from .numeric import (
    ToricPotential,
    axis_radius_bound,
    potential_partials,
    potential_values,
    psi_maps,
    pullback_check,
    radial_quantities,
    sup_along_path,
    suggested_path_exponent,
)
from .polytope import HalfspacePolytope, clear_denominators

CHART_TOL = 1e-9
GRADIENT_TOL = 1e-5
PULLBACK_TOL = 1e-4
PATH_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float | None
    tolerance: float | None
    detail: str = ""


def _uniform(rng: random.Random, m: int, lo: float, hi: float) -> np.ndarray:
    """m draws rng.uniform(lo, hi), evaluated as random.uniform does: one
    getrandbits call gives the words, first drawn lowest, and two words w0,
    w1 make random()'s ((w0 >> 5) 2^26 + (w1 >> 6)) 2^-53."""
    w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4").reshape(m, 2)
    return lo + (hi - lo) * (((w[:, 0] >> 5) * 67108864.0 + (w[:, 1] >> 6)) * 2.0**-53)


def _coords(rng: random.Random, m: int, lo: float, hi: float) -> np.ndarray:
    """m points cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 pi)), drawn
    from rng in that order and evaluated as cmath.rect does (adding 1j * b
    to a leaves both parts as they are)."""
    u = _uniform(rng, 2 * m, 0.0, 1.0).reshape(m, 2)
    r, angle = lo + (hi - lo) * u[:, 0], 2 * math.pi * u[:, 1]
    return r * np.cos(angle) + 1j * (r * np.sin(angle))


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), initial=0.0))


def _sweep(rows: int, width: int, check) -> float:
    """The worst of check(r) over consecutive slices r of range(rows), each
    slice small enough that a work array of `width` entries per row stays
    within numeric.BATCH_ENTRIES."""
    step = max(1, numeric.BATCH_ENTRIES // width)
    return max(
        (check(np.arange(i, min(i + step, rows))) for i in range(0, rows, step)), default=0.0
    )


def _exponents_kill_relations(F: Fan, A: ChartArrays) -> bool:
    """Relations R among the generators G read off chart 0 (-V_0 on its cone
    rows, I on its complement rows) satisfy G R = 0, and every chart's
    exponent rows (I on its cone, V on its complement) kill them.  Together
    these hold exactly when every chart's V is U^-1 W.  The products are
    taken in Python ints, exact at any size; V itself fits in int64."""
    (k, n), d = A.cone.shape, A.d
    cone, complement, V = A.cone, A.complement, A.V.astype(object)
    R = np.zeros((d, d - n), dtype=object)
    R[complement[0], np.arange(d - n)] = 1
    R[cone[0]] = -V[0]
    X = np.zeros((k, n, d), dtype=object)
    chart, row = np.arange(k)[:, None], np.arange(n)[None, :]
    X[chart, row, cone] = 1
    X[chart[..., None], row[..., None], complement[:, None, :]] = V
    return not (np.array(F.generators, dtype=object).T @ R).any() and not (X @ R).any()


def chart_suite(F: Fan, seed: int = 0, samples: int = 10) -> list[CheckResult]:
    rng = random.Random(seed)
    d = len(F.generators)
    n = F.dim
    results = []
    charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
    k = len(charts)
    stack = stack_charts(charts)
    # rows are (chart, sample) or (chart a, chart b, sample), in the order of
    # a loop over them; each slice draws its own points from rng

    def identity(rows):
        # phi after psi is the identity on each chart
        xi = _coords(rng, len(rows) * n, 0.5, 2.0).reshape(-1, n)
        A = stack.take(rows // samples)
        return _rel_dev(phi_sigmas(A, psi_sigmas(A, xi)), xi)

    worst = _sweep(k * samples, n * d, identity)
    results.append(CheckResult("phi_after_psi_identity", worst < CHART_TOL, worst, CHART_TOL))

    # every chart has d - n complement generators; with none, there is no
    # kernel torus to check
    kernel_rows = k * samples if d > n else 0

    def in_kernel(rows):
        # kernel parametrization lands in the kernel of the torus map
        ac = _coords(rng, len(rows) * (d - n), 0.5, 2.0).reshape(-1, d - n)
        image = torus_images(F, kernel_params(stack.take(rows // samples), ac))
        return float(np.max(np.abs(image - 1.0), initial=0.0))

    worst = _sweep(kernel_rows, n * d, in_kernel)
    results.append(CheckResult("kernel_param_in_kernel", worst < CHART_TOL, worst, CHART_TOL))

    def invariance(rows):
        # chart maps are invariant under the kernel torus
        draws = _coords(rng, len(rows) * (2 * d - n), 0.5, 2.0).reshape(-1, 2 * d - n)
        z, ac = draws[:, :d], draws[:, d:]
        A = stack.take(rows // samples)
        return _rel_dev(phi_sigmas(A, kernel_params(A, ac) * z), phi_sigmas(A, z))

    worst = _sweep(kernel_rows, n * d, invariance)
    results.append(CheckResult("kernel_invariance", worst < CHART_TOL, worst, CHART_TOL))

    exact = _exponents_kill_relations(F, stack)
    results.append(CheckResult("exponents_kill_relations", exact, None, None))

    # the exact cocycle E[b,c] E[a,b] = E[a,c] on every triple follows from
    # E[a,a] = I and E[a,b] = E[0,b] E[a,0] on every pair (see module doc);
    # checked before the int64 copy of E exists, so that the copy and the
    # products E[0,b] E[a,0] are never held at once
    E = transition_exponents(charts)
    diagonal = bool((E[np.arange(k), np.arange(k)] == np.eye(n)).all())
    # E[0,b] E[a,0] at [a, b], a temporary
    cocycle = diagonal and np.array_equal(E[0][None] @ E[:, 0][:, None], E)
    exponents = E.reshape(k * k, n, n).astype(np.int64)

    # transitions: numeric agreement with phi_b(psi_a(xi)) for each pair
    def transitions(rows):
        xi = _coords(rng, len(rows) * n, 0.5, 2.0).reshape(-1, n)
        pair = rows // samples
        direct = phi_after_psi_sigmas(stack, pair // k, pair % k, xi)
        return _rel_dev(monomials(xi, exponents[pair]), direct)

    worst = _sweep(k * k * samples, n * (n + 1), transitions)
    results.append(CheckResult("transition_matches_charts", worst < CHART_TOL, worst, CHART_TOL))
    results.append(CheckResult("transition_cocycle_exact", cocycle, None, None))
    return results


def numeric_suite(
    T: ToricPotential, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Each sweep draws its samples from rng in the order a per-sample loop
    would, then evaluates them in one batch; the pullback sweep is one
    pullback_check call on all samples."""
    rng = random.Random(seed)
    n = T.dim
    results = []
    bounds = np.array([axis_radius_bound(T, j) for j in range(n)])

    # exact partials against central differences of the potential
    x = _uniform(rng, samples * n, 0.1, 10.0).reshape(samples, n)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    shift = np.eye(n) * h[:, :, None]  # shift[s, j] moves sample s along axis j
    stencil = np.concatenate([x[:, None, :] + shift, x[:, None, :] - shift])
    values = potential_values(T, stencil.reshape(-1, n)).reshape(2, samples, n)
    fd = (values[0] - values[1]) / (2 * h)
    exact = potential_partials(T, x)
    worst = float(np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact)), initial=0.0))
    results.append(CheckResult("gradient_finite_difference", worst < GRADIENT_TOL, worst, GRADIENT_TOL))

    # pullback of the standard form through Psi reproduces the form of Phi
    worst = pullback_check(T, _coords(rng, samples * n, 0.1, 0.9).reshape(samples, n))
    results.append(CheckResult("symplectic_pullback", worst < PULLBACK_TOL, worst, PULLBACK_TOL))

    # |Psi_j| never exceeds the per-axis radius bound
    # squared by libm pow, as rng.uniform(0.1, 3.0) ** 2 was, not numpy's x * x
    x = np.array([u**2 for u in _uniform(rng, 10 * samples * n, 0.1, 3.0).tolist()])
    gap = radial_quantities(T, x.reshape(-1, n)) - bounds
    worst = float(np.max(gap, initial=0.0))
    results.append(CheckResult("radial_bound", not (gap > 1e-9).any(), worst, 1e-9))

    # the radial quantity attains the bound along the distinguished path
    worst = 0.0
    for j in range(n):
        s = suggested_path_exponent(T, j)
        got = sup_along_path(T, j, s, 1e6)
        worst = max(worst, abs(got - float(bounds[j])))
    results.append(CheckResult("radial_sup_along_path", worst < PATH_TOL, worst, PATH_TOL))

    # Psi extends to the closed chart with |Psi_j|^2 below 2 max_k (J_k)_j
    w = psi_maps(T, _coords(rng, samples * n, 0.1, 3.0).reshape(-1, n))
    ok = not (np.abs(w) > bounds + 1e-9).any()
    results.append(CheckResult("psi_within_cylinder", ok, None, None))
    return results


def polytope_suites(
    P: HalfspacePolytope, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Chart and numeric suites derived from one polytope.

    The fan is built once, on P, so an undefined fan names P's vertex; qP,
    for q = P.integer_offsets[0], has the same fan and gets P's vertices,
    and the embedding is that of qP at its first vertex.
    """
    results = chart_suite(normal_fan(P), seed=seed, samples=samples)
    _, Pq = clear_denominators(P)
    E = sections_by_polytope(Pq, Pq.vertices[0])
    results += numeric_suite(ToricPotential(E), seed=seed, samples=samples)
    return results
