"""Randomized property suites behind the command line verify subcommand.

Each check returns a CheckResult; a suite is a list of them.  Chart checks
run at relative tolerance 1e-9 on coordinates with modulus in [0.5, 2];
numeric sweeps use modulus in [0.1, 3].
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .charts import (
    chart_for_cone,
    kernel_param,
    monomial_eval,
    phi_sigma,
    psi_sigma,
    torus_image,
    transition_map,
)
from .embedding import sections_by_polytope
from .fan import Fan, normal_fan
from .lattice import dot, integer_kernel_basis, mat_mul, matrix_from_columns
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
from .polytope import HalfspacePolytope

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


def _random_coord(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def _rel_dev(a, b) -> float:
    return max(
        abs(x - y) / max(1.0, abs(y)) for x, y in zip(a, b)
    )


def chart_suite(F: Fan, seed: int = 0, samples: int = 10) -> list[CheckResult]:
    rng = random.Random(seed)
    d = len(F.generators)
    n = F.dim
    results = []
    charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]

    # phi after psi is the identity on each chart
    worst = 0.0
    for C in charts:
        for _ in range(samples):
            xi = [_random_coord(rng, 0.5, 2.0) for _ in range(n)]
            back = phi_sigma(C, psi_sigma(C, xi))
            worst = max(worst, _rel_dev(back, xi))
    results.append(CheckResult("phi_after_psi_identity", worst < CHART_TOL, worst, CHART_TOL))

    # kernel parametrization lands in the kernel of the torus map
    worst = 0.0
    for C in charts:
        if not C.complement:
            continue
        for _ in range(samples):
            ac = [_random_coord(rng, 0.5, 2.0) for _ in C.complement]
            alpha = kernel_param(C, ac)
            image = torus_image(F, alpha)
            worst = max(worst, max(abs(w - 1.0) for w in image))
    results.append(CheckResult("kernel_param_in_kernel", worst < CHART_TOL, worst, CHART_TOL))

    # chart maps are invariant under the kernel torus
    worst = 0.0
    for C in charts:
        if not C.complement:
            continue
        for _ in range(samples):
            z = [_random_coord(rng, 0.5, 2.0) for _ in range(d)]
            ac = [_random_coord(rng, 0.5, 2.0) for _ in C.complement]
            alpha = kernel_param(C, ac)
            moved = [a * w for a, w in zip(alpha, z)]
            worst = max(worst, _rel_dev(phi_sigma(C, moved), phi_sigma(C, z)))
    results.append(CheckResult("kernel_invariance", worst < CHART_TOL, worst, CHART_TOL))

    # exponent rows pair to zero with every relation among the generators
    exact = True
    rel_basis = integer_kernel_basis(matrix_from_columns(F.generators))
    for C in charts:
        for r in C.exponent_rows():
            for w in rel_basis:
                if dot(r, w) != 0:
                    exact = False
    results.append(CheckResult("exponents_kill_relations", exact, None, None))

    # transitions: numeric agreement and the exact cocycle identity, each
    # transition built once per ordered pair of charts
    k = len(charts)
    E = {(a, b): transition_map(charts[a], charts[b]) for a in range(k) for b in range(k)}
    worst = 0.0
    cocycle = True
    for a in range(k):
        for b in range(k):
            for _ in range(samples):
                xi = [_random_coord(rng, 0.5, 2.0) for _ in range(n)]
                direct = phi_sigma(charts[b], psi_sigma(charts[a], xi))
                viaE = monomial_eval(E[a, b], xi)
                worst = max(worst, _rel_dev(viaE, direct))
            for c in range(k):
                if mat_mul(E[b, c].exponents, E[a, b].exponents) != E[a, c].exponents:
                    cocycle = False
    results.append(CheckResult("transition_matches_charts", worst < CHART_TOL, worst, CHART_TOL))
    results.append(CheckResult("transition_cocycle_exact", cocycle, None, None))
    return results


def numeric_suite(
    T: ToricPotential, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Each sweep draws its samples from rng in the order a per-sample loop
    would, then evaluates them in one batch; the pullback sweep batches the
    stencil of each sample."""
    rng = random.Random(seed)
    n = T.dim
    results = []
    bounds = np.array([axis_radius_bound(T, j) for j in range(n)])

    # exact partials against central differences of the potential
    x = np.array([rng.uniform(0.1, 10.0) for _ in range(samples * n)]).reshape(samples, n)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    shift = np.eye(n) * h[:, :, None]  # shift[s, j] moves sample s along axis j
    stencil = np.concatenate([x[:, None, :] + shift, x[:, None, :] - shift])
    values = potential_values(T, stencil.reshape(-1, n)).reshape(2, samples, n)
    fd = (values[0] - values[1]) / (2 * h)
    exact = potential_partials(T, x)
    worst = float(np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact)), initial=0.0))
    results.append(CheckResult("gradient_finite_difference", worst < GRADIENT_TOL, worst, GRADIENT_TOL))

    # pullback of the standard form through Psi reproduces the form of Phi
    worst = 0.0
    for _ in range(samples):
        xi = [_random_coord(rng, 0.1, 0.9) for _ in range(n)]
        worst = max(worst, pullback_check(T, xi))
    results.append(CheckResult("symplectic_pullback", worst < PULLBACK_TOL, worst, PULLBACK_TOL))

    # |Psi_j| never exceeds the per-axis radius bound
    x = np.array([rng.uniform(0.1, 3.0) ** 2 for _ in range(10 * samples * n)])
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
    xi = [_random_coord(rng, 0.1, 3.0) for _ in range(samples * n)]
    w = psi_maps(T, np.array(xi, dtype=complex).reshape(-1, n))
    ok = not (np.abs(w) > bounds + 1e-9).any()
    results.append(CheckResult("psi_within_cylinder", ok, None, None))
    return results


def polytope_suites(
    P: HalfspacePolytope, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Chart and numeric suites derived from one polytope."""
    F = normal_fan(P)
    results = chart_suite(F, seed=seed, samples=samples)
    E = sections_by_polytope(P, P.vertices[0])
    results += numeric_suite(ToricPotential(E), seed=seed, samples=samples)
    return results
