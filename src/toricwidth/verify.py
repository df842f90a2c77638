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
    potential_partial,
    potential_value,
    pullback_check,
    radial_quantity,
    psi_map,
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

    # phi after psi is the identity on each chart
    worst = 0.0
    for ci in range(len(F.max_cones)):
        C = chart_for_cone(F, ci)
        for _ in range(samples):
            xi = [_random_coord(rng, 0.5, 2.0) for _ in range(n)]
            back = phi_sigma(C, psi_sigma(C, xi))
            worst = max(worst, _rel_dev(back, xi))
    results.append(CheckResult("phi_after_psi_identity", worst < CHART_TOL, worst, CHART_TOL))

    # kernel parametrization lands in the kernel of the torus map
    worst = 0.0
    for ci in range(len(F.max_cones)):
        C = chart_for_cone(F, ci)
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
    for ci in range(len(F.max_cones)):
        C = chart_for_cone(F, ci)
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
    for ci in range(len(F.max_cones)):
        rows = chart_for_cone(F, ci).exponent_rows()
        for r in rows:
            for w in rel_basis:
                if dot(r, w) != 0:
                    exact = False
    results.append(CheckResult("exponents_kill_relations", exact, None, None))

    # transitions: numeric agreement and the exact cocycle identity
    worst = 0.0
    cocycle = True
    charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
    for C1 in charts:
        for C2 in charts:
            E12 = transition_map(C1, C2)
            for _ in range(samples):
                xi = [_random_coord(rng, 0.5, 2.0) for _ in range(n)]
                direct = phi_sigma(C2, psi_sigma(C1, xi))
                viaE = monomial_eval(E12, xi)
                worst = max(worst, _rel_dev(viaE, direct))
            for C3 in charts:
                E23 = transition_map(C2, C3)
                E13 = transition_map(C1, C3)
                if mat_mul(E23.exponents, E12.exponents) != E13.exponents:
                    cocycle = False
    results.append(CheckResult("transition_matches_charts", worst < CHART_TOL, worst, CHART_TOL))
    results.append(CheckResult("transition_cocycle_exact", cocycle, None, None))
    return results


def numeric_suite(
    T: ToricPotential, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    rng = random.Random(seed)
    n = T.dim
    results = []

    # exact partials against central differences of the potential
    worst = 0.0
    for _ in range(samples):
        x = [rng.uniform(0.1, 10.0) for _ in range(n)]
        for j in range(n):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp = list(x)
            xm = list(x)
            xp[j] += h
            xm[j] -= h
            fd = (potential_value(T, xp) - potential_value(T, xm)) / (2 * h)
            exact = potential_partial(T, x, j)
            worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    results.append(CheckResult("gradient_finite_difference", worst < GRADIENT_TOL, worst, GRADIENT_TOL))

    # pullback of the standard form through Psi reproduces the form of Phi
    worst = 0.0
    for _ in range(samples):
        xi = [_random_coord(rng, 0.1, 0.9) for _ in range(n)]
        worst = max(worst, pullback_check(T, xi))
    results.append(CheckResult("symplectic_pullback", worst < PULLBACK_TOL, worst, PULLBACK_TOL))

    # |Psi_j| never exceeds the per-axis radius bound
    ok = True
    worst = 0.0
    for _ in range(10 * samples):
        x = [rng.uniform(0.1, 3.0) ** 2 for _ in range(n)]
        for j in range(n):
            gap = radial_quantity(T, x, j) - axis_radius_bound(T, j)
            worst = max(worst, gap)
            if gap > 1e-9:
                ok = False
    results.append(CheckResult("radial_bound", ok, worst, 1e-9))

    # the radial quantity attains the bound along the distinguished path
    worst = 0.0
    for j in range(n):
        s = suggested_path_exponent(T, j)
        got = sup_along_path(T, j, s, 1e6)
        worst = max(worst, abs(got - axis_radius_bound(T, j)))
    results.append(CheckResult("radial_sup_along_path", worst < PATH_TOL, worst, PATH_TOL))

    # Psi extends to the closed chart with |Psi_j|^2 below 2 max_k (J_k)_j
    ok = True
    for _ in range(samples):
        xi = [_random_coord(rng, 0.1, 3.0) for _ in range(n)]
        w = psi_map(T, xi)
        for j in range(n):
            if abs(w[j]) > axis_radius_bound(T, j) + 1e-9:
                ok = False
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
