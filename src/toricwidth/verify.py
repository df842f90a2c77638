"""Randomized property suites behind the command line verify subcommand.

Each check returns a CheckResult; a suite is a list of them.  Chart checks
run at relative tolerance 1e-9 on coordinates with modulus in [0.5, 2].
Of the numeric checks, the gradient check draws real x in [0.1, 10], the
pullback check modulus in [0.1, 0.9], and the radial and psi checks modulus
in [0.1, 3].

Every sweep draws its points from the seeded rng in the order and number of
a loop over charts (or ordered pairs of charts), then samples, then
coordinates, so a seed gives the same points however they are evaluated;
each slice takes them from one getrandbits call (_draws).

The chart suite reads every chart from one exact table (charts.chart_table):
T[c] = U_c^-1 G^T, of shape (k, n, d) for k charts.  The chart sweeps put
one (chart, sample) or (chart a, chart b, sample) on each row and evaluate a
slice of rows in one numpy pass, each row with its V gathered from T
(ChartTable.charts).  A slice holds at most numeric.BATCH_ENTRIES entries,
counted by its sweep's row width, and draws its own points, so memory does
not grow with the sample count.  The one-chart sweeps have rows of n * d
entries; the transition sweep multiplies E[a, b] = U_b^-1 U_a out of the
table's inverses and generators, row by row, and compares its monomial map
with phi_b after psi_a through chart b's V, read off T, on the n
coordinates that psi_a sets (charts.transition_sides), rows of n * (n + 1)
entries.  So a wrong entry of T fails this sweep as well as the exact
checks.  No ChartData and no k x k table of chart changes is built.

The exact checks (exact_checks) read T itself.  The cocycle identity
E[b,c] E[a,b] = E[a,c] is checked on pairs: E[a,a] = I for every a and
E[a,b] = E[0,b] E[a,0] for every (a, b).  With M_a = E[a,0] these give
E[0,b] M_b = E[b,b] = I, so E[a,b] = M_b^-1 M_a and every triple composes.
Conversely the triple identity gives both facts for invertible E (at
a = b = c, and at b = 0), as every U_b^-1 U_a is, so the pair check rejects
every table that the triple check rejects.  Column m of E[a,b] is T[b]'s
column of generator cone_a[m], and that of E[0,b] E[a,0] is E[0,b] times
T[0]'s column of the same generator; so the k^2 pair identities are the k
identities T[b] = E[0,b] T[0] on the columns of the generators that lie in
some cone, k n^2 d products instead of k^2 n^3.  E[a,a] = I is T[a] = I on
a's cone.  The products run in the table's dtype: int64 when chart_table's
bound shows that every entry and partial sum fits, Python ints otherwise.

The numeric suite draws every check's points first, in the order of the
checks.  The rows where the gradient, radial and psi checks need the
potential (the gradient stencil and its base points, the radial rows and
the Psi rows), 2n + 12 rows a sample, are stacked and go through one
numeric.evaluate pass, in slices of at most numeric.BATCH_ENTRIES
point-monomial pairs; each check then hands its rows' Sums to the function
that the library offers for it (potential_values, radial_quantities,
psi_maps).  The pullback check runs numeric.pullback_check on its rows,
which makes its own two passes, one over Psi's stencil and one with the
n x n covariances over the rows.  The samples are stacked in chunks of at
most BATCH_ENTRIES // n^2 (one chunk at the default 10 for n <= 40), so the
stack and Psi's stencil, 8 n^2 floats a sample, stay within a few
BATCH_ENTRIES floats each whatever the sample count; every value is
computed row by row, so the chunks give the values of one stack.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import numeric
from .charts import (
    ChartTable,
    chart_table,
    kernel_params,
    phi_sigmas,
    psi_sigmas,
    torus_images,
    transition_sides,
)
from .embedding import sections_by_polytope
from .fan import Fan, normal_fan
from .numeric import (
    ToricPotential,
    axis_radius_bound,
    evaluate,
    moduli,
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


def _draws(rng: random.Random, m: int) -> np.ndarray:
    """The integers a < 2^53 of m draws rng.random() = a 2^-53, as floats:
    one getrandbits call gives the words, first drawn lowest, and two words
    w0, w1 make a = (w0 >> 5) 2^26 + (w1 >> 6)."""
    w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4").reshape(m, 2)
    return (w[:, 0] >> 5) * 67108864.0 + (w[:, 1] >> 6)


def _uniform(rng: random.Random, m: int, lo: float, hi: float) -> np.ndarray:
    """m draws rng.uniform(lo, hi) = lo + (hi - lo) random(), bit for bit:
    c (a 2^-53) and (c 2^-53) a round alike, as a 2^-53 and c 2^-53 are
    exact, so both products round the same real number."""
    return lo + (hi - lo) * 2.0**-53 * _draws(rng, m)


def _coords(rng: random.Random, m: int, lo: float, hi: float) -> np.ndarray:
    """m points cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 pi)), drawn
    from rng in that order and evaluated as cmath.rect does, r cos and
    r sin written in place as the real and imaginary parts."""
    a = _draws(rng, 2 * m).reshape(m, 2)
    r, angle = lo + (hi - lo) * 2.0**-53 * a[:, 0], 2 * math.pi * 2.0**-53 * a[:, 1]
    z = np.empty(m, dtype=complex)
    np.multiply(r, np.cos(angle), out=z.real)
    np.multiply(r, np.sin(angle), out=z.imag)
    return z


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), initial=0.0))


def _worst(values) -> float:
    """The largest of the values, or nan when one is nan, as np.max over
    all of them would give; 0 when there are none."""
    return max(values, key=lambda v: (math.isnan(v), v), default=0.0)


def _sweep(rows: int, width: int, check) -> float:
    """The worst of check(r) over consecutive slices r of range(rows), each
    slice small enough that a work array of `width` entries per row stays
    within numeric.BATCH_ENTRIES."""
    step = max(1, numeric.BATCH_ENTRIES // width)
    return max(
        (check(np.arange(i, min(i + step, rows))) for i in range(0, rows, step)), default=0.0
    )


def exact_checks(table: ChartTable) -> tuple[bool, bool]:
    """The relation check and the cocycle check on the exact table T.

    Relations R among the generators G read off chart 0 (-V_0 on its cone
    rows, I on its complement rows) satisfy G R = 0, and every chart's
    exponent rows (I on its cone, V on its complement) kill them; together
    these hold exactly when every chart's V is U^-1 W.  The cocycle check is
    E[a, a] = I and E[a, b] = E[0, b] E[a, 0] on every pair, column by
    column (see the module doc).  They run in the table's dtype, which
    chart_table chose so that every product and partial sum fits."""
    T, G, cone, complement = table.T, table.generators, table.cone, table.complement
    k, n, d = T.shape
    chart, row = np.arange(k)[:, None, None], np.arange(n)[:, None]
    identity = np.eye(n, dtype=T.dtype)
    R = np.zeros((d, d - n), dtype=T.dtype)
    R[complement[0], np.arange(d - n)] = 1
    R[cone[0]] = -T[0][:, complement[0]]
    X = T.copy()
    X[chart, row, cone[:, None]] = identity
    relations = not (G.T @ R).any() and not (X @ R).any()
    diagonal = bool((T[chart, row, cone[:, None]] == identity).all())
    used = np.zeros(d, dtype=bool)  # the generators in some cone
    used[cone] = True
    cocycle = diagonal and bool((T[:, :, cone[0]] @ T[0][:, used] == T[:, :, used]).all())
    return relations, cocycle


def chart_suite(F: Fan, seed: int = 0, samples: int = 10) -> list[CheckResult]:
    rng = random.Random(seed)
    d = len(F.generators)
    n = F.dim
    results = []
    table = chart_table(F)
    k = len(table.cone)
    # rows are (chart, sample) or (chart a, chart b, sample), in the order of
    # a loop over them; each slice draws its own points from rng

    def identity(rows):
        # phi after psi is the identity on each chart
        xi = _coords(rng, len(rows) * n, 0.5, 2.0).reshape(-1, n)
        A = table.charts(rows // samples)
        return _rel_dev(phi_sigmas(A, psi_sigmas(A, xi)), xi)

    worst = _sweep(k * samples, n * d, identity)
    results.append(CheckResult("phi_after_psi_identity", worst < CHART_TOL, worst, CHART_TOL))

    # every chart has d - n complement generators; with none, there is no
    # kernel torus to check
    kernel_rows = k * samples if d > n else 0

    def in_kernel(rows):
        # kernel parametrization lands in the kernel of the torus map
        ac = _coords(rng, len(rows) * (d - n), 0.5, 2.0).reshape(-1, d - n)
        image = torus_images(F, kernel_params(table.charts(rows // samples), ac))
        return float(np.max(np.abs(image - 1.0), initial=0.0))

    worst = _sweep(kernel_rows, n * d, in_kernel)
    results.append(CheckResult("kernel_param_in_kernel", worst < CHART_TOL, worst, CHART_TOL))

    def invariance(rows):
        # chart maps are invariant under the kernel torus
        draws = _coords(rng, len(rows) * (2 * d - n), 0.5, 2.0).reshape(-1, 2 * d - n)
        z, ac = draws[:, :d], draws[:, d:]
        A = table.charts(rows // samples)
        return _rel_dev(phi_sigmas(A, kernel_params(A, ac) * z), phi_sigmas(A, z))

    worst = _sweep(kernel_rows, n * d, invariance)
    results.append(CheckResult("kernel_invariance", worst < CHART_TOL, worst, CHART_TOL))

    relations, cocycle = exact_checks(table)
    results.append(CheckResult("exponents_kill_relations", relations, None, None))

    # transitions: numeric agreement with phi_b(psi_a(xi)) for each pair
    def transitions(rows):
        xi = _coords(rng, len(rows) * n, 0.5, 2.0).reshape(-1, n)
        pair = rows // samples
        return _rel_dev(*transition_sides(table, pair // k, pair % k, xi))

    worst = _sweep(k * k * samples, n * (n + 1), transitions)
    results.append(CheckResult("transition_matches_charts", worst < CHART_TOL, worst, CHART_TOL))
    results.append(CheckResult("transition_cocycle_exact", cocycle, None, None))
    return results


def numeric_suite(
    T: ToricPotential, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Each check draws its samples from rng in the order a per-sample loop
    would; then, a chunk of samples at a time, the rows of the gradient,
    radial and psi checks go through one evaluate pass, each check reads
    its rows' sums, and pullback_check runs its own passes."""
    rng = random.Random(seed)
    n = T.dim
    results = []
    bounds = np.array([axis_radius_bound(T, j) for j in range(n)])

    x = _uniform(rng, samples * n, 0.1, 10.0).reshape(samples, n)
    xi_pullback = _coords(rng, samples * n, 0.1, 0.9).reshape(samples, n)
    # squared by libm pow, as rng.uniform(0.1, 3.0) ** 2 was, not numpy's x * x
    radial = np.array([u**2 for u in _uniform(rng, 10 * samples * n, 0.1, 3.0).tolist()])
    radial = radial.reshape(-1, n)
    xi_psi = _coords(rng, samples * n, 0.1, 3.0).reshape(-1, n)

    # each check's worst per chunk, taken together by _worst
    fd_worst, pullback_worst, gap_worst = [], [], []
    radial_ok = psi_ok = True
    chunk = max(1, numeric.BATCH_ENTRIES // (n * n))
    for i in range(0, samples, chunk):
        c, r = slice(i, i + chunk), slice(10 * i, 10 * (i + chunk))
        h = 1e-6 * np.maximum(1.0, np.abs(x[c]))
        shift = np.eye(n) * h[:, :, None]  # shift[s, j] moves sample s along axis j
        stencil = np.concatenate([x[c, None, :] + shift, x[c, None, :] - shift]).reshape(-1, n)
        parts = [stencil, x[c], radial[r], moduli(xi_psi[c])]
        ends = np.cumsum([len(p) for p in parts])
        sums = evaluate(T, np.concatenate(parts))
        at_stencil, at_x, at_radial, at_psi = (sums[a:b] for a, b in zip([0, *ends[:-1]], ends))

        # exact partials against central differences of the potential
        values = potential_values(at_stencil).reshape(2, -1, n)
        fd = (values[0] - values[1]) / (2 * h)
        exact = at_x.partials
        dev = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
        fd_worst.append(float(np.max(dev, initial=0.0)))

        # pullback of the standard form through Psi reproduces the form of Phi
        pullback_worst.append(pullback_check(T, xi_pullback[c]))

        # |Psi_j| never exceeds the per-axis radius bound
        gap = radial_quantities(at_radial) - bounds
        gap_worst.append(float(np.max(gap, initial=0.0)))
        radial_ok = radial_ok and not (gap > 1e-9).any()

        # Psi extends to the closed chart with |Psi_j|^2 below 2 max_k (J_k)_j
        w = psi_maps(xi_psi[c], at_psi)
        psi_ok = psi_ok and not (np.abs(w) > bounds + 1e-9).any()

    worst = _worst(fd_worst)
    results.append(CheckResult("gradient_finite_difference", worst < GRADIENT_TOL, worst, GRADIENT_TOL))
    worst = _worst(pullback_worst)
    results.append(CheckResult("symplectic_pullback", worst < PULLBACK_TOL, worst, PULLBACK_TOL))
    results.append(CheckResult("radial_bound", radial_ok, _worst(gap_worst), 1e-9))

    # the radial quantity attains the bound along the distinguished path
    worst = 0.0
    for j in range(n):
        s = suggested_path_exponent(T, j)
        got = sup_along_path(T, j, s, 1e6)
        worst = max(worst, abs(got - float(bounds[j])))
    results.append(CheckResult("radial_sup_along_path", worst < PATH_TOL, worst, PATH_TOL))
    results.append(CheckResult("psi_within_cylinder", psi_ok, None, None))
    return results


def polytope_suites(
    P: HalfspacePolytope, seed: int = 0, samples: int = 10
) -> list[CheckResult]:
    """Chart and numeric suites derived from one polytope.

    The fan is built once, on P, so an undefined fan names P's vertex.  The
    embedding is that of qP, for q = P.integer_offsets[0], at its first
    vertex: normalize_at_vertex maps P's first vertex to the chart of qP,
    so no dilated copy of P is built.
    """
    results = chart_suite(normal_fan(P), seed=seed, samples=samples)
    E = sections_by_polytope(P, P.vertices[0])
    results += numeric_suite(ToricPotential(E), seed=seed, samples=samples)
    return results
