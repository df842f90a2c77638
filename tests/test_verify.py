"""The batched verify suites against the per-sample loops they replace."""

import cmath
import math
import random

import numpy as np
import pytest

import toricwidth.charts
import toricwidth.numeric
import toricwidth.verify
from geomgen import (
    altered_table,
    apply_lattice_map,
    assert_same_results,
    blowup_polygon,
    hirzebruch,
    lattice_point_ladder,
    oracle_chart_suite,
    oracle_exact_checks,
    oracle_numeric_suite,
    random_delzant_polygon,
    random_delzant_polytope,
    random_unimodular_map,
)
from toricwidth.charts import chart_table
from toricwidth.embedding import sections_by_polytope
from toricwidth.fan import normal_fan
from toricwidth.fixtures import resolve_fixture
from toricwidth.numeric import ToricPotential
from toricwidth.polytope import HalfspacePolytope, clear_denominators
from toricwidth.verify import chart_suite, exact_checks, numeric_suite

FIXTURES = (
    "example-3.7", "example-3.8:1", "example-3.8:3", "cpn:1:1", "cpn:2:1", "cpn:2:5",
    "cpn:3:3",
)


def oracle_inputs(group: str) -> list:
    if group == "ladder":
        return [resolve_fixture(f) for f in FIXTURES] + lattice_point_ladder()
    if group == "projective":
        return [resolve_fixture(f"cpn:{n}:{k}") for n in (3, 4) for k in (1, 2)]
    if group == "random":
        rng = random.Random(90)
        return [random_delzant_polygon(rng) for _ in range(30)]
    return [blowup_polygon(random.Random(91 + d), d) for d in range(5, 17)]


@pytest.mark.parametrize("group", ["ladder", "projective", "random", "blowup"])
def test_chart_suite_matches_the_per_sample_oracle(group):
    for i, P in enumerate(oracle_inputs(group)):
        F = normal_fan(P)
        got = chart_suite(F, seed=i, samples=3)
        assert all(r.passed for r in got)
        assert_same_results(got, oracle_chart_suite(F, seed=i, samples=3))


@pytest.mark.parametrize("group", ["ladder", "projective", "random", "blowup"])
def test_numeric_suite_matches_the_per_sample_oracle_bit_for_bit(group):
    # the potential of each input's embedding, as verify builds it
    for i, P in enumerate(oracle_inputs(group)):
        _, Pq = clear_denominators(P)
        T = ToricPotential(sections_by_polytope(Pq, Pq.vertices[0]))
        got = numeric_suite(T, seed=i, samples=3)
        assert all(r.passed for r in got)
        assert got == oracle_numeric_suite(T, seed=i, samples=3)


@pytest.mark.parametrize("spec", ["example-3.8:1", "cpn:3:2", "cpn:3:10", "blowup-10"])
def test_small_batches_give_identical_results(monkeypatch, spec):
    # 64 entries put a few rows in each slice of every sweep, and one row of
    # N > 64 monomials in each slice of the potential's pass
    P = blowup_polygon(random.Random(5), 10) if spec == "blowup-10" else resolve_fixture(spec)
    F = normal_fan(P)
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    whole = chart_suite(F, seed=6, samples=5), numeric_suite(T, seed=6, samples=5)
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 64)
    assert (chart_suite(F, seed=6, samples=5), numeric_suite(T, seed=6, samples=5)) == whole


def test_numeric_suite_stacks_its_samples_in_bounded_chunks(monkeypatch):
    # 64 entries put n = 2 samples in chunks of 64 // n^2 = 16: each of the
    # three chunks makes one shared pass of 2n + 12 = 16 rows a sample, then
    # pullback_check's pass over its 4n stencil points a sample and its pass
    # with covariances over the chunk's own rows; together they give the
    # results of one stack
    P = resolve_fixture("example-3.8:1")
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    whole = numeric_suite(T, seed=4, samples=40)
    passes = []
    evaluate = toricwidth.numeric.evaluate

    def recorded(T, X, hessians=False):
        sums = evaluate(T, X, hessians)
        passes.append((len(X), None if sums.cov is None else sums.cov.shape))
        return sums

    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 64)
    monkeypatch.setattr(toricwidth.numeric, "evaluate", recorded)
    monkeypatch.setattr(toricwidth.verify, "evaluate", recorded)
    assert numeric_suite(T, seed=4, samples=40) == whole
    full = [(256, None), (128, None), (16, (16, 2, 2))]
    assert passes == full + full + [(128, None), (64, None), (8, (8, 2, 2))]


@pytest.mark.parametrize("group", ["ladder", "projective", "random", "blowup"])
def test_the_object_fallback_gives_identical_results(monkeypatch, group):
    # a bound of 0 sends the table and its exact checks to Python ints
    fans = [normal_fan(P) for P in oracle_inputs(group)]
    want = [chart_suite(F, seed=i, samples=3) for i, F in enumerate(fans)]
    monkeypatch.setattr(toricwidth.charts, "INT64_BOUND", 0)
    assert all(chart_table(F).T.dtype == object for F in fans)
    assert [chart_suite(F, seed=i, samples=3) for i, F in enumerate(fans)] == want


def test_exact_checks_past_int64_match_the_triple_oracle():
    # the (1, 2^62) parallelogram puts n max|w| max|u| at 2^125 and a
    # steep Hirzebruch surface its V past 2^63: both tables and their checks
    # run on Python ints.  Each agrees with the oracle as it is, and with any
    # one V entry raised by 2^64
    rng = random.Random(19)
    parallelogram = HalfspacePolytope(((1, 2**62), (0, 1), (-1, -(2**62)), (0, -1)), (0, 0, -1, -1))
    steep = apply_lattice_map(hirzebruch(2**70), random_unimodular_map(rng))
    fans = [normal_fan(P) for P in (parallelogram, steep)]
    fans += [normal_fan(random_delzant_polytope(rng, n)) for n in (3, 4)]
    for F in fans:
        table = chart_table(F)
        assert table.T.dtype == (np.int64 if F.dim > 2 else object)
        assert exact_checks(table) == oracle_exact_checks(F) == (True, True)
        k, n = table.cone.shape
        for c in range(k):
            for j in table.complement[c]:
                wrong = altered_table(table, [(c, rng.randrange(n), j, 2**64)])
                assert exact_checks(wrong) == oracle_exact_checks(F, wrong) == (False, False)


def test_points_are_drawn_as_a_per_sample_loop_draws_them():
    rng = random.Random(8)
    want = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for _ in range(50)]
    got = toricwidth.verify._coords(random.Random(8), 50, 0.5, 2.0)
    assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [0, 1, 2**70 + 1, -3])
def test_draws_from_one_call_equal_a_per_draw_loop(seed):
    # 312 points take 624 draws of two words each: two whole refills of the
    # Mersenne Twister state, so 311 and 313 end on either side of one
    for m in (0, 1, 311, 312, 313, 2420):
        rng, loop = random.Random(seed), random.Random(seed)
        got = toricwidth.verify._coords(rng, m, 0.5, 2.0)
        u = np.array([loop.random() for _ in range(2 * m)]).reshape(m, 2)
        r, angle = 0.5 + 1.5 * u[:, 0], 2 * math.pi * u[:, 1]
        assert np.array_equal(got.real, r * np.cos(angle))
        assert np.array_equal(got.imag, r * np.sin(angle))
        assert rng.getstate() == loop.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2**70 + 1, -3])
def test_uniform_draws_equal_rng_uniform(seed):
    # 312 draws of two words each refill the Mersenne Twister state once
    for m in (0, 1, 311, 312, 313, 2420):
        for lo, hi in ((0.1, 10.0), (0.1, 3.0), (0.5, 2.0)):
            rng, loop = random.Random(seed), random.Random(seed)
            got = toricwidth.verify._uniform(rng, m, lo, hi)
            want = [loop.uniform(lo, hi) for _ in range(m)]
            assert got.tolist() == want
            assert rng.getstate() == loop.getstate()
