"""The batched verify suites against the per-sample loops they replace."""

import cmath
import math
import random

import numpy as np
import pytest

import toricwidth.numeric
import toricwidth.verify
from geomgen import (
    assert_same_results,
    blowup_polygon,
    lattice_point_ladder,
    oracle_chart_suite,
    random_delzant_polygon,
)
from toricwidth.embedding import sections_by_polytope
from toricwidth.fan import normal_fan
from toricwidth.fixtures import resolve_fixture
from toricwidth.numeric import ToricPotential
from toricwidth.verify import chart_suite, numeric_suite

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


@pytest.mark.parametrize("spec", ["example-3.8:1", "cpn:3:2"])
def test_small_batches_give_identical_results(monkeypatch, spec):
    # 64 entries put a few rows in each slice of every sweep
    P = resolve_fixture(spec)
    F = normal_fan(P)
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    whole = chart_suite(F, seed=6, samples=5), numeric_suite(T, seed=6, samples=5)
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 64)
    assert (chart_suite(F, seed=6, samples=5), numeric_suite(T, seed=6, samples=5)) == whole


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
