"""The batched verify suites against the per-sample loops they replace."""

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
    assert_same_flags,
    blowup_polygon,
    hirzebruch,
    lattice_point_ladder,
    oracle_chart_suite,
    oracle_draws,
    oracle_exact_checks,
    oracle_numeric_suite,
    random_delzant_polygon,
    random_delzant_polytope,
    random_unimodular_map,
    relation_and_cocycle,
)
from toricwidth.charts import chart_table
from toricwidth.embedding import sections_by_polytope
from toricwidth.fan import normal_fan
from toricwidth.fixtures import resolve_fixture
from toricwidth.numeric import ToricPotential
from toricwidth.polytope import HalfspacePolytope
from toricwidth.verify import chart_suite, chunk_draws, exact_checks, numeric_suite

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
    # the exact checks pass where the float sweeps of the oracle pass
    for i, P in enumerate(oracle_inputs(group)):
        F = normal_fan(P)
        got = chart_suite(F)
        assert all(r.passed for r in got)
        assert all(r.deviation is None and r.tolerance is None for r in got)
        assert_same_flags(got, oracle_chart_suite(F, seed=i, samples=3))


@pytest.mark.parametrize("group", ["ladder", "projective", "random", "blowup", "refill"])
def test_numeric_suite_matches_the_per_sample_oracle_bit_for_bit(group):
    # the potential of each input's embedding, as verify builds it; 40 samples
    # of a 2-D input take 1,200 draws, past a refill of the Mersenne Twister state
    samples = 40 if group == "refill" else 3
    inputs = [resolve_fixture("example-3.8:1")] if group == "refill" else oracle_inputs(group)
    for i, P in enumerate(inputs):
        T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
        got = numeric_suite(T, seed=i, samples=samples)
        assert all(r.passed for r in got)
        assert got == oracle_numeric_suite(T, seed=i, samples=samples)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chunk_draws_are_the_random_calls_bit_for_bit(n):
    # one sample, ten in one chunk (the default) and ten in chunks of three;
    # at seed 3, n = 2, a radial square from np.square differs in its last bit
    default = toricwidth.numeric.BATCH_ENTRIES // (n * n)
    for seed in range(21):
        for samples, chunk in ((1, default), (10, default), (10, 3)):
            chunks = list(chunk_draws(seed, n, samples, chunk))
            assert len(chunks) == -(-samples // chunk)
            for got, want in zip(zip(*chunks), oracle_draws(n, seed, samples)):
                want = np.array(want)
                assert np.concatenate(got).dtype == want.dtype
                assert np.concatenate(got).tobytes() == want.tobytes(), (seed, samples, chunk)


def test_numeric_suite_without_samples_reports_no_deviation():
    P = resolve_fixture("example-3.8:1")
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    got = numeric_suite(T, samples=0)
    sampled = {"gradient_finite_difference", "symplectic_pullback", "radial_bound"}
    assert len(got) == 5 and all(r.passed for r in got)
    assert [r.deviation for r in got if r.name in sampled] == [0.0, 0.0, 0.0]
    assert got == oracle_numeric_suite(T, samples=0)


@pytest.mark.parametrize("chunk", [0, 1])
def test_a_nan_pullback_in_one_chunk_fails_the_check(monkeypatch, chunk):
    # 20 entries put n = 2 samples in chunks of 20 // n^2 = 5: two chunks
    P = resolve_fixture("example-3.8:1")
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    calls = []
    deviation = toricwidth.verify.pullback_deviation

    def nan_in_one_chunk(XI, stencil, steps, sums):
        calls.append(len(XI))
        return math.nan if len(calls) == chunk + 1 else deviation(XI, stencil, steps, sums)

    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 20)
    monkeypatch.setattr(toricwidth.verify, "pullback_deviation", nan_in_one_chunk)
    got = {r.name: r for r in numeric_suite(T, samples=10)}
    assert calls == [5, 5]
    assert math.isnan(got["symplectic_pullback"].deviation)
    assert not got["symplectic_pullback"].passed


@pytest.mark.parametrize("spec", ["example-3.8:1", "cpn:3:2", "cpn:3:10", "blowup-10"])
def test_small_batches_give_identical_results(monkeypatch, spec):
    # 64 entries put one row of N > 64 monomials in each slice of the
    # potential's pass
    P = blowup_polygon(random.Random(5), 10) if spec == "blowup-10" else resolve_fixture(spec)
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    whole = numeric_suite(T, seed=6, samples=5)
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 64)
    assert numeric_suite(T, seed=6, samples=5) == whole


def record_passes(monkeypatch) -> list:
    """(rows, covariance shape) of every evaluate pass from here on."""
    passes = []
    evaluate = toricwidth.numeric.evaluate

    def recorded(T, X, hessians=0):
        sums = evaluate(T, X, hessians)
        passes.append((len(X), sums.cov.shape))
        return sums

    monkeypatch.setattr(toricwidth.numeric, "evaluate", recorded)
    monkeypatch.setattr(toricwidth.verify, "evaluate", recorded)
    return passes


def test_numeric_suite_stacks_its_samples_in_bounded_chunks(monkeypatch):
    # 64 entries put n = 2 samples in chunks of 64 // n^2 = 16: each of the
    # three chunks makes one pass of 6n + 13 = 25 rows a sample (the
    # gradient stencil and its base points, the radial and psi rows, Psi's
    # stencil and the pullback rows), with covariances for the chunk's
    # pullback rows alone; together they give the results of one stack
    P = resolve_fixture("example-3.8:1")
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    whole = numeric_suite(T, seed=4, samples=40)
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 64)
    passes = record_passes(monkeypatch)
    assert numeric_suite(T, seed=4, samples=40) == whole
    assert passes == [(400, (16, 2, 2)), (400, (16, 2, 2)), (200, (8, 2, 2))]


@pytest.mark.parametrize("spec, samples, chunks", [
    ("example-3.8:1", 0, 0), ("example-3.8:1", 10, 1), ("cpn:3:2", 10, 1),
    ("cpn:8:1", 256, 1), ("cpn:8:1", 257, 2), ("cpn:8:1", 600, 3),
])
def test_numeric_suite_makes_one_pass_per_chunk(monkeypatch, spec, samples, chunks):
    # chunks of BATCH_ENTRIES // n^2 samples: 256 on cpn:8:1
    P = resolve_fixture(spec)
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    passes = record_passes(monkeypatch)
    numeric_suite(T, seed=2, samples=samples)
    n = T.dim
    chunk = toricwidth.numeric.BATCH_ENTRIES // n**2
    sizes = [min(chunk, samples - i) for i in range(0, samples, chunk)]
    assert len(sizes) == chunks
    assert passes == [((6 * n + 13) * m, (m, n, n)) for m in sizes]


def test_each_check_draws_its_chunks_from_where_the_last_one_ended(monkeypatch):
    # 64 entries put n = 2 samples in chunks of 16: each check draws its
    # chunk from its own copy of the generator, and the points reaching the
    # checks, three chunks each, are those of one pass over the checks
    P = resolve_fixture("example-3.8:1")
    T = ToricPotential(sections_by_polytope(P, P.vertices[0]))
    seen = {"gradient": [], "pullback": [], "radial": [], "psi": []}

    def recorded(module, name, check, points):
        fn = getattr(module, name)

        def wrapper(*args):
            seen[check].append(points(*args))
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 64)
    recorded(toricwidth.numeric, "central_stencil", "gradient", lambda x: x)
    recorded(toricwidth.verify, "pullback_deviation", "pullback", lambda XI, *_: XI)
    recorded(toricwidth.verify, "radial_quantities", "radial", lambda sums: sums.X)
    recorded(toricwidth.verify, "psi_maps", "psi", lambda XI, sums: XI)
    numeric_suite(T, seed=4, samples=40)
    # Psi's stencils, for the pullback check, have 2n columns
    seen["gradient"] = [x for x in seen["gradient"] if x.shape[1] == T.dim]
    for chunks, want in zip(seen.values(), oracle_draws(T.dim, 4, 40)):
        assert len(chunks) == 3
        assert np.array_equal(np.concatenate(chunks), np.array(want))


@pytest.mark.parametrize("group", ["ladder", "projective", "random", "blowup"])
def test_the_object_fallback_gives_identical_results(monkeypatch, group):
    # a bound of 0 sends the table and its exact checks to Python ints
    fans = [normal_fan(P) for P in oracle_inputs(group)]
    want = [chart_suite(F) for F in fans]
    monkeypatch.setattr(toricwidth.charts, "INT64_BOUND", 0)
    for F in fans:
        table = chart_table(F)
        assert table.generators.dtype == table.inverses.dtype == table.T.dtype == object
    assert [chart_suite(F) for F in fans] == want


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
        want = np.int64 if F.dim > 2 else object
        assert table.generators.dtype == table.inverses.dtype == table.T.dtype == want
        assert all(r.passed for r in exact_checks(table))
        assert oracle_exact_checks(F) == (True, True)
        k, n = table.cone.shape
        for c in range(k):
            for j in table.complement[c]:
                wrong = altered_table(table, [(c, rng.randrange(n), j, 2**64)])
                got = relation_and_cocycle(exact_checks(wrong))
                assert got == oracle_exact_checks(F, wrong) == (False, False)
