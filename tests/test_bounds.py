"""Variance factor, generalization bound, and concentration harness."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import _kernels, checks
from stabreg import (
    InvalidConfidence,
    InvalidPartitionSize,
    InvalidStabilityInput,
    alpha,
    concentration_harness,
    generalization_bound,
)


def alpha_exact(m: int, u: int) -> Fraction:
    """Independent exact-rational recomputation of the variance factor."""
    first = Fraction(m * u, 1) / (Fraction(m + u) - Fraction(1, 2))
    second = 1 / (1 - Fraction(1, 2 * max(m, u)))
    return first * second


# frozen from the exact-rational oracle above
ALPHA_CASES = [
    (1, 1, Fraction(4, 3)),
    (2, 2, Fraction(32, 21)),
    (1, 2, Fraction(16, 15)),
    (3, 7, Fraction(2 * 21 * 14, 19 * 13)),
]


@pytest.mark.parametrize("m, u, expected", ALPHA_CASES)
def test_alpha_frozen_values(m, u, expected):
    assert alpha(m, u) == pytest.approx(float(expected), abs=1e-15)


def test_alpha_large_case():
    # frozen decimal for a case where the rational form is unwieldy
    assert alpha(100, 100) == pytest.approx(50.377199279606046, abs=1e-12)
    assert alpha(100, 100) == pytest.approx(float(alpha_exact(100, 100)), abs=1e-12)


@given(st.integers(1, 500), st.integers(1, 500))
def test_alpha_matches_exact_rational(m, u):
    assert alpha(m, u) == pytest.approx(float(alpha_exact(m, u)), rel=1e-13)


@given(st.integers(1, 300), st.integers(1, 300))
def test_alpha_symmetric_and_positive(m, u):
    assert alpha(m, u) == pytest.approx(alpha(u, m), rel=1e-13)
    assert alpha(m, u) > 0


def test_alpha_exceeds_harmonic_term():
    # the factor always dominates m*u/(m+u), its large-sample limit
    for m in (1, 3, 10, 77):
        for u in (1, 4, 50):
            assert alpha(m, u) > m * u / (m + u)


@pytest.mark.parametrize("m, u", [(0, 1), (1, 0), (-2, 5)])
def test_alpha_rejects_bad_sizes(m, u):
    with pytest.raises(InvalidPartitionSize):
        alpha(m, u)


# ---------------------------------------------------------------------------
# generalization bound


def test_generalization_bound_frozen_value():
    report = generalization_bound(0.1, 0.05, 1.0, 100, 100, 0.05)
    # independent recomputation of the closed form
    slack = (2 * 0.05 + 1.0 * 200 / 10_000) * math.sqrt(
        alpha(100, 100) * math.log(1 / 0.05) / 2
    )
    assert report.bound_value == pytest.approx(0.1 + 0.05 + slack, abs=1e-12)
    assert report.bound_value == pytest.approx(1.1924008501909773, abs=1e-10)


def test_generalization_bound_report_fields():
    report = generalization_bound(0.2, 0.01, 2.0, 30, 20, 0.1)
    assert report.r_hat == 0.2
    assert report.beta == 0.01
    assert report.B == 2.0
    assert (report.m, report.u) == (30, 20)
    assert report.delta == 0.1
    assert report.alpha_mu == pytest.approx(alpha(30, 20))
    d = report.as_dict()
    assert d["bound_value"] == report.bound_value


@given(
    st.floats(0, 10),
    st.floats(0, 5),
    st.floats(0.01, 10),
    st.integers(1, 200),
    st.integers(1, 200),
    st.floats(1e-6, 1.0),
)
def test_bound_never_below_empirical_error(r_hat, beta, b_resid, m, u, delta):
    report = generalization_bound(r_hat, beta, b_resid, m, u, delta)
    assert report.bound_value >= r_hat


def test_bound_decreasing_in_delta():
    values = [
        generalization_bound(0.1, 0.02, 1.0, 50, 50, d).bound_value
        for d in (0.01, 0.05, 0.1, 0.5, 1.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_bound_increasing_in_beta():
    values = [
        generalization_bound(0.1, b, 1.0, 50, 50, 0.05).bound_value
        for b in (0.0, 0.01, 0.1, 1.0)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_bound_at_delta_one_is_r_hat_plus_beta():
    report = generalization_bound(0.3, 0.07, 5.0, 10, 10, 1.0)
    assert report.bound_value == pytest.approx(0.37, abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.5, math.nan])
def test_bound_rejects_bad_delta(delta):
    with pytest.raises(InvalidConfidence):
        generalization_bound(0.1, 0.05, 1.0, 10, 10, delta)


def test_bound_rejects_negative_inputs():
    with pytest.raises(InvalidStabilityInput):
        generalization_bound(-0.1, 0.05, 1.0, 10, 10, 0.05)
    with pytest.raises(InvalidStabilityInput):
        generalization_bound(0.1, -0.05, 1.0, 10, 10, 0.05)
    with pytest.raises(InvalidStabilityInput):
        generalization_bound(0.1, 0.05, -1.0, 10, 10, 0.05)


@pytest.mark.parametrize("name", ["r_hat", "beta", "B"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bound_rejects_non_finite_inputs(name, value):
    # each used to return a nan or infinite bound_value
    args = {"r_hat": 0.1, "beta": 0.05, "B": 1.0, name: value}
    with pytest.raises(InvalidStabilityInput, match=f"^{name} must be finite$"):
        generalization_bound(args["r_hat"], args["beta"], args["B"], 10, 10, 0.05)


# ---------------------------------------------------------------------------
# concentration harness


def exact_tail(population, m, epsilon):
    """Brute-force one-sided tail over every m-subset (oracle)."""
    population = np.asarray(population, dtype=float)
    mean = population.mean()
    total = 0
    hits = 0
    for combo in itertools.combinations(range(population.size), m):
        total += 1
        if population[list(combo)].mean() - mean >= epsilon:
            hits += 1
    return hits / total


def test_harness_is_unbiased_against_enumeration():
    population = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
    m = 3
    for eps in (0.1, 0.4, 0.8):
        truth = exact_tail(population, m, eps)
        tail, _ = concentration_harness(population, m, eps, 40_000, seed=9)
        sigma = math.sqrt(max(truth * (1 - truth), 1e-12) / 40_000)
        assert abs(tail - truth) <= 5 * sigma + 1e-9


def test_harness_tail_below_bound_binary_population():
    ok, detail = checks.concentration_tails(4, 30_000, 100)
    assert ok, detail


def test_harness_bound_formula():
    population = np.concatenate([np.zeros(50), np.ones(50)])
    m = u = 50
    eps = 0.1
    _, bound = concentration_harness(population, m, eps, 100, seed=0)
    c = (1.0 - 0.0) / m
    expected = math.exp(-2 * eps * eps / (alpha(m, u) * c * c))
    assert bound == pytest.approx(expected, rel=1e-12)


def test_harness_deterministic_across_runs():
    population = np.arange(40.0)
    a = concentration_harness(population, 10, 2.0, 5000, seed=123)
    b = concentration_harness(population, 10, 2.0, 5000, seed=123)
    assert a == b


def test_harness_seed_changes_draws():
    population = np.arange(40.0)
    a = concentration_harness(population, 10, 1.0, 5000, seed=1)
    b = concentration_harness(population, 10, 1.0, 5000, seed=2)
    assert a.bound == b.bound  # closed form ignores the seed
    assert a.empirical_tail != b.empirical_tail


def test_harness_custom_statistic_needs_scale():
    population = np.arange(10.0)
    with pytest.raises(InvalidStabilityInput):
        concentration_harness(
            population, 3, 0.5, 100, seed=0, phi=lambda drawn, axis: drawn[..., 0]
        )


def test_harness_custom_statistic_runs():
    population = np.arange(10.0)

    def largest(drawn, axis):
        return drawn.max(axis=axis)

    tail, bound = concentration_harness(
        population, 3, 0.5, 2000, seed=0, phi=largest, c=1.0
    )
    assert 0.0 <= tail <= 1.0
    assert 0.0 < bound <= 1.0


def test_harness_rejects_bad_m():
    with pytest.raises(InvalidPartitionSize):
        concentration_harness(np.arange(5.0), 0, 0.1, 10, seed=0)
    with pytest.raises(InvalidPartitionSize):
        concentration_harness(np.arange(5.0), 5, 0.1, 10, seed=0)


def draws_per_trial(pop, m, count, stream_seed, phi):
    """The custom-statistic draws before blocking: one key stream and one call per draw."""
    root = _kernels.mix64_int(stream_seed)
    out = []
    for t in range(count):
        keys = _kernels.partition_keys(root + t + 1, pop.size)
        out.append(float(phi(pop[np.sort(np.argpartition(keys, m - 1)[:m])], axis=-1)))
    return np.array(out)


@pytest.mark.parametrize(
    "phi",
    [np.median, lambda drawn, axis: drawn.max(axis=axis) - drawn[..., ::3].mean(axis=axis)],
    ids=["median", "lambda"],
)
def test_harness_custom_statistic_matches_per_draw_loop(phi):
    pop = np.random.default_rng(5).uniform(size=200)
    m, seed, eps = 60, 11, 0.002
    trials = _kernels._BLOCK_KEYS // pop.size + 2  # one block boundary per pass
    seen, want_seen = [], []

    def recorded(into):
        def statistic(drawn, axis):
            into.extend(row.copy() for row in np.atleast_2d(drawn))  # one entry per draw
            return phi(drawn, axis=axis)
        return statistic

    got = concentration_harness(pop, m, eps, trials, seed=seed, phi=recorded(seen), c=1.0)
    expectation = float(np.mean(draws_per_trial(
        pop, m, trials, _kernels.mix64_int(seed + 1), recorded(want_seen))))
    values = draws_per_trial(pop, m, trials, seed, recorded(want_seen))
    assert len(seen) == len(want_seen) == 2 * trials
    assert all(np.array_equal(a, b) for a, b in zip(seen, want_seen))
    assert got.empirical_tail == float(np.count_nonzero(values - expectation >= eps)) / trials
    assert 0.0 < got.empirical_tail < 1.0


def test_harness_calls_phi_once_per_block_in_block_order():
    pop = np.random.default_rng(6).uniform(size=200)
    trials = 2 * (_kernels._BLOCK_KEYS // pop.size) + 5  # three blocks per pass
    shapes = []

    def statistic(drawn, axis):
        shapes.append(drawn.shape)
        return np.median(drawn, axis=axis)

    concentration_harness(pop, 40, 0.01, trials, seed=3, phi=statistic, c=1.0,
                          expectation_trials=7)
    rows = _kernels._BLOCK_KEYS // pop.size
    assert shapes == [(7, 40), (rows, 40), (rows, 40), (5, 40)]


@pytest.mark.parametrize("phi", [
    lambda drawn, axis: np.median(drawn),  # a scalar: reduced over every axis
    lambda drawn, axis: drawn,  # not reduced
    lambda drawn, axis: np.median(drawn, axis=axis)[:-1],  # one statistic short
    lambda drawn, axis: np.median(drawn, axis=axis)[:, None],  # (k, 1)
], ids=["scalar", "identity", "short", "column"])
def test_harness_rejects_a_phi_of_the_wrong_shape(phi):
    with pytest.raises(InvalidStabilityInput, match="must reduce the last axis"):
        concentration_harness(np.arange(10.0), 3, 0.5, 100, seed=0, phi=phi, c=1.0)


def test_harness_apply_along_axis_wrapper_matches_the_per_draw_statistic():
    pop = np.random.default_rng(8).uniform(size=120)
    m, seed, eps, trials = 30, 4, 0.01, _kernels._BLOCK_KEYS // 120 + 9

    def per_draw(drawn):
        return float(drawn.max() - drawn[::3].mean())

    got = concentration_harness(
        pop, m, eps, trials, seed=seed, c=1.0,
        phi=lambda drawn, axis: np.apply_along_axis(per_draw, axis, drawn),
    )
    one_draw = lambda drawn, axis: per_draw(drawn)  # noqa: E731
    expectation = float(np.mean(draws_per_trial(pop, m, trials, _kernels.mix64_int(seed + 1),
                                                 one_draw)))
    values = draws_per_trial(pop, m, trials, seed, one_draw)
    assert got.empirical_tail == float(np.count_nonzero(values - expectation >= eps)) / trials
    assert 0.0 < got.empirical_tail < 1.0


_BAD_FOR_EITHER = [
    ("epsilon-nan", {"epsilon": math.nan}, "epsilon must be finite"),
    ("epsilon-inf", {"epsilon": math.inf}, "epsilon must be finite"),
    ("epsilon-negative", {"epsilon": -0.1}, "epsilon must be non-negative"),
    ("expectation-trials-negative", {"expectation_trials": -3},
     "expectation_trials must be at least 1"),
    ("expectation-trials-zero", {"expectation_trials": 0}, "expectation_trials must be at least 1"),
    ("population-nan", {"population": [0.0, 1.0, math.nan, 3.0]},
     "population values must be finite"),
    ("population-inf", {"population": [0.0, 1.0, -math.inf, 3.0]},
     "population values must be finite"),
]
_BAD_FOR_CUSTOM = [
    ("c-nan", {"c": math.nan}, "c must be finite"),
    ("c-inf", {"c": math.inf}, "c must be finite"),
]
# the mean statistic needs neither; each used to be ignored
_BAD_FOR_MEAN = [
    ("c-passed", {"c": 100.0}, "apply only to a custom phi"),
    ("expectation-trials-passed", {"expectation_trials": 5}, "apply only to a custom phi"),
]


@pytest.mark.parametrize("custom, kwargs, message", [
    pytest.param(custom, kwargs, message, id=f"{'custom' if custom else 'mean'}-{name}")
    for custom, cases in ((False, _BAD_FOR_EITHER + _BAD_FOR_MEAN),
                          (True, _BAD_FOR_EITHER + _BAD_FOR_CUSTOM))
    for name, kwargs, message in cases
])
def test_harness_rejects_bad_input_before_any_draw(monkeypatch, custom, kwargs, message):
    def no_draws(*args, **kw):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(_kernels, "subset_blocks", no_draws)
    monkeypatch.setattr(_kernels, "sample_means_without_replacement", no_draws)
    args = {"population": np.arange(4.0), "m": 2, "epsilon": 0.1, "trials": 50, "seed": 0,
            "phi": np.median if custom else None, "c": 1.0 if custom else None, **kwargs}
    with pytest.raises(InvalidStabilityInput, match=message):
        concentration_harness(**args)
