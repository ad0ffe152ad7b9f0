"""Counter-based sampling kernels: determinism and agreement with per-trial references."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import _kernels, bounds


# published SplitMix64 reference outputs for seed 0; our key stream for
# seed 0 must reproduce them because mix64(0) == 0
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_key_stream_matches_published_vectors():
    keys = _kernels.partition_keys(0, 3)
    assert [int(k) for k in keys] == SPLITMIX64_SEED0


def test_mix64_int_matches_array_version():
    values = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    arr = _kernels.mix64_array(np.array(values, dtype=np.uint64))
    for v, a in zip(values, arr):
        assert _kernels.mix64_int(v) == int(a)


def test_mix64_is_injective_on_small_range():
    outs = {_kernels.mix64_int(v) for v in range(10_000)}
    assert len(outs) == 10_000


@given(st.integers(0, 2**64 - 1), st.integers(1, 2000))
@settings(max_examples=30)
def test_partition_keys_distinct(seed, n):
    keys = _kernels.partition_keys(seed, n)
    assert keys.dtype == np.uint64
    assert len(np.unique(keys)) == n


def test_partition_keys_deterministic():
    a = _kernels.partition_keys(123, 50)
    b = _kernels.partition_keys(123, 50)
    assert np.array_equal(a, b)
    c = _kernels.partition_keys(124, 50)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# subset means


def test_means_deterministic_per_seed():
    values = np.arange(50.0)
    a = _kernels.sample_means_without_replacement(values, 10, 500, 9)
    b = _kernels.sample_means_without_replacement(values, 10, 500, 9)
    assert np.array_equal(a, b)


def test_means_are_subset_means():
    """Every produced mean must be attainable by some m-subset (oracle check)."""
    values = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    m = 2
    attainable = {
        round(np.mean([values[i] for i in combo]), 12)
        for combo in itertools.combinations(range(5), m)
    }
    means = _kernels.sample_means_without_replacement(values, m, 300, 1)
    for mean in means:
        assert round(float(mean), 12) in attainable


def test_means_expectation_matches_population_mean():
    values = np.arange(20.0)
    trials = 40_000
    means = _kernels.sample_means_without_replacement(values, 5, trials, 11)
    # uniform subsets: E[subset mean] = population mean; check within 5 sigma
    pop_mean = values.mean()
    pop_var = values.var()
    # variance of the subset mean under sampling without replacement
    var_mean = pop_var / 5 * (20 - 5) / (20 - 1)
    tol = 5 * math.sqrt(var_mean / trials)
    assert abs(float(means.mean()) - pop_mean) <= tol


def test_means_rejects_bad_m():
    with pytest.raises(ValueError):
        _kernels.sample_means_without_replacement(np.arange(5.0), 0, 10, 0)
    with pytest.raises(ValueError):
        _kernels.sample_means_without_replacement(np.arange(5.0), 6, 10, 0)


# ---------------------------------------------------------------------------
# the blocked numpy path against the per-trial reference

GOLDEN_INT = int(_kernels.GOLDEN)


def means_per_trial(values, m, trials, seed):
    """The numpy path before blocking, one trial at a time.

    Trial t keys index i with mix64(base_t + (i+1)*GOLDEN), base_t =
    mix64(root + (t+1)*GOLDEN), keeps the m smallest keys and sums their
    values in argpartition order.
    """
    root = _kernels.mix64_int(int(seed) % (1 << 64))
    out = np.empty(trials)
    for t in range(trials):
        keys = _kernels.partition_keys(root + (t + 1) * GOLDEN_INT, values.size)
        out[t] = values[np.argpartition(keys, m - 1)[:m]].sum() / m
    return out


N_POP = 512
BLOCK = _kernels._BLOCK_KEYS // N_POP  # trials per block at this population size
# a whole number of blocks for every power-of-two block size up to 131,072
# keys; fixed, so that a change of block size keeps the test ids
BOUNDARY = 256
TRIAL_COUNTS = [1, BOUNDARY - 1, BOUNDARY, BOUNDARY + 1]


def test_trial_counts_sit_on_a_block_boundary():
    assert BOUNDARY % BLOCK == 0


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("m", [1, 37, N_POP])
def test_blocked_means_bit_identical_on_integer_population(trials, m):
    values = np.random.default_rng(1).integers(-50, 50, N_POP).astype(np.float64)
    got = _kernels.sample_means_without_replacement(values, m, trials, 2**64 - 5)
    assert np.array_equal(got, means_per_trial(values, m, trials, 2**64 - 5))


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("m", [1, 200, N_POP])
def test_blocked_means_within_four_eps_on_float_population(trials, m):
    values = np.random.default_rng(2).uniform(-1, 1, N_POP)
    got = _kernels.sample_means_without_replacement(values, m, trials, 17)
    want = means_per_trial(values, m, trials, 17)
    # same subsets; only the summation order differs
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(np.float64).eps


@pytest.mark.parametrize("count", [1, 2 * BOUNDARY + 1])
@pytest.mark.parametrize("m", [1, 100, N_POP])
def test_subset_blocks_match_partition_keys_per_draw(count, m):
    root = 2**64 - 3  # root + t + 1 wraps past 2**64
    rows = []
    for start, subsets in _kernels.subset_blocks(root, N_POP, m, count):
        assert start == len(rows)
        rows.extend(subsets)
    assert len(rows) == count
    for t, row in enumerate(rows):
        keys = _kernels.partition_keys(root + t + 1, N_POP)
        assert np.array_equal(row, np.sort(np.argpartition(keys, m - 1)[:m]))


# ---------------------------------------------------------------------------
# worker threads: the output does not depend on how many there are

WORKER_TRIALS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
POPULATIONS = {
    "integer": np.random.default_rng(3).integers(-50, 50, N_POP).astype(np.float64),
    "float": np.random.default_rng(4).uniform(-1, 1, N_POP),
}


def means_with_workers(monkeypatch, workers, values, m, trials, seed):
    monkeypatch.setattr(_kernels, "_worker_count", lambda: workers)
    return _kernels.sample_means_without_replacement(values, m, trials, seed)


@pytest.mark.parametrize("population", sorted(POPULATIONS))
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_means_bit_identical_for_any_worker_count(monkeypatch, workers, population):
    values = POPULATIONS[population]
    for trials in WORKER_TRIALS:
        for m in (1, 200, N_POP):
            want = means_with_workers(monkeypatch, 1, values, m, trials, 29)
            got = means_with_workers(monkeypatch, workers, values, m, trials, 29)
            assert got.shape == (trials,)
            assert np.array_equal(got, want), (trials, m)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask here")
def test_worker_count_is_the_affinity_mask():
    assert _kernels._worker_count() == len(os.sched_getaffinity(0))


def test_worker_exception_reaches_the_caller(monkeypatch):
    def fail(*args):
        raise MemoryError("block")

    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
    monkeypatch.setattr(_kernels, "_fill_keys", fail)
    with pytest.raises(MemoryError, match="block"):
        _kernels.sample_means_without_replacement(np.arange(float(N_POP)), 3, 2 * BLOCK, 0)


# ---------------------------------------------------------------------------
# working set: a few cache-sized key blocks, whatever the trial count

BLOCK_BYTES = _kernels._BLOCK_KEYS * 8  # one block of uint64 keys


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` holds in traced allocations at any one time.

    The call is made once untraced first, for the one-time costs: the first
    ``np.median`` imports ``numpy.ma``, about 1 MB of module objects.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_is_a_few_cache_sized_key_blocks(monkeypatch):
    # a worker's key and scratch blocks fit a 1 MiB per-core L2 together
    assert 2 * BLOCK_BYTES <= 1 << 20
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)
    trials = 20_000
    peak = traced_peak(lambda: _kernels.sample_means_without_replacement(
        np.repeat([0.0, 1.0], 500), 500, trials, 0))
    # the means and one base per trial; keys and scratch for each of the two
    # workers; two blocks of slack for ufunc buffers
    assert peak <= 2 * 8 * trials + (2 * 2 + 2) * BLOCK_BYTES

    pop = np.random.default_rng(9).uniform(size=200)
    trials = 2_000
    peak = traced_peak(lambda: bounds.concentration_harness(
        pop, 100, 0.05, trials, seed=1, phi=np.median, c=1.0))
    # the statistics of both passes and one base per draw; keys, scratch and
    # the bool mask (an eighth of a block); the subsets, the drawn values and
    # np.median's copy of them (half a block each at m = n/2); one block of
    # slack for ufunc buffers
    assert peak <= 3 * 8 * trials + (2 + 1 / 8 + 3 * 0.5 + 1) * BLOCK_BYTES
