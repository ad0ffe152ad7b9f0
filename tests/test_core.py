"""Fixed-sample containers, partition sampling, and error functionals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import (
    FullSample,
    HypothesisScores,
    InvalidPartitionSize,
    InvalidStabilityInput,
    Partition,
    SwapPair,
    apply_swap,
    empirical_error,
    enumerate_swaps,
    overall_error,
    sample_partition,
    score_to_cost_stability,
    test_error,
)


def make_sample(n, seed=0, m_bound=2.0):
    rng = np.random.default_rng(seed)
    return FullSample(
        points=rng.normal(size=(n, 3)),
        targets=rng.uniform(-m_bound, m_bound, n),
        label_bound_M=m_bound,
    )


# ---------------------------------------------------------------------------
# containers


def test_full_sample_promotes_1d_points():
    s = FullSample(points=np.array([0.0, 1.0, 2.0]), targets=np.zeros(3), label_bound_M=1.0)
    assert s.points.shape == (3, 1)
    assert s.n == 3
    assert s.dimension == 1


def test_full_sample_arrays_are_read_only():
    s = make_sample(5)
    with pytest.raises(ValueError):
        s.points[0, 0] = 99.0
    with pytest.raises(ValueError):
        s.targets[0] = 99.0


def test_full_sample_does_not_alias_caller_arrays():
    pts = np.zeros((4, 2))
    s = FullSample(points=pts, targets=np.zeros(4), label_bound_M=1.0)
    pts[0, 0] = 7.0
    assert s.points[0, 0] == 0.0


def test_full_sample_rejects_label_outside_bound():
    with pytest.raises(ValueError):
        FullSample(points=np.zeros((3, 1)), targets=np.array([0.0, 0.5, 1.5]), label_bound_M=1.0)


def test_full_sample_rejects_tiny_or_bad_inputs():
    with pytest.raises(ValueError):
        FullSample(points=np.zeros((1, 2)), targets=np.zeros(1), label_bound_M=1.0)
    with pytest.raises(ValueError):
        FullSample(points=np.zeros((3, 2)), targets=np.zeros(2), label_bound_M=1.0)
    with pytest.raises(ValueError):
        FullSample(points=np.zeros((3, 2)), targets=np.zeros(3), label_bound_M=0.0)


def test_partition_sorts_and_validates():
    p = Partition(train_idx=np.array([3, 0]), test_idx=np.array([2, 1]))
    assert list(p.train_idx) == [0, 3]
    assert list(p.test_idx) == [1, 2]
    assert (p.m, p.u, p.n) == (2, 2, 4)


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition(train_idx=np.array([0, 1]), test_idx=np.array([1, 2]))
    with pytest.raises(ValueError):
        Partition(train_idx=np.array([0]), test_idx=np.array([2]))


def test_partition_rejects_empty_side():
    with pytest.raises(InvalidPartitionSize):
        Partition(train_idx=np.array([], dtype=int), test_idx=np.array([0, 1]))
    with pytest.raises(InvalidPartitionSize):
        Partition(train_idx=np.array([0, 1]), test_idx=np.array([], dtype=int))


# ---------------------------------------------------------------------------
# partition sampling


def test_sample_partition_is_deterministic():
    s = make_sample(20)
    a = sample_partition(s, 7, seed=42)
    b = sample_partition(s, 7, seed=42)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)


def test_sample_partition_different_seeds_differ():
    s = make_sample(30)
    a = sample_partition(s, 15, seed=1)
    b = sample_partition(s, 15, seed=2)
    assert not np.array_equal(a.train_idx, b.train_idx)


@given(st.integers(2, 40), st.integers(0, 2**31), st.data())
def test_sample_partition_is_a_partition(n, seed, data):
    m = data.draw(st.integers(1, n - 1))
    s = FullSample(points=np.zeros((n, 1)), targets=np.zeros(n), label_bound_M=1.0)
    p = sample_partition(s, m, seed)
    assert p.m == m
    assert p.u == n - m
    assert np.array_equal(np.sort(np.concatenate([p.train_idx, p.test_idx])), np.arange(n))


def test_sample_partition_rejects_degenerate_sizes():
    s = make_sample(5)
    for m in (0, 5, 6, -1):
        with pytest.raises(InvalidPartitionSize):
            sample_partition(s, m, seed=0)


def test_sample_partition_uniform_over_singletons():
    # m=1 of n=5: each index should appear ~1/5 of the time
    s = make_sample(5)
    counts = np.zeros(5)
    draws = 20_000
    for t in range(draws):
        counts[sample_partition(s, 1, seed=t).train_idx[0]] += 1
    freqs = counts / draws
    assert np.max(np.abs(freqs - 0.2)) < 0.02


def test_sample_partition_uniform_over_pairs():
    # m=2 of n=4: all 6 pairs equally likely
    s = make_sample(4)
    pair_counts = {}
    draws = 30_000
    for t in range(draws):
        p = sample_partition(s, 2, seed=t)
        pair_counts[tuple(p.train_idx)] = pair_counts.get(tuple(p.train_idx), 0) + 1
    assert len(pair_counts) == 6
    freqs = np.array(list(pair_counts.values())) / draws
    assert np.max(np.abs(freqs - 1 / 6)) < 0.02


# ---------------------------------------------------------------------------
# error functionals and the exact decomposition


def test_error_functionals_hand_example():
    s = FullSample(
        points=np.arange(4.0)[:, None],
        targets=np.array([0.0, 1.0, 0.0, 1.0]),
        label_bound_M=1.0,
    )
    p = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))
    h = HypothesisScores(scores=np.array([0.0, 0.0, 1.0, 1.0]))
    assert empirical_error(h, s, p) == pytest.approx(0.5)  # (0 + 1)/2
    assert test_error(h, s, p) == pytest.approx(0.5)  # (1 + 0)/2
    assert overall_error(h, s) == pytest.approx(0.5)


def test_error_accepts_plain_arrays():
    s = make_sample(6)
    p = sample_partition(s, 3, 0)
    h = np.zeros(6)
    assert empirical_error(h, s, p) == empirical_error(HypothesisScores(scores=h), s, p)


def test_error_rejects_length_mismatch():
    s = make_sample(6)
    p = sample_partition(s, 3, 0)
    with pytest.raises(ValueError):
        empirical_error(np.zeros(5), s, p)


@given(st.integers(2, 30), st.integers(0, 10_000), st.data())
@settings(max_examples=60)
def test_error_decomposition_identity(n, seed, data):
    """Exact identity: u R_T = (m+u) R_X - m R_S, to 1e-12."""
    m = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    s = FullSample(
        points=rng.normal(size=(n, 2)),
        targets=rng.uniform(-1, 1, n),
        label_bound_M=1.0,
    )
    p = sample_partition(s, m, seed)
    h = HypothesisScores(scores=rng.uniform(-2, 2, n))
    lhs = test_error(h, s, p)
    rhs = (n / p.u) * overall_error(h, s) - (p.m / p.u) * empirical_error(h, s, p)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# swaps


def test_enumerate_swaps_full_product():
    s = make_sample(5)
    p = Partition(train_idx=np.array([0, 2]), test_idx=np.array([1, 3, 4]))
    removed, added = enumerate_swaps(p)
    assert removed.dtype == added.dtype == np.int64
    assert list(zip(removed.tolist(), added.tolist())) == list(
        itertools.product([0, 2], [1, 3, 4])
    )


def test_apply_swap_moves_one_point_each_way():
    s = make_sample(6)
    p = Partition(train_idx=np.array([0, 1, 2]), test_idx=np.array([3, 4, 5]))
    q = apply_swap(p, SwapPair(removed=1, added=4))
    assert list(q.train_idx) == [0, 2, 4]
    assert list(q.test_idx) == [1, 3, 5]
    assert (q.m, q.u) == (p.m, p.u)


def test_apply_swap_matches_sorting_the_exchanged_sets():
    p = Partition(train_idx=np.array([1, 4, 5, 9]), test_idx=np.array([0, 2, 3, 6, 7, 8, 10]),
                  seed=7)
    for i, j in zip(*enumerate_swaps(p)):
        sw = SwapPair(removed=i, added=j)
        q = apply_swap(p, sw)
        s = np.sort(np.append(p.train_idx[p.train_idx != sw.removed], sw.added))
        t = np.sort(np.append(p.test_idx[p.test_idx != sw.added], sw.removed))
        assert np.array_equal(q.train_idx, s) and np.array_equal(q.test_idx, t)
        assert q.seed == p.seed


def test_apply_swap_validates_membership():
    p = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))
    with pytest.raises(ValueError):
        apply_swap(p, SwapPair(removed=2, added=3))  # removed not labeled
    with pytest.raises(ValueError):
        apply_swap(p, SwapPair(removed=0, added=1))  # added not unlabeled


# ---------------------------------------------------------------------------
# score-to-cost conversion


def test_score_to_cost_stability_formula():
    assert score_to_cost_stability(0.25, 3.0) == pytest.approx(1.5)


@given(st.floats(0, 100), st.floats(0.001, 100))
def test_score_to_cost_stability_scales_linearly(beta, b_resid):
    assert score_to_cost_stability(beta, b_resid) == pytest.approx(2 * beta * b_resid)


def test_score_to_cost_stability_rejects_bad_inputs():
    with pytest.raises(InvalidStabilityInput):
        score_to_cost_stability(-0.1, 1.0)
    with pytest.raises(InvalidStabilityInput):
        score_to_cost_stability(0.1, 0.0)
