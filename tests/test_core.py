"""Fixed-sample containers, partition sampling, and error functionals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import _kernels
from stabreg import (
    FullSample,
    InvalidPartitionSize,
    InvalidStabilityInput,
    Partition,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_full_sample_rejects_non_finite_values_naming_the_first(bad):
    targets = np.zeros(6)
    targets[[2, 4]] = bad
    with pytest.raises(ValueError, match=r"targets\[2\] is not finite"):
        FullSample(points=np.arange(6.0), targets=targets, label_bound_M=1.0)
    points = np.zeros((6, 2))
    points[3, 1] = bad
    with pytest.raises(ValueError, match=r"points\[3\] is not finite"):
        FullSample(points=points, targets=np.zeros(6), label_bound_M=1.0)


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


def _partition_by_the_sorting_rule(train_idx, test_idx):
    """Reference: the validation that sorts both sides and their union and compares with 0..n-1."""
    s = np.sort(np.asarray(train_idx, dtype=np.int64).ravel())
    t = np.sort(np.asarray(test_idx, dtype=np.int64).ravel())
    if s.size == 0 or t.size == 0:
        raise InvalidPartitionSize("both sides of the split must be non-empty")
    union = np.sort(np.concatenate([s, t]))
    if not np.array_equal(union, np.arange(union.size, dtype=np.int64)):
        raise ValueError("train and test indices must partition 0..n-1")
    return s, t


def _outcome(build, train_idx, test_idx):
    try:
        s, t = build(train_idx, test_idx)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return s.dtype, s.tolist(), t.tolist()


_SPLITS = [  # (train_idx, test_idx): accepted, sorted or not, and each way to fail
    ([0, 1], [2, 3]),
    ([3, 0], [2, 1]),
    ([1, 3], [0, 2, 4]),
    ([[2], [0]], [[1]]),
    ((0,), (1,)),
    (np.arange(0, 40, 2), np.arange(1, 40, 2)),
    (np.arange(39, -1, -2), np.arange(38, -1, -2)),
    ([0, 1.0], [2]),
    ([], [0, 1]),
    ([0, 1], []),
    ([], []),
    ([0, 0], [1, 2]),
    ([1, 0, 1], [2, 3]),
    ([0, 1], [1, 2]),
    ([0], [2]),
    ([0, 2], [3, 4]),
    ([-1, 1], [0, 2]),
    ([-1, 0], [1, 2]),
    ([0, 1], [2, 2 ** 40]),
    ([0, 1], [-(2 ** 40), 2]),
    ([2, 1], [0, 1]),
]


@pytest.mark.parametrize("train_idx, test_idx", _SPLITS, ids=[str(i) for i in range(len(_SPLITS))])
def test_partition_accepts_and_rejects_as_the_sorting_rule(train_idx, test_idx):
    # the O(n) check keeps the sorting rule's accept/reject decision, error type and message
    def build(s, t):
        part = Partition(train_idx=s, test_idx=t)
        assert not (part.train_idx.flags.writeable or part.test_idx.flags.writeable)
        return part.train_idx, part.test_idx

    want = _outcome(_partition_by_the_sorting_rule, train_idx, test_idx)
    assert _outcome(build, train_idx, test_idx) == want


def test_partition_does_not_alias_a_writeable_caller_array():
    train, test = np.array([0, 2]), np.array([1, 3])  # already sorted, so not sorted again
    part = Partition(train_idx=train, test_idx=test)
    train[0], test[0] = 3, 2
    assert part.train_idx.tolist() == [0, 2] and part.test_idx.tolist() == [1, 3]
    assert train.flags.writeable  # the caller's array is left as it was


def test_partition_lays_values_out_on_its_sides():
    part = Partition(train_idx=np.array([3, 0]), test_idx=np.array([1, 4, 2]))
    assert part.on_sides(2.0, 1.0).tolist() == [2.0, 1.0, 1.0, 2.0, 1.0]
    assert part.on_sides([5, 6]).tolist() == [5.0, 0.0, 0.0, 6.0, 0.0]  # sorted-index order
    assert part.on_sides([5.0, 6.0], [7.0, 8.0, 9.0]).tolist() == [5.0, 7.0, 8.0, 6.0, 9.0]
    rows = part.on_sides(np.array([[5.0], [6.0]]), np.arange(6.0).reshape(3, 2))
    assert rows.tolist() == [[5.0, 5.0], [0.0, 1.0], [2.0, 3.0], [6.0, 6.0], [4.0, 5.0]]
    with pytest.raises(ValueError):
        part.on_sides([1.0, 2.0, 3.0])


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


@given(st.integers(2, 300), st.integers(0, 2**64 - 1), st.data())
@settings(max_examples=100)
def test_sample_partition_keeps_the_m_smallest_keys(n, seed, data):
    # the draw rule that subset_blocks and the sampled swaps are also held to
    m = data.draw(st.integers(1, n - 1))
    s = FullSample(points=np.zeros((n, 1)), targets=np.zeros(n), label_bound_M=1.0)
    keys = _kernels.partition_keys(seed, n)
    want = np.sort(np.argpartition(keys, m - 1)[:m])
    assert np.array_equal(sample_partition(s, m, seed).train_idx, want)


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
    h = np.array([0.0, 0.0, 1.0, 1.0])
    assert empirical_error(h, s, p) == pytest.approx(0.5)  # (0 + 1)/2
    assert test_error(h, s, p) == pytest.approx(0.5)  # (1 + 0)/2
    assert overall_error(h, s) == pytest.approx(0.5)


def test_error_accepts_plain_arrays():
    s = make_sample(6)
    p = sample_partition(s, 3, 0)
    h = np.linspace(-1.0, 1.0, 6)
    want = empirical_error(h, s, p)
    assert empirical_error(h.tolist(), s, p) == want
    assert empirical_error(h[:, None], s, p) == want  # a column is flattened


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
    h = rng.uniform(-2, 2, n)
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
    q = apply_swap(p, 1, 4)
    assert list(q.train_idx) == [0, 2, 4]
    assert list(q.test_idx) == [1, 3, 5]
    assert (q.m, q.u) == (p.m, p.u)


def test_apply_swap_matches_sorting_the_exchanged_sets():
    p = Partition(train_idx=np.array([1, 4, 5, 9]), test_idx=np.array([0, 2, 3, 6, 7, 8, 10]),
                  seed=7)
    for i, j in zip(*enumerate_swaps(p)):
        q = apply_swap(p, i, j)
        s = np.sort(np.append(p.train_idx[p.train_idx != i], j))
        t = np.sort(np.append(p.test_idx[p.test_idx != j], i))
        assert np.array_equal(q.train_idx, s) and np.array_equal(q.test_idx, t)
        assert q.seed == p.seed


def test_apply_swap_validates_membership():
    p = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))
    with pytest.raises(ValueError):
        apply_swap(p, 2, 3)  # removed not labeled
    with pytest.raises(ValueError):
        apply_swap(p, 0, 1)  # added not unlabeled


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
