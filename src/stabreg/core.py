"""Samples, partitions, error functionals and swap machinery.

The setting is transductive: a fixed full sample X of n = m + u points with
bounded targets is split into a labeled part S (size m) and an unlabeled part
T (size u) by sampling S uniformly without replacement.  Training error is
the mean squared residual over S, test error the mean squared residual over
T.  The companion i.i.d. setting (draw S i.i.d., then condition) is a
documented non-goal; see the README.

Index sets are 0-based and kept sorted.  Partition sampling uses the
SplitMix64 counter scheme from ``stabreg._kernels`` and is reproducible from
the seed alone on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .errors import InvalidPartitionSize, InvalidStabilityInput

if TYPE_CHECKING:
    from .graph import GraphSpec

__all__ = [
    "FullSample",
    "Partition",
    "HypothesisScores",
    "SwapPair",
    "sample_partition",
    "empirical_error",
    "test_error",
    "overall_error",
    "score_to_cost_stability",
    "enumerate_swaps",
    "apply_swap",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``; an array that already is one is shared, not copied."""
    if isinstance(a, np.ndarray) and a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FullSample:
    """The fixed full sample: points, targets and a label bound.

    Attributes:
        points: (n, d) float array of feature vectors.
        targets: (n,) float array with |targets[i]| <= label_bound_M.
        label_bound_M: positive bound M on the absolute targets.
        graph: an optional graph on the n points, fixed like the points
            (an edge list); graph algorithms use it in place of a Gaussian
            affinity built per partition.
    """

    points: np.ndarray
    targets: np.ndarray
    label_bound_M: float
    graph: GraphSpec | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array")
        y = np.asarray(self.targets, dtype=np.float64).ravel()
        if pts.shape[0] != y.shape[0]:
            raise ValueError("points and targets disagree on sample size")
        if pts.shape[0] < 2:
            raise ValueError("a full sample needs at least 2 points")
        m_bound = float(self.label_bound_M)
        if not m_bound > 0:
            raise ValueError("label_bound_M must be positive")
        if np.max(np.abs(y), initial=0.0) > m_bound:
            raise ValueError("targets exceed label_bound_M")
        if self.graph is not None and self.graph.n != pts.shape[0]:
            raise ValueError("the graph and the points disagree on sample size")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "targets", _readonly(y))
        object.__setattr__(self, "label_bound_M", m_bound)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Partition:
    """A labeled/unlabeled split of indices 0..n-1.

    train_idx and test_idx are disjoint, sorted, and together cover the whole
    sample.  ``seed`` records the seed that generated the split (swaps and
    hand-built partitions keep whatever seed the caller supplies).
    """

    train_idx: np.ndarray
    test_idx: np.ndarray
    seed: int = 0

    def __post_init__(self):
        s = np.sort(np.asarray(self.train_idx, dtype=np.int64).ravel())
        t = np.sort(np.asarray(self.test_idx, dtype=np.int64).ravel())
        if s.size == 0 or t.size == 0:
            raise InvalidPartitionSize("both sides of the split must be non-empty")
        merged = np.concatenate([s, t])
        n = merged.size
        union = np.sort(merged)
        if not np.array_equal(union, np.arange(n, dtype=np.int64)):
            raise ValueError("train and test indices must partition 0..n-1")
        object.__setattr__(self, "train_idx", _readonly(s))
        object.__setattr__(self, "test_idx", _readonly(t))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def m(self) -> int:
        return self.train_idx.size

    @property
    def u(self) -> int:
        return self.test_idx.size

    @property
    def n(self) -> int:
        return self.m + self.u


@dataclass(frozen=True)
class HypothesisScores:
    """Predicted scores for every point of the associated full sample."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64).ravel()
        object.__setattr__(self, "scores", _readonly(s))

    @property
    def n(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class SwapPair:
    """One S/T exchange: ``removed`` leaves S, ``added`` leaves T."""

    removed: int
    added: int

    def __post_init__(self):
        object.__setattr__(self, "removed", int(self.removed))
        object.__setattr__(self, "added", int(self.added))


def _as_scores(h) -> np.ndarray:
    if isinstance(h, HypothesisScores):
        return h.scores
    return np.asarray(h, dtype=np.float64).ravel()


def sample_partition(sample: FullSample, m: int, seed: int) -> Partition:
    """Draw S uniformly without replacement; T is the complement.

    The draw keys every index with the SplitMix64 stream for ``seed`` and
    keeps the m smallest keys, which makes the subset uniform over all
    (n choose m) subsets and bit-reproducible across platforms.
    """
    n = sample.n
    m = int(m)
    if not 1 <= m <= n - 1:
        raise InvalidPartitionSize(f"m={m} outside [1, {n - 1}]")
    order = np.argpartition(_kernels.partition_keys(seed, n), m - 1)
    return Partition(train_idx=order[:m], test_idx=order[m:], seed=seed)  # Partition sorts


def _check_length(h: np.ndarray, sample: FullSample) -> None:
    if h.size != sample.n:
        raise ValueError(
            f"scores have length {h.size}, sample has {sample.n} points"
        )


def empirical_error(h, sample: FullSample, part: Partition) -> float:
    """Mean squared residual over the labeled set S."""
    scores = _as_scores(h)
    _check_length(scores, sample)
    d = scores[part.train_idx] - sample.targets[part.train_idx]
    return float(np.mean(d * d))


def test_error(h, sample: FullSample, part: Partition) -> float:
    """Mean squared residual over the unlabeled set T."""
    scores = _as_scores(h)
    _check_length(scores, sample)
    d = scores[part.test_idx] - sample.targets[part.test_idx]
    return float(np.mean(d * d))


# keep pytest from collecting this library function as a test case
test_error.__test__ = False


def overall_error(h, sample: FullSample) -> float:
    """Mean squared residual over the whole sample X.

    Satisfies the exact decomposition
    ``test_error = ((m+u)/u) * overall_error - (m/u) * empirical_error``.
    """
    scores = _as_scores(h)
    _check_length(scores, sample)
    d = scores - sample.targets
    return float(np.mean(d * d))


def score_to_cost_stability(beta_score: float, B: float) -> float:
    """Convert score stability to cost stability for squared loss.

    If every residual |h(x) - y(x)| stays within B and the solution moves by
    at most ``beta_score`` pointwise under one swap, then each squared cost
    moves by at most ``2 * B * beta_score``.
    """
    beta_score = float(beta_score)
    B = float(B)
    if beta_score < 0:
        raise InvalidStabilityInput("beta_score must be non-negative")
    if not B > 0:
        raise InvalidStabilityInput("B must be positive")
    return 2.0 * B * beta_score


def enumerate_swaps(part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """All m*u single-exchange perturbations of the split as ``(removed, added)``.

    Two int64 index arrays of length m*u: swap k exchanges ``removed[k] =
    train_idx[k // u]`` with ``added[k] = test_idx[k % u]``, so the swaps run
    in sorted order.
    """
    return np.repeat(part.train_idx, part.u), np.tile(part.test_idx, part.m)


def apply_swap(part: Partition, swap: SwapPair) -> Partition:
    """Return the partition with ``swap.removed`` and ``swap.added`` exchanged."""
    i = _sorted_position(part.train_idx, swap.removed)
    if i is None:
        raise ValueError(f"index {swap.removed} is not in the labeled set")
    j = _sorted_position(part.test_idx, swap.added)
    if j is None:
        raise ValueError(f"index {swap.added} is not in the unlabeled set")
    new_s = _replace_sorted(part.train_idx, i, swap.added)
    new_t = _replace_sorted(part.test_idx, j, swap.removed)
    return Partition(train_idx=new_s, test_idx=new_t, seed=part.seed)


def _sorted_position(a: np.ndarray, value: int) -> int | None:
    """Index of ``value`` in the sorted array ``a``, or None when absent."""
    i = int(np.searchsorted(a, value))
    return i if i < a.size and a[i] == value else None


def _replace_sorted(a: np.ndarray, i: int, value: int) -> np.ndarray:
    """Sorted ``a`` with ``a[i]`` replaced by ``value``, which ``a`` does not hold."""
    k = int(np.searchsorted(a, value))  # value's slot among a's entries
    out = a.copy()
    if k > i:  # entries i+1..k-1 move one down
        out[i : k - 1] = a[i + 1 : k]
        out[k - 1] = value
    else:  # entries k..i-1 move one up
        out[k + 1 : i + 1] = a[k:i]
        out[k] = value
    return out
