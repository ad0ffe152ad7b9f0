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
        for name, finite in (("points", np.isfinite(pts).all(axis=1)), ("targets", np.isfinite(y))):
            if not finite.all():
                raise ValueError(f"{name}[{int(np.argmin(finite))}] is not finite")
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
        s, t = _index_side(self.train_idx), _index_side(self.test_idx)
        if s.size == 0 or t.size == 0:
            raise InvalidPartitionSize("both sides of the split must be non-empty")
        if not _covers(s, t):
            raise ValueError("train and test indices must partition 0..n-1")
        object.__setattr__(self, "train_idx", s)
        object.__setattr__(self, "test_idx", t)
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

    def on_sides(self, on_S, on_T=0.0) -> np.ndarray:
        """The float vector over all n points holding ``on_S`` on S and ``on_T`` on T.

        Each argument is a scalar or one value per point of its side, in
        sorted-index order.  A value per point may be a row (shape (m, k) or
        (u, k), k broadcast between the sides); the result is then (n, k).
        """
        out = np.empty((self.n, *np.broadcast_shapes(np.shape(on_S)[1:], np.shape(on_T)[1:])))
        out[self.train_idx] = on_S
        out[self.test_idx] = on_T
        return out


def _index_side(idx) -> np.ndarray:
    """One side's indices as a sorted, flat, read-only int64 array.

    An already sorted input is not sorted again; it is shared when it is a
    read-only array of its own, else copied.
    """
    a = np.asarray(idx, dtype=np.int64).ravel()
    if not np.count_nonzero(a[1:] < a[:-1]):
        return _readonly(a)
    a = np.sort(a)
    a.flags.writeable = False
    return a


def _covers(s: np.ndarray, t: np.ndarray) -> bool:
    """Whether the sorted index arrays s and t hold each of 0..n-1 once, n = |s| + |t|.

    Sorted, they lie in 0..n-1 when their ends do, and their n indices then
    cover 0..n-1 exactly when none of them repeats: one boolean mask tells.
    """
    n = s.size + t.size
    if not (s[0] >= 0 and t[0] >= 0 and s[-1] < n and t[-1] < n):
        return False
    covered = np.zeros(n, dtype=bool)
    covered[s] = True
    covered[t] = True
    return np.count_nonzero(covered) == n


def sample_partition(sample: FullSample, m: int, seed: int) -> Partition:
    """Draw S uniformly without replacement; T is the complement.

    The draw keys every index with the SplitMix64 stream for ``seed``
    (``_kernels.partition_keys``) and keeps the m smallest keys
    (``_kernels.smallest_mask``, the one selection routine), which makes the
    subset uniform over all (n choose m) subsets and bit-reproducible across
    platforms.
    """
    n = sample.n
    m = int(m)
    if not 1 <= m <= n - 1:
        raise InvalidPartitionSize(f"m={m} outside [1, {n - 1}]")
    mask = _kernels.smallest_mask(_kernels.partition_keys(seed, n), m)
    return Partition(train_idx=mask.nonzero()[0], test_idx=(~mask).nonzero()[0], seed=seed)


def _scores(h, sample: FullSample) -> np.ndarray:
    """``h`` as a flat float array with one score per point of the sample."""
    scores = np.asarray(h, dtype=np.float64).ravel()
    if scores.size != sample.n:
        raise ValueError(
            f"scores have length {scores.size}, sample has {sample.n} points"
        )
    return scores


def empirical_error(h, sample: FullSample, part: Partition) -> float:
    """Mean squared residual over the labeled set S."""
    d = _scores(h, sample)[part.train_idx] - sample.targets[part.train_idx]
    return float(np.mean(d * d))


def test_error(h, sample: FullSample, part: Partition) -> float:
    """Mean squared residual over the unlabeled set T."""
    d = _scores(h, sample)[part.test_idx] - sample.targets[part.test_idx]
    return float(np.mean(d * d))


# keep pytest from collecting this library function as a test case
test_error.__test__ = False


def overall_error(h, sample: FullSample) -> float:
    """Mean squared residual over the whole sample X.

    Satisfies the exact decomposition
    ``test_error = ((m+u)/u) * overall_error - (m/u) * empirical_error``.
    """
    d = _scores(h, sample) - sample.targets
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


def apply_swap(part: Partition, removed: int, added: int) -> Partition:
    """Return the partition with labeled ``removed`` and unlabeled ``added`` exchanged."""
    removed, added = int(removed), int(added)
    i = _sorted_position(part.train_idx, removed)
    if i is None:
        raise ValueError(f"index {removed} is not in the labeled set")
    j = _sorted_position(part.test_idx, added)
    if j is None:
        raise ValueError(f"index {added} is not in the unlabeled set")
    return Partition(train_idx=_replaced(part.train_idx, i, added),
                     test_idx=_replaced(part.test_idx, j, removed), seed=part.seed)


def _replaced(a: np.ndarray, i: int, value: int) -> np.ndarray:
    """The sorted ``a`` with ``a[i]`` replaced by ``value`` (not in ``a``), kept sorted.

    The entries between the old and the new place of the value move by one;
    the result is a new read-only array, which ``Partition`` shares.
    """
    k = int(a.searchsorted(value))
    out = a.copy()
    if k > i:
        out[i:k - 1] = a[i + 1:k]
        out[k - 1] = value
    else:
        out[k + 1:i + 1] = a[k:i]
        out[k] = value
    out.flags.writeable = False
    return out


def _sorted_position(a: np.ndarray, value: int) -> int | None:
    """Index of ``value`` in the sorted array ``a``, or None when absent."""
    i = int(a.searchsorted(value))
    return i if i < a.size and a[i] == value else None

