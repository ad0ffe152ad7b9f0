"""Concentration machinery and the stability generalization bound.

For sampling m of m+u points uniformly without replacement, a bounded
symmetric function of the drawn subset concentrates with sub-Gaussian tails
governed by the effective variance factor

    alpha(m, u) = (m u / (m + u - 1/2)) * 1 / (1 - 1 / (2 max(m, u))).

A beta-cost-stable algorithm whose per-point costs are bounded through a
residual bound B then satisfies, with probability at least 1 - delta over
the draw of the split,

    R(h) <= R_hat(h) + beta
            + (2 beta + B^2 (m+u)/(m u)) * sqrt(alpha(m,u) * ln(1/delta) / 2).

``concentration_harness`` estimates tail probabilities by Monte-Carlo and
compares them against the closed-form bound; the default statistic is the
sample mean, whose per-swap variation is (max - min)/m.  A custom statistic
is a numpy-style reduction over the last axis: it is called once per block
of draws on the (k, m) array of the drawn values and returns the k
statistics, so ``np.median``, ``np.mean`` and ``np.max`` serve as they are.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    InvalidConfidence,
    InvalidPartitionSize,
    InvalidStabilityInput,
)

__all__ = [
    "alpha",
    "BoundReport",
    "generalization_bound",
    "ConcentrationResult",
    "concentration_harness",
]


def alpha(m: int, u: int) -> float:
    """Effective variance factor for m-of-(m+u) sampling without replacement.

    Symmetric in (m, u) and strictly smaller than min(m, u).
    """
    m = int(m)
    u = int(u)
    if m < 1 or u < 1:
        raise InvalidPartitionSize("m and u must both be at least 1")
    first = (m * u) / (m + u - 0.5)
    second = 1.0 / (1.0 - 1.0 / (2.0 * max(m, u)))
    return first * second


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the generalization bound and all of its inputs."""

    r_hat: float
    beta: float
    B: float
    m: int
    u: int
    delta: float
    alpha_mu: float
    bound_value: float

    def as_dict(self) -> dict:
        return asdict(self)


def generalization_bound(
    r_hat: float, beta: float, B: float, m: int, u: int, delta: float
) -> BoundReport:
    """Evaluate the stability bound on the test error.

    Args:
        r_hat: training error of the hypothesis (mean squared residual on S).
        beta: cost stability coefficient of the learning map.
        B: bound on |h(x) - y(x)| over the sample.
        m: labeled count.  u: unlabeled count.
        delta: confidence level in (0, 1]; delta = 1 gives the slackless value.

    ``r_hat``, ``beta`` and ``B`` must be finite and non-negative, else
    InvalidStabilityInput is raised.

    Returns:
        BoundReport with ``bound_value = r_hat + beta +
        (2 beta + B^2 (m+u)/(m u)) * sqrt(alpha(m,u) * ln(1/delta) / 2)``.
    """
    r_hat = float(r_hat)
    beta = float(beta)
    B = float(B)
    if not 0.0 < float(delta) <= 1.0:
        raise InvalidConfidence(f"delta={delta} outside (0, 1]")
    for name, value in (("r_hat", r_hat), ("beta", beta), ("B", B)):
        if not math.isfinite(value):
            raise InvalidStabilityInput(f"{name} must be finite")
    if beta < 0 or B < 0:
        raise InvalidStabilityInput("beta and B must be non-negative")
    if r_hat < 0:
        raise InvalidStabilityInput("r_hat must be non-negative")
    a = alpha(m, u)
    slack = (2.0 * beta + B * B * (m + u) / (m * u)) * math.sqrt(
        a * math.log(1.0 / float(delta)) / 2.0
    )
    return BoundReport(
        r_hat=r_hat,
        beta=beta,
        B=B,
        m=int(m),
        u=int(u),
        delta=float(delta),
        alpha_mu=a,
        bound_value=r_hat + beta + slack,
    )


class ConcentrationResult(NamedTuple):
    """Monte-Carlo tail estimate next to its closed-form bound."""

    empirical_tail: float
    bound: float


def _tail_bound(epsilon: float, a: float, c: float) -> float:
    if c == 0.0:
        return 1.0 if epsilon <= 0 else 0.0
    return math.exp(-2.0 * epsilon * epsilon / (a * c * c))


def concentration_harness(
    population: np.ndarray,
    m: int,
    epsilon: float,
    trials: int,
    seed: int,
    phi: Callable[..., np.ndarray] | None = None,
    c: float | None = None,
    expectation_trials: int | None = None,
) -> ConcentrationResult:
    """Estimate P[phi(S) - E[phi] >= epsilon] and the matching tail bound.

    The default statistic is the sample mean over the drawn subset, for which
    E[phi] is the population mean exactly (symmetry of the draw) and the
    per-swap variation is c = (max - min)/m; its draws are split across
    worker threads by ``_kernels.sample_means_without_replacement``, with
    results that do not depend on the thread count.

    A custom ``phi`` may be passed together with its swap bound ``c``.  It
    is a reduction over the last axis: ``phi(values, axis=-1)`` gets the
    (k, m) array of one block of k draws from ``_kernels.subset_blocks``
    (row r holds the drawn values in sorted-index order; the array is
    refilled for the next block, so ``phi`` must not keep it) and returns an
    array of shape (k,), else InvalidStabilityInput is raised.
    ``np.median``, ``np.mean`` and ``np.max`` qualify as they are; wrap a
    function of one draw's values as
    ``lambda v, axis: np.apply_along_axis(f, axis, v)``.  Its expectation is
    estimated by a separate, independently seeded pass of
    ``expectation_trials`` draws (default: same as ``trials``).  ``phi`` is
    called in the calling thread, once per block, in block order.

    Every argument is checked before the first draw: ``epsilon``, ``c`` and
    the population values must be finite, ``trials`` and
    ``expectation_trials`` at least 1, and ``c`` and ``expectation_trials``
    are passed only with a custom ``phi`` (the mean needs neither).

    Returns:
        ConcentrationResult(empirical_tail, bound) where
        ``bound = exp(-2 epsilon^2 / (alpha(m, u) c^2))`` with u = n - m.
    """
    pop = np.asarray(population, dtype=np.float64).ravel()
    n = pop.size
    m = int(m)
    if not 1 <= m <= n - 1:
        raise InvalidPartitionSize(f"m={m} outside [1, {n - 1}]")
    trials = int(trials)
    if trials < 1:
        raise InvalidStabilityInput("trials must be at least 1")
    est_trials = trials if expectation_trials is None else int(expectation_trials)
    if est_trials < 1:
        raise InvalidStabilityInput("expectation_trials must be at least 1")
    epsilon = float(epsilon)
    if not math.isfinite(epsilon):
        raise InvalidStabilityInput("epsilon must be finite")
    if epsilon < 0:
        raise InvalidStabilityInput("epsilon must be non-negative")
    if not np.isfinite(pop).all():
        raise InvalidStabilityInput("population values must be finite")
    if phi is None and (c is not None or expectation_trials is not None):
        raise InvalidStabilityInput("c and expectation_trials apply only to a custom phi")
    a = alpha(m, n - m)

    if phi is None:
        c_val = float(pop.max() - pop.min()) / m
        means = _kernels.sample_means_without_replacement(pop, m, trials, seed)
        expectation = float(pop.mean())
        tail = float(np.count_nonzero(means - expectation >= epsilon)) / trials
        return ConcentrationResult(tail, _tail_bound(epsilon, a, c_val))

    if c is None:
        raise InvalidStabilityInput("a custom statistic needs its swap bound c")
    c_val = float(c)
    if not math.isfinite(c_val):
        raise InvalidStabilityInput("c must be finite")
    if c_val < 0:
        raise InvalidStabilityInput("c must be non-negative")

    def draws(count: int, stream_seed: int) -> np.ndarray:
        out = np.empty(count)
        drawn = None
        root = _kernels.mix64_int(stream_seed)
        for start, subsets in _kernels.subset_blocks(root, n, m, count):
            k = subsets.shape[0]
            if drawn is None:  # the first block is the largest
                drawn = np.empty(subsets.shape)
            # indices are in range by construction; "clip" lets take write to out unbuffered
            np.take(pop, subsets, out=drawn[:k], mode="clip")
            values = np.asarray(phi(drawn[:k], axis=-1))
            if values.shape != (k,):
                raise InvalidStabilityInput(
                    f"phi returned shape {values.shape} for a block of {k} draws; "
                    f"it must reduce the last axis to shape ({k},)"
                )
            out[start:start + k] = values
        return out

    expectation = float(np.mean(draws(est_trials, _kernels.mix64_int(int(seed) + 1))))
    values = draws(trials, int(seed))
    tail = float(np.count_nonzero(values - expectation >= epsilon)) / trials
    return ConcentrationResult(tail, _tail_bound(epsilon, a, c_val))
