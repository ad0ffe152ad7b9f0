"""Stability coefficients: closed-form bounds and an empirical swap harness.

Score stability bounds the pointwise movement of the learned scores when one
labeled point is exchanged with one unlabeled point; cost stability bounds
the movement of the per-point squared cost.  When residuals stay within B,
cost stability is at most ``2 B`` times score stability.

Closed forms implemented here:

* the kernel least-squares (LTR) cost stability coefficient driven by the
  trade-offs C, C', the kernel bound kappa, the label bound M and the
  pseudo-target stability beta_loc;
* the generic score bound for the unconstrained quadratic family in terms of
  the extremal eigenvalues of Q, C, C' and the moved label/weight mass, with
  specializations for CM and LL-Reg;
* score/cost stability for the norm-constrained Laplacian regularizer;
* pseudo-target stability (beta_loc) for radius-limited weighted averages.

``cm_lower_bound_instance`` builds the matching worst-case instance: two
complete-graph blocks where a single designated swap provably moves the
score at the swapped-in point by a closed-form diagonal entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .core import FullSample, Partition, apply_swap, enumerate_swaps
from .errors import (
    BoundDiverges,
    EmptyNeighborhood,
    GraphDisconnected,
    InvalidInstance,
    InvalidStabilityInput,
)
from .regressors import QuadraticSystem

__all__ = [
    "ltr_stability_bound",
    "unconstrained_score_bound",
    "cm_score_bound",
    "llreg_score_bound",
    "llreg_score_bound_spectral",
    "belkin_score_stability",
    "belkin_cost_stability",
    "beta_loc_bound",
    "beta_loc_gaussian",
    "beta_loc_invdist",
    "EmpiricalStabilityReport",
    "empirical_stability",
    "cm_lower_bound_instance",
    "cm_lower_bound_demo",
]

SWAP_BUDGET = 400
# empirical_stability evaluates this many swaps at a time, so it holds a few
# (128, n) arrays: 0.5 MB each at n=506
_BLOCK_SWAPS = 128


def ltr_stability_bound(*, m: int, u: int, C: float, C_prime: float = 0.0,
                        kappa: float = 1.0, M: float = 1.0, beta_loc: float = 0.0) -> float:
    """Cost stability of the kernel least-squares solution.

    With A = 1 + kappa * sqrt(C + C') the coefficient is

        2 (A M)^2 kappa^2 * [ C/m + C'/u
            + sqrt( (C/m + C'/u)^2 + 2 C' beta_loc / (A M kappa^2 u) ) ].

    With C' = 0 and beta_loc = 0 this collapses to 4 C (A M)^2 kappa^2 / m.
    Without pseudo-targets, ``C_prime`` and ``beta_loc`` stay at their
    defaults.  +inf when (A M)^2 exceeds the float range.
    """
    m, u = int(m), int(u)
    if m < 1 or u < 1:
        raise InvalidStabilityInput("m and u must be at least 1")
    C, Cp, kappa, M, beta_loc = (float(v) for v in (C, C_prime, kappa, M, beta_loc))
    for name, val in (("C", C), ("C_prime", Cp), ("kappa", kappa), ("M", M),
                      ("beta_loc", beta_loc)):
        if val < 0:
            raise InvalidStabilityInput(f"{name} must be non-negative")
    if not (kappa > 0 and M > 0):
        raise InvalidStabilityInput("kappa and M must be positive")
    a_const = 1.0 + kappa * math.sqrt(C + Cp)
    lin = C / m + Cp / u
    rad = lin * lin + 2.0 * Cp * beta_loc / (a_const * M * kappa * kappa * u)
    try:
        return 2.0 * (a_const * M) ** 2 * kappa * kappa * (lin + math.sqrt(rad))
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def unconstrained_score_bound(
    q_min: float,
    q_max: float,
    c_max: float,
    cp_max: float,
    delta_y_norm: float,
    yprime_norm: float,
    Cinv_diff_norm: float,
) -> float:
    """Generic swap score bound for the unconstrained quadratic family.

    ``||h - h'||_inf <= ||y - y'|| / (lam_m(Q)/lam_M(C) + 1)
       + lam_M(Q) ||C'^{-1} - C^{-1}|| ||y'|| /
         ((lam_m(Q)/lam_M(C') + 1) (lam_m(Q)/lam_M(C) + 1))``,

    with ``q_min``, ``q_max`` the extreme eigenvalues of Q and ``c_max``,
    ``cp_max`` the largest of C and of C'.
    """
    for name, val in (
        ("delta_y_norm", delta_y_norm),
        ("yprime_norm", yprime_norm),
        ("Cinv_diff_norm", Cinv_diff_norm),
    ):
        if float(val) < 0:
            raise InvalidStabilityInput(f"{name} must be non-negative")
    if not (c_max > 0 and cp_max > 0):
        raise InvalidStabilityInput("C and C' must be positive definite")
    lam_m_q = max(float(q_min), 0.0)
    d1 = lam_m_q / float(c_max) + 1.0
    d2 = lam_m_q / float(cp_max) + 1.0
    lead = float(delta_y_norm) / d1
    cross = float(q_max) * float(Cinv_diff_norm) * float(yprime_norm) / (d2 * d1)
    return lead + cross


def cm_score_bound(M: float) -> float:
    """Score stability of CM smoothing: sqrt(2) * M (weights unchanged by swaps)."""
    M = float(M)
    if M < 0:
        raise InvalidStabilityInput("M must be non-negative")
    return math.sqrt(2.0) * M


def llreg_score_bound(M: float, m: int, C_min: float, C_max: float) -> float:
    """Score stability of LL-Reg: sqrt(2) M + 4 sqrt(2 m) M (1/C_min - 1/C_max)."""
    return _llreg_bound(M, m, C_min, C_max, 2.0)


def llreg_score_bound_spectral(M: float, m: int, C_min: float, C_max: float) -> float:
    """LL-Reg score bound with the sharper spectral norm of the weight change.

    The diagonal weight matrix moves in exactly two entries, so its inverse
    difference has spectral norm (1/C_min - 1/C_max) without the sqrt(2).
    """
    return _llreg_bound(M, m, C_min, C_max, 1.0)


def _llreg_bound(M: float, m: int, C_min: float, C_max: float, factor: float) -> float:
    """sqrt(2) M + 4 sqrt(factor m) M (1/C_min - 1/C_max), with its inputs checked."""
    M = float(M)
    m = int(m)
    if M < 0 or m < 1:
        raise InvalidStabilityInput("M must be non-negative and m >= 1")
    if not (0 < float(C_min) <= float(C_max)):
        raise InvalidStabilityInput("need 0 < C_min <= C_max")
    gap = 1.0 / float(C_min) - 1.0 / float(C_max)
    return math.sqrt(2.0) * M + 4.0 * math.sqrt(factor * m) * M * gap


def belkin_score_stability(M: float, m: int, C: float, lambda2: float) -> float:
    """Stability coefficient of the constrained Laplacian regularizer.

    Valid when m * lambda2 / C > 1; with d = m * lambda2 / C - 1 the value is
    ``4 sqrt(2) M^2 / d + 4 sqrt(2 m) M^2 / d^2``.  This is the cost-type
    coefficient used inside the generalization bound (the underlying sup-norm
    score movement is the same expression divided by 4 M).

    Raises:
        BoundDiverges: when m * lambda2 / C <= 1.
    """
    M = float(M)
    m = int(m)
    C = float(C)
    lambda2 = float(lambda2)
    if M < 0 or m < 1 or C <= 0 or lambda2 < 0:
        raise InvalidStabilityInput("need M >= 0, m >= 1, C > 0, lambda2 >= 0")
    d = m * lambda2 / C - 1.0
    if d <= 0:
        raise BoundDiverges(f"m * lambda2 / C = {m * lambda2 / C} must exceed 1")
    return 4.0 * math.sqrt(2.0) * M * M / d + 4.0 * math.sqrt(2.0 * m) * M * M / (d * d)


def belkin_cost_stability(C: float, M: float, m: int, lambda2: float, rho_G: int) -> float:
    """Cost stability (4 C M^2 / m) * min(1 / lambda2, rho_G).

    ``rho_G`` is the hop diameter of the graph (at least 1 on a connected
    graph with an edge).

    Raises:
        GraphDisconnected: lambda2 <= 0 leaves 1/lambda2 undefined.
    """
    C = float(C)
    M = float(M)
    m = int(m)
    rho = int(rho_G)
    if C < 0 or M < 0 or m < 1:
        raise InvalidStabilityInput("need C >= 0, M >= 0, m >= 1")
    if rho < 1:
        raise InvalidStabilityInput("rho_G must be at least 1")
    if float(lambda2) <= 0:
        raise GraphDisconnected("lambda2 must be positive (connected graph)")
    return (4.0 * C * M * M / m) * min(1.0 / float(lambda2), float(rho))


def beta_loc_bound(M: float, m_r: int, alpha_max: float, alpha_min: float) -> float:
    """Generic pseudo-target swap stability: 4 alpha_max M / (alpha_min m_r)."""
    M = float(M)
    if M < 0:
        raise InvalidStabilityInput("M must be non-negative")
    if int(m_r) < 1:
        raise EmptyNeighborhood("no labeled point inside the radius")
    if not (0 < float(alpha_min) <= float(alpha_max)):
        raise InvalidStabilityInput("need 0 < alpha_min <= alpha_max")
    return 4.0 * float(alpha_max) * M / (float(alpha_min) * int(m_r))


def beta_loc_gaussian(M: float, m_r: int, r: float, sigma: float) -> float:
    """Gaussian-weighted pseudo-target stability: 4 M / (m_r e^{-2 r^2 / sigma^2}).

    +inf when e^{2 r^2 / sigma^2} overflows a float, as for an empty
    neighbourhood.
    """
    M = float(M)
    r = float(r)
    if M < 0 or r < 0:
        raise InvalidStabilityInput("M and r must be non-negative")
    if not float(sigma) > 0:
        raise InvalidStabilityInput("sigma must be positive")
    if int(m_r) < 1:
        raise EmptyNeighborhood("no labeled point inside the radius")
    try:
        return 4.0 * M * math.exp(2.0 * r * r / (float(sigma) ** 2)) / int(m_r)
    except OverflowError:  # the weight ratio exceeds the float range: unbounded
        return math.inf


def beta_loc_invdist(M: float, m_r: int, r: float) -> float:
    """Inverse-distance-weighted pseudo-target stability: (2r + 1) 2 M / m_r."""
    M = float(M)
    r = float(r)
    if M < 0 or r < 0:
        raise InvalidStabilityInput("M and r must be non-negative")
    if int(m_r) < 1:
        raise EmptyNeighborhood("no labeled point inside the radius")
    return (2.0 * r + 1.0) * 2.0 * M / int(m_r)


@dataclass(frozen=True)
class EmpiricalStabilityReport:
    """Worst observed swap perturbation over the evaluated swaps.

    ``mode`` records coverage: "exhaustive" (every m*u swap), "sampled"
    (seeded subset of the full swap set) or "custom" (caller-provided swaps).
    ``swaps_total`` is m*u, the number of swaps of the partition.
    ``worst_swap`` is ``{"removed": i, "added": j}``, the first evaluated swap
    with the largest score movement.
    """

    max_score_delta: float
    max_cost_delta: float
    worst_swap: dict
    swaps_evaluated: int
    swaps_total: int
    mode: str


def _default_swaps(part: Partition, seed: int) -> tuple[tuple[np.ndarray, np.ndarray], str]:
    """All swaps, or a seeded subset of ``SWAP_BUDGET`` in ``enumerate_swaps`` order.

    Swap k of that order exchanges ``train_idx[k // u]`` with ``test_idx[k % u]``,
    so only the sampled k are mapped to index pairs.
    """
    total = part.m * part.u
    if total <= SWAP_BUDGET:
        return enumerate_swaps(part), "exhaustive"
    keys = _kernels.partition_keys(seed, total)
    chosen = _kernels.smallest_mask(keys, SWAP_BUDGET).nonzero()[0]
    removed, added = np.divmod(chosen, part.u)
    return (part.train_idx[removed], part.test_idx[added]), "sampled"


def empirical_stability(
    solver: Callable[[FullSample, Partition], np.ndarray],
    sample: FullSample,
    part: Partition,
    swaps: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int = 0,
    *,
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> EmpiricalStabilityReport:
    """Measure worst-case score and cost movement under S/T swaps.

    Args:
        solver: closure mapping (sample, partition) to the (n,) scores.
        sample: the fixed full sample.
        part: base partition; each swap is evaluated on the swapped partition.
        swaps: ``(removed, added)``, two index arrays of equal length, swap k
            exchanging removed[k] (labeled) with added[k] (unlabeled), as
            ``enumerate_swaps`` gives them; None evaluates all m*u swaps
            when there are at most ``SWAP_BUDGET``, else a seeded subset of
            that size.  A swap whose indices are not on the sides it names
            raises ``apply_swap``'s ValueError, after the swaps before it.
        seed: seed for the sampled-subset mode.
        batch: ``batch(removed, added)`` giving the (k, n) scores of k swaps
            of ``part`` at once, one row per swap, e.g. an engine from
            ``stabreg.swaps``.  Without it the solver runs from scratch on
            every swapped partition; either way the solver gives the base
            scores.  Swaps go in blocks of 128, so memory does not grow
            with the swap count.
    """
    if swaps is None:
        (removed, added), mode = _default_swaps(part, seed)
        stop = removed.size
    else:
        removed, added = (np.asarray(a, dtype=np.int64).ravel() for a in swaps)
        if removed.size != added.size:
            raise InvalidStabilityInput("removed and added must have the same length")
        # m*u valid swaps are all of them only when no swap repeats
        every = (removed.size == part.m * part.u
                 and np.unique(removed * sample.n + added).size == removed.size)
        mode = "exhaustive" if every else "custom"
        valid = np.isin(removed, part.train_idx) & np.isin(added, part.test_idx)
        stop = removed.size if valid.all() else int(np.argmin(valid))
    if not removed.size:
        raise InvalidStabilityInput("no swaps to evaluate")
    base = solver(sample, part)
    base_cost = (base - sample.targets) ** 2
    if batch is None:  # the reference: every swapped partition solved from scratch
        def batch(i, j):
            return np.vstack([solver(sample, apply_swap(part, a, b)) for a, b in zip(i, j)])
    max_score = -1.0
    max_cost = 0.0
    worst = 0
    for start in range(0, stop, _BLOCK_SWAPS):
        end = min(start + _BLOCK_SWAPS, stop)
        scores = batch(removed[start:end], added[start:end])
        score_delta = np.max(np.abs(scores - base), axis=1)
        cost = (scores - sample.targets) ** 2
        cost_delta = np.max(np.abs(cost - base_cost), axis=1)
        # as a swap-by-swap scan: the first of equal maxima wins, a NaN never does
        score_delta[np.isnan(score_delta)] = -1.0
        k = int(np.argmax(score_delta))
        if score_delta[k] > max_score:
            max_score = float(score_delta[k])
            worst = start + k
        max_cost = max(max_cost, float(np.max(cost_delta, initial=0.0,
                                              where=~np.isnan(cost_delta))))
    if stop < removed.size:
        apply_swap(part, removed[stop], added[stop])  # raises for the invalid swap
    return EmpiricalStabilityReport(
        max_score_delta=max_score,
        max_cost_delta=max_cost,
        worst_swap={"removed": int(removed[worst]), "added": int(added[worst])},
        swaps_evaluated=removed.size,
        swaps_total=part.m * part.u,
        mode=mode,
    )


def cm_lower_bound_instance(m: int, C: float) -> tuple[np.ndarray, Partition, float]:
    """Worst-case CM instance: two complete-graph blocks, labels 0 on S and 1 on T.

    The quadratic form is block-diagonal with two m x m blocks having unit
    diagonal and off-diagonal -1/(m-1); every point has weight C.
    Exchanging the last labeled point (index m-1) with the first unlabeled
    point (index m) moves the score at the swapped-in index by exactly

        predicted_a = 1/m + ((m-1) C / m) / (C + m/(m-1)),

    which stays at least C / (2 (C + 1)) for every m >= 2.

    Returns:
        (Q, partition, predicted_a); the base labels on S are all zero.
    """
    m = int(m)
    if m < 2:
        raise InvalidInstance("the construction needs m >= 2")
    C = float(C)
    if not 0 < C < math.inf:
        raise InvalidInstance("C must be positive and finite")
    block = (m / (m - 1.0)) * (np.eye(m) - np.full((m, m), 1.0 / m))
    q = np.zeros((2 * m, 2 * m))
    q[:m, :m] = block
    q[m:, m:] = block
    q = 0.5 * (q + q.T)
    part = Partition(
        train_idx=np.arange(m), test_idx=np.arange(m, 2 * m), seed=0
    )
    predicted_a = 1.0 / m + ((m - 1.0) * C / m) / (C + m / (m - 1.0))
    return q, part, predicted_a


def cm_lower_bound_demo(m: int, C: float) -> dict:
    """Solve the worst-case instance before/after the designated swap.

    Returns a dict with the predicted movement, the measured movement at the
    swapped-in index, and the universal floor C / (2 (C + 1)).
    """
    q, part, predicted_a = cm_lower_bound_instance(m, C)
    m = int(m)
    removed, added = m - 1, m
    system = QuadraticSystem(q)
    weights = np.full(2 * m, float(C))
    base = system.solve(weights, np.zeros(2 * m))
    y_swapped = np.zeros(2 * m)
    y_swapped[added] = 1.0  # the swapped-in point carries its true label
    moved = system.solve(weights, y_swapped)
    measured = float(abs(moved[added] - base[added]))
    return {
        "m": m,
        "C": float(C),
        "removed": removed,
        "added": added,
        "predicted_a": predicted_a,
        "measured_delta": measured,
        "floor": float(C) / (2.0 * (float(C) + 1.0)),
    }
