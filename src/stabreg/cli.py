"""Command-line front end: data loading, experiment protocol, verification.

Subcommands
-----------
run             partitioned experiment for one algorithm; JSON/CSV report.
select-radius   bound-driven radius selection for the local estimator.
stability       theoretical (and optionally empirical) stability coefficients.
bound           evaluate the generalization bound from explicit scalars.
lowerbound-demo solve the worst-case instance and compare with the prediction.
verify          run the self-check suite (fast or full).
emit-plot       aggregate a sweep report into plot-ready CSV.

Input data is a headered CSV (UTF-8, '.' decimal): feature columns first,
target last.  Features are normalized to zero mean and unit variance;
constant columns are dropped with a warning.  Graphs may be supplied as
1-based ``i j w`` edge lists.

Randomness: all draws use the SplitMix64 counter scheme — index k of seed s
receives key ``mix64(mix64(s) + (k+1) * 0x9E3779B97F4A7C15)`` in uint64
arithmetic, and a subset of size m is the m smallest keys.  Partition i of a
run derives its seed the same way from the master seed, so every report is
reproducible from the seed alone, on any platform.  Exit status: 0 success,
1 check/computation failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import __version__
from ._kernels import partition_keys
from .bounds import generalization_bound
from .core import (
    FullSample,
    Partition,
    empirical_error,
    sample_partition,
    score_to_cost_stability,
    stat_without_overflow,
    test_error,
)
from .errors import (
    NoFeasibleRadius,
    NoSweepData,
    ParseError,
    PseudoTargetUnavailable,
    StabregError,
    ZeroVarianceFeature,
)
from .graph import (
    GraphSpec,
    gaussian_affinity,
    load_edge_list,
    parse_text,
    spectrum,
    sq_distances,
)
from .regressors import (
    KernelSystem,
    LocalEstimatorConfig,
    QuadraticSystem,
    graph_quadratic,
    pseudo_targets,
    pseudo_targets_by_radius,
)
from .stability import (
    belkin_cost_stability,
    beta_loc_gaussian,
    beta_loc_invdist,
    cm_lower_bound_demo,
    cm_score_bound,
    empirical_stability,
    llreg_score_bound,
    llreg_score_bound_spectral,
    ltr_stability_bound,
    unconstrained_score_bound,
)

__all__ = [
    "ExperimentConfig",
    "load_and_normalize",
    "m_of_r",
    "select_radius",
    "run_experiment",
    "verify_suite",
    "emit_plot_data",
    "build_parser",
    "main",
]

_SIGMA_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
_CV_FOLDS = 5


# ---------------------------------------------------------------------------
# data loading


def load_and_normalize(path, target_scale: float = 1.0) -> FullSample:
    """Read a headered CSV, normalize features, scale the target.

    The last column is the target; every other column is a feature.  Features
    are centered to mean 0 and scaled to variance 1 (population convention);
    constant columns are dropped with a ZeroVarianceFeature warning.  A
    UTF-8 byte-order mark is skipped.  The cells are read by numpy's C
    reader (``parse_text``), ``"``-quoted or not, in its grammar only: no
    ``_`` digit separators or non-ASCII digits.  A file it rejects, or one
    that fails a check, is walked record by record to name its first bad
    record, and there its first bad cell.

    Raises:
        ParseError: non-numeric or non-finite cell, or ragged row (1-based
            row/column; the header is row 1, and blank lines count).
        ValueError: a non-finite ``target_scale``, or scaled targets so large
            that the square of a difference of two values within the label
            bound M, (2 M)^2, exceeds the float range.
    """
    if not math.isfinite(target_scale):
        raise ValueError(f"--target-scale {target_scale!r} must be finite")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = next(csv.reader(fh), [])
        data = parse_text(fh, np.float64, ",", '"')
    if not (len(header) >= 2 and data is not None and data.shape[0] >= 2
            and data.shape[1] == len(header) and np.isfinite(data).all()):
        raise _csv_error(path)
    features = data[:, :-1]
    with np.errstate(over="ignore"):
        target = data[:, -1] * float(target_scale)
    m_bound = float(np.max(np.abs(target), initial=0.0))
    if not math.isfinite(4.0 * m_bound * m_bound):
        raise ValueError(f"--target-scale {target_scale!r} is too large: the largest scaled "
                         f"target {m_bound!r} overflows when a residual is squared")
    constant = (features == features[0]).all(axis=0)
    for j in np.flatnonzero(constant):
        warnings.warn(f"dropping constant feature column {header[j]!r} (index {j})",
                      ZeroVarianceFeature, stacklevel=2)
    if constant.all():
        raise ValueError("all feature columns are constant")
    feats = features[:, ~constant]
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    return FullSample(points=feats, targets=target, label_bound_M=m_bound or 1.0)


def _csv_error(path) -> ParseError:
    """The ParseError of the first bad record of a CSV that ``load_and_normalize`` rejects.

    Each cell is read by ``parse_text`` on its own; a blank record counts as
    a row and holds no data.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = csv.reader(fh)
        header = next(records, None)
        if header is None:
            return ParseError(1, 0, "empty file")
        if len(header) < 2:
            return ParseError(1, 0, "need at least one feature column and a target")
        rows = 0
        for row, cells in enumerate(records, 2):
            if cells and len(cells) != len(header):
                return ParseError(row, 0, f"expected {len(header)} fields, got {len(cells)}")
            for col, cell in enumerate(cells, 1):
                value = parse_text([cell], np.float64)
                if value is None or value.shape != (1, 1):
                    return ParseError(row, col, f"non-numeric cell {cell!r}")
                if not np.isfinite(value).all():
                    return ParseError(row, col, f"non-finite cell {cell!r}")
            rows += bool(cells)
    return ParseError(rows + 1, 0, "need at least 2 data rows")


def m_of_r(sample: FullSample, part: Partition, r: float) -> int:
    """Number of labeled points within Euclidean norm r of the origin.

    With normalized features the origin is the sample centroid, so this is
    the labeled mass of the central radius-r ball.
    """
    if float(r) < 0:
        raise ValueError("r must be non-negative")
    norms = np.linalg.norm(sample.points[part.train_idx], axis=1)
    return int(np.count_nonzero(norms <= float(r)))


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a partitioned experiment needs; echoed into the report."""

    data_path: str
    algorithm: str = "krr"
    target_scale: float = 1.0
    m_fraction: float = 0.5
    partitions: int = 1
    seed: int = 0
    C: float = 1.0
    C_prime: float = 0.0
    mu: float = 1.0
    C_l: float = 1.0
    C_u: float = 1.0
    sigma: float | str = "cv"
    radius_grid: tuple[float, ...] = ()
    delta: float = 0.05
    weighting: str = "gaussian"
    fallback: str = "zero"
    graph_path: str | None = None
    jobs: int = 1
    output_path: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < float(self.m_fraction) < 1.0:
            raise ValueError("m_fraction must lie strictly between 0 and 1")
        if int(self.partitions) < 1:
            raise ValueError("partitions must be at least 1")
        if int(self.jobs) < 1:
            raise ValueError("jobs must be at least 1")
        for name in ("C", "C_prime", "mu", "C_l", "C_u"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("C", "C_prime"):
            if float(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < float(self.delta) <= 1.0:
            raise ValueError(f"delta={self.delta} outside (0, 1]")
        grid = tuple(float(r) for r in self.radius_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("radius_grid must be strictly increasing")
        if not all(0.0 <= r < math.inf for r in grid):
            raise ValueError("radii must be finite and non-negative")
        if self.algorithm == "ltr" and not grid:
            raise ValueError("algorithm 'ltr' needs at least one radius")
        if isinstance(self.sigma, str):
            if self.sigma not in ("cv", "median"):
                raise ValueError("sigma must be a positive number, 'cv' or 'median'")
        elif not 0.0 < float(self.sigma) < math.inf:
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "radius_grid", grid)

    def as_dict(self) -> dict:
        return {**asdict(self), "radius_grid": list(self.radius_grid)}


def derive_seed(master: int, index: int) -> int:
    """Seed of partition ``index``: key ``index`` of the master seed's key stream."""
    return int(partition_keys(master, index + 1)[index])


# ---------------------------------------------------------------------------
# sigma resolution


def _median_pairwise_distance(d2: np.ndarray) -> float:
    """Median distance over the pairs of a squared-distance matrix; 1 if it is 0."""
    upper = d2[~np.tri(d2.shape[0], dtype=bool)]  # above the diagonal, row by row
    med = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    return med if med > 0 else 1.0


def _cv_sigma(sample: FullSample, part: Partition, C: float) -> float:
    """Pick sigma by 5-fold ridge cross-validation on the labeled points.

    The labeled squared distances are computed once.  The folds are
    contiguous, so each fold's kernel and cross-kernel are slices of the
    labeled Gaussian kernel at that sigma, and the folds that leave the same
    number of points to fit are solved together, in one stacked solve.

    The labels are first scaled by the power of two 2^-e that brings the
    largest into [0.5, 1).  Every rounded operation of a score commutes with
    that scaling, so each score is exactly 4^-e times the unscaled one (short
    of subnormal labels) and the argmin is the same, but no sum of squares
    overflows at a target scale the loader accepts.

    The grid is walked from the largest sigma down.  Before a point's folds
    are factored, ``_cv_score_floor`` gives a certified lower bound on the
    score its factored folds would produce; a point whose bound exceeds the
    best score computed so far could not win and is skipped.  Every other
    point is scored exactly as before, ties go to the smaller sigma, and a
    singular fold rules its sigma out, so the chosen sigma is bit for bit
    the one of the full grid.
    """
    xs = sample.points[part.train_idx]
    ys = sample.targets[part.train_idx]
    ys = np.ldexp(ys, -int(np.frexp(np.max(np.abs(ys), initial=0.0))[1]))
    d2 = sq_distances(xs)
    med = _median_pairwise_distance(d2)
    n = xs.shape[0]
    folds = [(int(f[0]), int(f[-1]) + 1)  # [start, end) of each fold
             for f in np.array_split(np.arange(n), min(_CV_FOLDS, n)) if 0 < f.size < n]
    if not folds:
        return med  # fewer than two points: nothing to validate on
    groups: dict[int, list] = {}  # fit size: the folds that leave it
    for lo, hi in folds:
        groups.setdefault(n - (hi - lo), []).append((lo, hi))
    # per fit size: its folds, their fit-by-fit blocks (filled per sigma) and fit labels
    stacks = [(group, np.empty((len(group), size, size)),
               np.stack([np.delete(ys, np.s_[lo:hi]) for lo, hi in group])[..., None])
              for size, group in groups.items()]
    floor = _cv_score_floor(xs, ys, folds, C)
    best = (math.inf, med)
    kern = np.empty_like(d2)
    for factor in reversed(_SIGMA_GRID):
        sig = factor * med
        # exp(-d2 / (2 sig^2)), in one buffer for every sigma
        np.exp(np.divide(d2, -2.0 * sig * sig, out=kern), out=kern)
        if best[0] < math.inf and floor(kern, sig, best[0]) > best[0]:
            continue  # certified to score above the best: it cannot win
        coefs = {}
        try:
            for group, reg, rhs in stacks:
                for block, (lo, hi) in zip(reg, group):  # kern without the fold's rows and columns
                    block[:lo, :lo], block[:lo, lo:] = kern[:lo, :lo], kern[:lo, hi:]
                    block[lo:, :lo], block[lo:, lo:] = kern[hi:, :lo], kern[hi:, hi:]
                    block.flat[:: len(block) + 1] += len(block) / max(C, 1e-12)
                coefs.update(zip(group, np.linalg.solve(reg, rhs)[..., 0]))
        except np.linalg.LinAlgError:
            continue  # a singular fold: this sigma's error is infinite
        err = 0.0
        for lo, hi in folds:
            pred = np.delete(kern[lo:hi], np.s_[lo:hi], axis=1) @ coefs[lo, hi]
            err += float(np.sum((pred - ys[lo:hi]) ** 2))
        score = err / n  # the folds cover all n points
        if score < best[0] or score == best[0] != math.inf:  # a tie goes to the smaller sigma
            best = (score, sig)
    return best[1]


# Neumann terms the CV score floor tries at most per grid point
_CV_TERMS = 8


def _cv_score_floor(xs: np.ndarray, ys: np.ndarray, folds: list, C: float):
    """``floor(kern, sig, best)``: a certified lower bound on ``_cv_sigma``'s score at sigma.

    ``kern`` is the labeled kernel at ``sig``.  The bound covers every fold
    at once, as products of ``kern`` with n x F arrays whose column f is
    zero on fold f's rows.  For fold f, with fit points r (s of them) and
    ridge lam = s / max(C, 1e-12), the exact coefficients solve
    (K_rr + lam I) a = y_r, and the fold's squared error is
    sum_i (y_i - K_ir a)^2 over its points i.

    Assumptions.  The Gaussian kernel K of the points is PSD.  The computed
    one differs from it by at most mu = n eps (2.1 (d + 4) max|x|^2 /
    (2 sig^2) + 6) in 2-norm (eps = 2^-52, twice the unit roundoff of
    Higham's bounds; d features): a squared distance
    is off by at most 2.02 (d + 2) eps max|x|^2, which moves an entry by
    that over 2 sig^2, plus a few ulps of rounding in the division and in
    exp, summed over a row.  So the spectrum of the computed K_rr lies in
    [-mu, rho], with rho = min(largest row sum, Frobenius norm) of the block
    (its entries are non-negative and it is symmetric), and
    ||(K_rr + lam I)^-1|| <= 1/(lam - mu).

    Bound.  With k Neumann terms a_k = sum_{j<k} t_j, t_j = (-K_rr/lam)^j y_r
    / lam, the error a - a_k = (-K_rr/lam)^k a has norm at most
    ||y_r|| ((rho/lam)^k / (rho + lam) + (mu/lam)^k / (lam - mu)) (maximize
    |t/lam|^k / (t + lam) over the spectrum; k = 0 gives ||y_r|| / (lam -
    mu)), and at most lam ||t_k|| / (lam - mu), since the residual
    y_r - (K_rr + lam I) a_k is lam t_k.  Call the smaller e.  Then
    |y_i - K_ir a| >= |y_i - K_ir a_k| - ||K_ir|| e, and the fold's error is
    at least sum_i max(0, |y_i - K_ir a_k| - ||K_ir|| e)^2.  k = 0 (a_k = 0)
    is tried first; terms are added only while rho < lam for every fold, up
    to ``_CV_TERMS``, and each fold keeps its best k.  They stop once the
    floor exceeds ``best``, or once the ceiling sum_i (|y_i - K_ir a_k| +
    ||K_ir|| e)^2 / n, less the margin below, shows that it cannot.

    Rounding.  The computed a_k, t_k and K_ir a_k are within
    3 (k + 1)^2 (n + 3) eps ||y_r|| / (lam - mu) of their exact values, which
    is added to e; norms are rounded up and sums down.  The score that the
    factored folds would give differs from the exact one as follows.  When
    K_rr + lam I is diagonally dominant (max row sum of K_rr <= 2 + lam, as
    K_ii = 1), LU with partial pivoting makes no interchange and has growth
    factor at most 2, so the solve is backward stable with ||dA|| <= c ||A||,
    c = 4 s^3 eps (Higham, Thm. 9.4).  With kappa = (rho + lam) / (lam - mu)
    and c kappa <= 1/4, each prediction is then off by at most tau ||K_ir||
    ||y_r|| / (lam - mu), tau = 2 c kappa + 2 s eps, and its squared residual
    by at most 3 tau b_i^2, b_i = |y_i| + ||K_ir|| ||y_r|| / (lam - mu).
    The floor is the bound, shrunk by 4 (n + 4) eps for the rounding of the
    sums, less sum_i 3 tau b_i^2 / n.  Without dominance, or with lam <= 2 mu,
    no floor is certified and the floor is -inf.
    """
    n, eps = ys.size, np.finfo(np.float64).eps
    fit = np.ones((n, len(folds)))
    for f, (lo, hi) in enumerate(folds):
        fit[lo:hi, f] = 0.0
    fold_of = np.repeat(np.arange(len(folds)), [hi - lo for lo, hi in folds])
    own = (np.arange(n), fold_of)  # each point's entry in its own fold's column
    s = fit.sum(axis=0)
    lam = s / max(C, 1e-12)
    y_fit = ys[:, None] * fit
    y_norm = np.sqrt(np.sum(y_fit * y_fit, axis=0)) * (1 + (n + 2) * eps)
    x_sq = float(np.max(np.sum(xs * xs, axis=1), initial=0.0))
    c = 4.0 * s ** 3 * eps
    up, down = 1 + 4 * (n + 4) * eps, 1 - 4 * (n + 4) * eps

    def fold_errors(pred, e: np.ndarray, row_norm: np.ndarray) -> tuple[np.ndarray, float]:
        """Each fold's error floor, and (unrounded) the score's ceiling."""
        miss, slack = np.abs(ys - pred), row_norm * (e * up)[fold_of]
        gap = np.maximum(miss - slack, 0.0)
        ceiling = float(np.sum((miss + slack) ** 2)) / n
        return np.bincount(fold_of, weights=gap * gap, minlength=len(folds)), ceiling

    def floor(kern: np.ndarray, sig: float, best: float) -> float:
        two_sq = 2.0 * sig * sig
        spread = n * eps * (2.1 * (xs.shape[1] + 4) * x_sq + 6.0 * two_sq)  # mu 2 sig^2
        if not np.all(lam * two_sq > 2.0 * spread):
            return -math.inf
        mu = spread / two_sq
        row_max = np.max((kern @ fit) * fit, axis=0) * up  # each block's largest row sum
        if not np.all(row_max < (2.0 + lam) * (1 - 4 * eps)):
            return -math.inf
        # squared row norms over all columns and over the row's own fold; the
        # fit block of fold f sums to (its rows' full sums) - (fold f's rows'
        # sums off the fold), by symmetry; each rounding error is added back
        full = np.einsum("ij,ij->i", kern, kern)
        inner = np.empty(n)
        for lo, hi in folds:
            inner[lo:hi] = np.einsum("ij,ij->i", kern[lo:hi, lo:hi], kern[lo:hi, lo:hi])
        slop = 4.0 * (n + 4) * eps
        row_norm = np.sqrt(full - inner + slop * full) * up  # ||K_ir|| against the point's fit set
        frob_sq = (full @ fit - np.bincount(fold_of, weights=full - inner, minlength=len(folds))
                   + slop * float(np.sum(full)))
        rho = np.minimum(row_max, np.sqrt(frob_sq) * up)
        lam_mu = lam - mu
        kappa = (rho + lam) / lam_mu
        if np.any(c * kappa > 0.25):
            return -math.inf
        reach = y_norm / lam_mu  # >= ||a||
        tau = 2.0 * c * kappa + 2.0 * s * eps
        b = np.abs(ys) + row_norm * reach[fold_of]
        margin = 3.0 * float(np.sum(tau[fold_of] * b * b)) / n

        lower, ceiling = fold_errors(0.0, reach, row_norm)  # k = 0
        value = float(np.sum(lower)) / n * down - margin
        if value > best or ceiling - margin <= best or np.max(rho / lam) >= 1.0:
            return value
        t, pred = y_fit / lam, np.zeros(n)
        for k in range(1, _CV_TERMS + 1):
            prod = kern @ t
            pred += prod[own]
            t = prod / -lam * fit
            a_priori = y_norm * ((rho / lam) ** k / (rho + lam) + (mu / lam) ** k / lam_mu)
            a_posteriori = lam * np.sqrt(np.sum(t * t, axis=0)) / lam_mu
            e = np.minimum(a_priori, a_posteriori) + 3 * (k + 1) ** 2 * (n + 3) * eps * reach
            errors, ceiling = fold_errors(pred, e, row_norm)
            lower = np.maximum(lower, errors)
            value = float(np.sum(lower)) / n * down - margin
            if value > best or ceiling - margin <= best:
                break
        return value

    return floor


def _resolve_sigma(sample: FullSample, part: Partition, cfg: ExperimentConfig) -> float:
    if isinstance(cfg.sigma, str):
        if cfg.sigma == "cv" and cfg.algorithm in _KERNEL_ALGORITHMS:
            return _cv_sigma(sample, part, cfg.C)
        return _median_pairwise_distance(sq_distances(sample.points[part.train_idx]))
    return float(cfg.sigma)


# ---------------------------------------------------------------------------
# algorithm table
#
# One entry per algorithm.  An entry sets the algorithm up on one partition,
# given the partition's resolved sigma and the kernel system of its Gaussian
# kernel (ltr, krr) or its graph (every other algorithm), and returns a Fit.
# ``run``, ``stability`` and ``select-radius`` all read this table, so each
# algorithm's solver, stability coefficient and residual bound are written once.


@dataclass(frozen=True)
class Fit:
    """One algorithm set up on one partition.

    ``solve(sample, part)`` fits the algorithm on any partition of the sample.
    ``swap_engine()`` builds, on demand, the ``stabreg.swaps`` engine that
    ``stability --empirical`` evaluates: the scores of the swaps of the
    partition the fit was set up on, from one factorization.
    ``beta`` is the cost stability coefficient and ``B`` the residual bound
    on that partition.  ``run_fields`` and ``stability_fields`` are the extra
    values ``run`` and ``stability`` report; ``h`` holds scores already
    computed on that partition, if any.
    """

    solve: Callable[[FullSample, Partition], np.ndarray]
    swap_engine: Callable[[], Callable[[np.ndarray, np.ndarray], np.ndarray]]
    beta: float
    B: float
    run_fields: dict = field(default_factory=dict)
    stability_fields: dict = field(default_factory=dict)
    h: np.ndarray | None = None


def _swaps():
    """``stabreg.swaps``, imported on first use: run and select-radius never compile it."""
    from . import swaps

    return swaps


def _kernel_fit(solve, swap_engine, part: Partition, cfg: ExperimentConfig, M: float,
                C_prime: float, beta_loc: float = 0.0, **fields) -> Fit:
    """Kernel least squares: the LTR coefficient and B = M (1 + sqrt(C + C'))."""
    beta = math.inf  # an empty neighborhood leaves beta_loc, and so beta, unbounded
    if math.isfinite(beta_loc):
        beta = ltr_stability_bound(m=part.m, u=part.u, C=cfg.C, C_prime=C_prime, kappa=1.0,
                                   M=M, beta_loc=beta_loc)
    return Fit(solve, swap_engine, beta, M * (1.0 + math.sqrt(cfg.C + C_prime)), **fields)


def _krr(sample: FullSample, part: Partition, cfg: ExperimentConfig,
         sigma: float, system: KernelSystem) -> Fit:
    """Kernel ridge regression on the labeled points (LTR with C' = 0)."""

    def solve(s: FullSample, p: Partition) -> np.ndarray:
        return system.solve(p, s.targets[p.train_idx], np.zeros(0), cfg.C, 0.0)

    return _kernel_fit(solve, lambda: _swaps().kernel(system, sample, part, cfg.C, 0.0),
                       part, cfg, sample.label_bound_M, 0.0)


def _local_estimator(cfg: ExperimentConfig, sigma: float, r: float) -> LocalEstimatorConfig:
    return LocalEstimatorConfig(
        radius_r=r, weighting=cfg.weighting, sigma=sigma, fallback=cfg.fallback
    )


def _ltr_at(sample: FullSample, part: Partition, cfg: ExperimentConfig,
            sigma: float, system: KernelSystem, r: float) -> Fit:
    """LTR with the local estimator at radius r on the partition's kernel system."""
    local = _local_estimator(cfg, sigma, r)

    def solve(s: FullSample, p: Partition) -> np.ndarray:
        return system.solve(p, s.targets[p.train_idx], pseudo_targets(s, p, local),
                            cfg.C, cfg.C_prime)

    def swap_engine():
        return _swaps().kernel(system, sample, part, cfg.C, cfg.C_prime, local)

    M = sample.label_bound_M
    m_r = m_of_r(sample, part, r)
    if m_r < 1:
        b_loc = math.inf
    elif cfg.weighting == "gaussian":
        b_loc = beta_loc_gaussian(M, m_r, r, sigma)
    else:
        b_loc = beta_loc_invdist(M, m_r, r)
    return _kernel_fit(solve, swap_engine, part, cfg, M, cfg.C_prime, b_loc,
                       run_fields={"r_star": r}, stability_fields={"r_star": r, "beta_loc": b_loc})


def _ltr(sample: FullSample, part: Partition, cfg: ExperimentConfig,
         sigma: float, system: KernelSystem) -> Fit:
    """LTR at the single radius given, or at the radius select_radius picks."""
    if len(cfg.radius_grid) == 1:
        return _ltr_at(sample, part, cfg, sigma, system, cfg.radius_grid[0])
    fits: dict = {}
    r_star, per_r = select_radius(sample, part, cfg, sigma, system, fits)
    fit, h = fits[r_star]
    return replace(fit, h=h, run_fields={"r_star": r_star, "per_r": per_r})


def _quadratic_fit(system: QuadraticSystem, sample: FullSample, part: Partition, c_S: float,
                   c_T: float, center_labels: bool = False) -> tuple[Callable, Callable]:
    """``solve`` and ``swap_engine`` of ``system`` weighting S by c_S and T by c_T.

    Both label S with the sample's targets; the engine is built on ``part``.
    """

    def solve(s: FullSample, p: Partition) -> np.ndarray:
        return system.solve(p.on_sides(c_S, c_T), p.on_sides(s.targets[p.train_idx]),
                            center_labels)

    return solve, lambda: _swaps().quadratic(system, sample, part, c_S, c_T, center_labels)


def _unconstrained(sample: FullSample, part: Partition, cfg: ExperimentConfig,
                   sigma: float, graph: GraphSpec) -> Fit:
    """cm, llreg, gmf and their stabilized variants.

    Q comes from the graph alone, so its system is built once; another
    partition changes only y and, for llreg and gmf, the diagonal weights.
    A stabilized variant borders the system with Q's null vector, which
    ``graph_quadratic`` gives in closed form, and reads only eigenvalues.
    """
    algo = cfg.algorithm
    family = algo.removeprefix("stabilized-")
    M, m = sample.label_bound_M, part.m
    if family == "cm":
        if not float(cfg.mu) > 0:
            raise ValueError("mu must be positive")
        c_S = c_T = float(cfg.mu)
    else:
        if not (float(cfg.C_l) > 0 and float(cfg.C_u) > 0):
            raise ValueError("C_l and C_u must be positive")
        c_S, c_T = float(cfg.C_l), float(cfg.C_u)
    q, null = graph_quadratic(family, graph)

    constraint = None
    c_min, c_max = sorted((c_S, c_T))
    if algo == "cm" or (algo == "gmf" and c_min == c_max):
        # gmf's Q is a Laplacian (lambda_min = 0) and with one weight C^{-1}
        # does not move, so the generic bound's cross term is 0 and its lead
        # term sqrt(2) M / (0 / c + 1) is cm's: no spectrum is needed
        score_beta = cm_score_bound(M)
    elif algo == "llreg":
        score_beta = llreg_score_bound(M, m, c_min, c_max)
    else:
        q_spec = graph.L_eigenvalues if family == "gmf" else spectrum(q)
        q_min = q_spec.lambda_min
        if algo != family:
            # the solve lives on the complement of Q's bottom eigenvector,
            # where Q's smallest eigenvalue is lambda2
            constraint = null
            q_min = q_spec.lambda2
        # C = C' = diag(c), with m entries c_S and u entries c_T
        score_beta = unconstrained_score_bound(
            q_min, q_spec.lambda_max, c_max, c_max,
            math.sqrt(2.0) * M,
            math.sqrt(m) * M,
            math.sqrt(2.0) * (1.0 / c_min - 1.0 / c_max),
        )
    # gmf's Q is the graph's own Laplacian, which the system need not check again
    system = QuadraticSystem(graph if family == "gmf" else q, constraint)
    solve, swap_engine = _quadratic_fit(system, sample, part, c_S, c_T)
    stability_fields = {"score_bound": score_beta}
    if family == "llreg":
        stability_fields["score_bound_spectral"] = llreg_score_bound_spectral(
            M, m, c_min, c_max
        )
    # residuals stay within M (1 + sqrt(c_max / c_min) sqrt(m))
    b_resid = M * (1.0 + math.sqrt(c_max / c_min) * math.sqrt(m))
    return Fit(solve, swap_engine, score_to_cost_stability(score_beta, b_resid), b_resid,
               run_fields={"score_beta": score_beta}, stability_fields=stability_fields)


def _laplacian(sample: FullSample, part: Partition, cfg: ExperimentConfig,
               sigma: float, graph: GraphSpec) -> Fit:
    """The sum-zero-constrained Laplacian regularizer, solved on centered labels.

    L, its eigenvalues and its hop diameter rho come from the graph alone,
    which keeps them: a fixed graph pays for them once per run.

    The solver centers the labels: with ybar the labeled mean and
    z = y - ybar, it returns h = g(S, z) + ybar 1, where g(S, z) is the
    sum-zero solution for labels z on S (linear in z).  Its residual is
    h - y = g(S, z) - z, and |z| <= 2M.  Write s = sqrt(C min(1/lambda2, rho)).

    * Residuals.  ||z_S||^2 <= ||y_S||^2 <= m M^2 (deviations from the mean
      sum to at most the sum of squares), so the argument behind the
      uncentered |g| <= M s holds for g(S, z) too, and
      |h - y| <= M s + 2M =: B.
    * Swap.  Exchanging labeled i with unlabeled j moves the labeled mean
      by delta = (y_i - y_j) / m, |delta| <= 2M / m.  Then z' = z + delta
      and, by linearity, the swapped solver returns
      h' = g(S', z) + ybar 1 + delta (g(S', 1) - 1).  The first two terms are
      the swap of the fixed label function z, |z| <= 2M, whose cost moves by
      at most belkin_cost_stability at label bound 2M.  The last term moves
      every residual by at most e = (2M / m)(1 + s), since |g(S', 1)| <= s
      (labels bounded by 1), and so every cost by at most e (2B + e):
      |r + e'|^2 - |r|^2 <= |e'| (2 |r + e'| + |e'|) with |r + e'| <= B.

    So beta = belkin_cost_stability(C, 2M, m, lambda2, rho) + e (2B + e).
    belkin_score_stability is not reported: it bounds the uncentered solver.
    """
    M, m = sample.label_bound_M, part.m
    if not float(cfg.C) > 0:  # before a bound divides by C
        raise ValueError("C must be positive")
    rho = graph.hop_diameter  # a disconnected graph fails here, before the null-space check
    system = QuadraticSystem(graph, np.ones(graph.n))
    system.check_null_space(graph.L_eigenvalues)
    solve, swap_engine = _quadratic_fit(system, sample, part, cfg.C / m, 0.0, center_labels=True)
    lam2 = graph.L_eigenvalues.lambda2
    s_root = math.sqrt(min(1.0 / lam2, float(rho)) * cfg.C)
    b_resid = M * (2.0 + s_root)
    shift = 2.0 * M / m * (1.0 + s_root)
    beta = belkin_cost_stability(cfg.C, 2.0 * M, m, lam2, rho) + shift * (2.0 * b_resid + shift)
    shared = {"lambda2": lam2, "rho_G": rho}
    return Fit(solve, swap_engine, beta, b_resid, run_fields=shared, stability_fields=shared)


_ENTRIES: dict[str, Callable[..., Fit]] = {
    "ltr": _ltr, "krr": _krr,
    "cm": _unconstrained, "llreg": _unconstrained, "gmf": _unconstrained,
    "laplacian": _laplacian,
    "stabilized-cm": _unconstrained, "stabilized-llreg": _unconstrained,
    "stabilized-gmf": _unconstrained,
}
ALGORITHMS = tuple(_ENTRIES)
_KERNEL_ALGORITHMS = ("ltr", "krr")


def _setup(sample: FullSample, part: Partition, cfg: ExperimentConfig, sigma: float) -> Fit:
    """Build the partition's kernel system or graph and hand it to the algorithm's entry.

    A graph algorithm uses the sample's graph when it has one (``--graph``,
    attached once per run by ``_load``), else the Gaussian affinity at the
    partition's sigma.
    """
    if cfg.algorithm in _KERNEL_ALGORITHMS:
        base = KernelSystem.gaussian(sample.points, sigma)
    else:
        base = sample.graph or gaussian_affinity(sample.points, sigma)
    return _ENTRIES[cfg.algorithm](sample, part, cfg, sigma, base)


def _bound_value(train: float, fit: Fit, part: Partition, cfg: ExperimentConfig) -> float:
    """The generalization bound at the fit's beta and B; inf when beta diverges."""
    if not math.isfinite(fit.beta):
        return math.inf
    return generalization_bound(train, fit.beta, fit.B, part.m, part.u, cfg.delta).bound_value


# ---------------------------------------------------------------------------
# radius selection


def select_radius(
    sample: FullSample,
    part: Partition,
    cfg: ExperimentConfig,
    sigma: float | None = None,
    system: KernelSystem | None = None,
    fits: dict | None = None,
) -> tuple[float, list[dict]]:
    """Pick the estimator radius minimizing train error plus bound slack.

    For every radius in ``cfg.radius_grid`` the local estimator is fitted,
    the kernel least-squares solution computed, and the objective
    ``train_mse + slack`` evaluated, where slack is the stability bound's
    excess over the training error.  The reported ``test_mse`` is diagnostic
    only and never enters the selection.  Neither the kernel system nor the
    distances behind the pseudo-targets depend on the radius, so every
    radius's pseudo-targets come from one distance computation and every
    feasible radius is solved with one factorization.

    ``sigma`` and ``system`` default to the partition's resolved sigma and the
    kernel system of its Gaussian kernel.  When ``fits`` is given it receives
    ``{r: (fit, h)}`` for every solvable radius, so a caller can reuse the chosen fit.

    Returns:
        (r_star, per_r) — ties resolve toward the smaller radius.

    Raises:
        NoFeasibleRadius: every radius failed (empty neighborhoods under
            fallback="error").
    """
    if not cfg.radius_grid:
        raise NoFeasibleRadius("the radius grid is empty")
    if sigma is None:
        sigma = _resolve_sigma(sample, part, cfg)
    if system is None:
        system = KernelSystem.gaussian(sample.points, sigma)
    rows: dict[float, dict] = {}
    targets: dict[float, np.ndarray] = {}
    at = pseudo_targets_by_radius(sample, part, _local_estimator(cfg, sigma, 0.0))  # any radius
    for r in cfg.radius_grid:
        try:
            targets[r] = at(r)
        except PseudoTargetUnavailable as exc:
            rows[r] = {"r": r, "feasible": False, "reason": str(exc)}
    del at  # its u x m distances and weights, before the solve's n x n matrices
    if not targets:
        raise NoFeasibleRadius("no radius in the grid was solvable")
    block = np.column_stack(list(targets.values()))
    alpha, kept = system.dual(part, sample.targets[part.train_idx], block, cfg.C, cfg.C_prime)
    scores = system.scores(alpha, kept)
    best = (math.inf, next(iter(targets)))  # all-infinite objectives: smallest feasible r
    for r, h in zip(targets, scores.T):
        fit = _ltr_at(sample, part, cfg, sigma, system, r)
        if fits is not None:
            fits[r] = (fit, h)
        train = empirical_error(h, sample, part)
        slack = _bound_value(train, fit, part, cfg) - train
        objective = train + slack
        rows[r] = {
            "r": r,
            "feasible": True,
            "train_mse": train,
            "test_mse": test_error(h, sample, part),
            "m_r": m_of_r(sample, part, r),
            "beta_loc": fit.stability_fields["beta_loc"],
            "beta": fit.beta,
            "slack": slack,
            "objective": objective,
        }
        if objective < best[0]:
            best = (objective, r)
    return float(best[1]), [rows[r] for r in cfg.radius_grid]


# ---------------------------------------------------------------------------
# experiment protocol


def _fit_one(sample: FullSample, part: Partition, cfg: ExperimentConfig) -> dict:
    """Fit the configured algorithm on one partition and report metrics."""
    sigma = _resolve_sigma(sample, part, cfg)
    fit = _setup(sample, part, cfg, sigma)
    h = fit.h if fit.h is not None else fit.solve(sample, part)
    train = empirical_error(h, sample, part)
    return {
        "seed": part.seed,
        "r_star": None,
        "sigma": sigma,
        **fit.run_fields,
        "train_mse": train,
        "test_mse": test_error(h, sample, part),
        "beta_used": fit.beta,
        "B": fit.B,
        "bound_value": _bound_value(train, fit, part, cfg),
    }


def _labeled_size(cfg: ExperimentConfig, n: int) -> int:
    """m = round(m_fraction * n), kept inside [1, n - 1]."""
    return min(max(int(round(cfg.m_fraction * n)), 1), n - 1)


def _load(cfg: ExperimentConfig) -> tuple[FullSample, list[str]]:
    """``cfg``'s data, and the messages of its load warnings for the report (not stderr).

    A graph algorithm's sample carries ``cfg.graph_path``'s edge list, read
    once for every partition.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ZeroVarianceFeature)
        sample = load_and_normalize(cfg.data_path, cfg.target_scale)
    if cfg.graph_path is not None and cfg.algorithm not in _KERNEL_ALGORITHMS:
        sample = replace(sample, graph=load_edge_list(cfg.graph_path, n=sample.n))
    return sample, [str(w.message) for w in caught]


def _partition(sample: FullSample, cfg: ExperimentConfig, index: int) -> Partition:
    """Partition ``index`` of the configured run."""
    return sample_partition(sample, _labeled_size(cfg, sample.n), derive_seed(cfg.seed, index))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the partitioned protocol and return the (JSON-ready) report.

    The data, and the graph, are read once for every partition.  Partition i
    uses the seed derived from the master seed, so reports are byte-identical
    across reruns of the same config.
    """
    sample, load_warnings = _load(cfg)
    n = sample.n
    m = _labeled_size(cfg, n)

    def one(index: int) -> dict:
        return _fit_one(sample, _partition(sample, cfg, index), cfg)

    if cfg.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool pays for the import

        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(one, range(cfg.partitions)))
    else:
        records = [one(i) for i in range(cfg.partitions)]

    aggregates = {}
    for key in ("train_mse", "test_mse", "bound_value", "beta_used"):
        vals = [r[key] for r in records if math.isfinite(r.get(key, math.inf))]
        if vals:
            aggregates[key] = {
                "mean": stat_without_overflow(np.mean, vals),
                "std": stat_without_overflow(np.std, vals),
                "count": len(vals),
            }
    report = {
        "provenance": {
            "tool": "stabreg",
            "version": __version__,
            "config": cfg.as_dict(),
        },
        "n": n,
        "m": m,
        "u": n - m,
        "label_bound_M": sample.label_bound_M,
        "warnings": load_warnings,
        "records": records,
        "aggregates": aggregates,
    }
    return report


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(report: dict, kind: str, plot_scale: float = 1.0) -> list[dict]:
    """Aggregate per-radius sweep rows into (r, mean, std) plot rows.

    ``kind`` is "mse_vs_r" (test error per radius) or "bound_vs_r"
    (train error plus ``plot_scale`` times the bound slack per radius).

    Raises:
        NoSweepData: the report carries no per-radius rows.
        ValueError: the report is not a run report: it, a record or a
            sweep row is not an object, or a feasible row lacks a numeric
            r or value.
    """
    if kind not in ("mse_vs_r", "bound_vs_r"):
        raise ValueError(f"unknown plot kind {kind!r}")
    if not isinstance(report, dict):
        raise ValueError("the report is not a JSON object")
    records = report.get("records", [])
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError("the report's records are not a list of objects")
    sweeps = [(i, r["per_r"]) for i, r in enumerate(records) if r.get("per_r")]
    if not sweeps:
        raise NoSweepData("the report holds no radius sweep")
    by_r: dict[float, list[float]] = {}
    for i, sweep in sweeps:
        for j, row in enumerate(sweep):
            where = f"record {i}, sweep row {j}"
            if not isinstance(row, dict):
                raise ValueError(f"{where} is not an object")
            if not row.get("feasible"):
                continue
            r = _row_number(row, "r", where)
            if math.isnan(r):
                raise ValueError(f"{where}: 'r' is null")
            if kind == "mse_vs_r":
                value = _row_number(row, "test_mse", where)
            else:
                value = (_row_number(row, "train_mse", where)
                         + plot_scale * _row_number(row, "slack", where))
            if math.isfinite(value):
                by_r.setdefault(r, []).append(value)
    rows = []
    for r in sorted(by_r):
        rows.append({"r": r, "mean": stat_without_overflow(np.mean, by_r[r]),
                     "std": stat_without_overflow(np.std, by_r[r])})
    if not rows:
        raise NoSweepData("no finite sweep values to aggregate")
    return rows


def _row_number(row: dict, key: str, where: str) -> float:
    """``row[key]`` as a float; null, a report's non-finite value, reads as nan.

    Raises:
        ValueError: ``key`` is missing or holds no number.
    """
    value = row.get(key)
    if value is None and key in row:
        return math.nan
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {key!r} is missing or not a number")
    return float(value)


# ---------------------------------------------------------------------------
# verification suite


def verify_suite(level: str = "fast", seed: int = 0) -> dict:
    """Run every check in ``stabreg.checks``; "full" raises the trial counts.

    Returns a dict with one entry per check and an overall ``passed`` flag.
    """
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    from . import checks  # loaded on first use: only verify and lowerbound-demo compile it

    full = level == "full"
    draws = 100_000 if full else 20_000  # Monte-Carlo draws
    table = (  # name, check, its arguments at this level
        ("alpha-formula", checks.alpha_formula, ()),
        ("partition-uniformity", checks.partition_uniformity, (seed, draws)),
        ("error-identity", checks.error_identity, (seed, 20)),
        ("pseudo-inverse", checks.pseudo_inverse_conditions, (seed,)),
        ("unconstrained-oracle", checks.unconstrained_oracle, (seed, 50 if full else 10)),
        ("constrained-optimality", checks.constrained_optimality, (seed, 20 if full else 3)),
        ("rkhs-equivalence", checks.pinv_kernel_equivalence, (seed, 10 if full else 3)),
        ("swap-stability-closed-forms", checks.swap_stability, (seed,)),
        ("lower-bound-instance", checks.lower_bound_instance, ()),
        ("concentration-harness", checks.concentration_tails, (seed, draws, 500 if full else 100)),
        ("ltr-max-value", checks.ltr_output_bound, (seed, 1000 if full else 50)),
    )
    results = []
    for name, check, args in table:
        passed, detail = check(*args)
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return {
        "level": level,
        "seed": seed,
        "checks": results,
        "passed": all(c["passed"] for c in results),
    }


# ---------------------------------------------------------------------------
# serialization helpers


def _json_safe(obj):
    """Convert report values to strict-JSON-safe structures (inf/nan -> None)."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n"


def _records_csv(records: list[dict]) -> str:
    keys = sorted({k for r in records for k in r if k != "per_r"})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        writer.writerow([_csv_cell(rec.get(k)) for k in keys])
    return buf.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return value


def _plot_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "mean", "std"])
    for row in rows:
        writer.writerow([repr(float(row["r"])), repr(float(row["mean"])), repr(float(row["std"]))])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _sigma_arg(text: str):
    try:
        value = float(text)
    except ValueError:
        if text in ("cv", "median"):
            return text
        raise argparse.ArgumentTypeError(
            f"sigma must be a positive number, 'cv' or 'median' (got {text!r})"
        ) from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("sigma must be positive and finite")
    return value


def _radius_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radius list {text!r}") from None


_PRNG_NOTE = (
    "Randomness: SplitMix64 counter scheme; draw k of seed s has key "
    "mix64(mix64(s) + (k+1)*0x9E3779B97F4A7C15) in uint64 arithmetic, and an "
    "m-subset is the m smallest keys. Reports are reproducible from the seed "
    "alone on any platform."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabreg",
        description="Transductive regression with stability-driven bounds.",
        epilog=_PRNG_NOTE,
    )
    parser.add_argument("--version", action="version", version=f"stabreg {__version__}")

    # every experiment default is ExperimentConfig's: an experiment flag left
    # out parses to nothing, and --seed (verify's too) and bound's --delta
    # take the field's default.  Each subcommand takes only the groups it
    # reads, so a flag it would ignore is an unrecognized argument.
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                          help="master seed (default 0)")
    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", help="output path (default stdout)")
    format_opt = argparse.ArgumentParser(add_help=False)
    format_opt.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    data_opts = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    data_opts.add_argument("--data", required=True, help="CSV: features then target")
    data_opts.add_argument("--target-scale", type=float)
    data_opts.add_argument("--m-fraction", type=float)
    data_opts.add_argument(
        "--sigma", type=_sigma_arg,
        help="Gaussian width: a positive number; 'median', the median distance between the "
             "labeled points; or 'cv' (default): for krr and ltr, 5-fold ridge cross-validation "
             "over {0.1, 0.3, 1, 3, 10} x that median, for graph algorithms the median")

    model_opts = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    model_opts.add_argument("--C", type=float)
    model_opts.add_argument("--C-prime", type=float)
    model_opts.add_argument("--radius", type=_radius_arg, help="comma-separated radius grid")
    model_opts.add_argument("--weighting", choices=("gaussian", "inverse-distance"))
    model_opts.add_argument("--fallback", choices=("zero", "error"))

    # read only by the graph algorithms, which select-radius never fits
    graph_opts = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    graph_opts.add_argument("--graph", help="optional 'i j w' edge list")
    graph_opts.add_argument("--mu", type=float)
    graph_opts.add_argument("--C-l", type=float)
    graph_opts.add_argument("--C-u", type=float)

    delta_opt = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    delta_opt.add_argument("--delta", type=float)

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        parents=[seed_opt, out_opt, format_opt, data_opts, model_opts, graph_opts, delta_opt],
        help="partitioned experiment", epilog=_PRNG_NOTE, argument_default=argparse.SUPPRESS,
    )
    p_run.add_argument("--algorithm", choices=ALGORITHMS)
    p_run.add_argument("--partitions", type=int)
    p_run.add_argument("--jobs", type=int)
    p_run.set_defaults(func=_cmd_run)

    p_sel = sub.add_parser(
        "select-radius",
        parents=[seed_opt, out_opt, format_opt, data_opts, model_opts, delta_opt],
        help="bound-driven radius selection",
    )
    p_sel.set_defaults(func=_cmd_select_radius)

    p_stab = sub.add_parser(
        "stability", parents=[seed_opt, out_opt, data_opts, model_opts, graph_opts],
        help="stability coefficients for one algorithm",
    )
    p_stab.add_argument("--algorithm", choices=ALGORITHMS, default="cm")
    p_stab.add_argument("--empirical", action="store_true",
                        help="also measure worst swap perturbations")
    p_stab.set_defaults(func=_cmd_stability)

    p_bound = sub.add_parser(
        "bound", parents=[out_opt], help="evaluate the generalization bound"
    )
    p_bound.add_argument("--r-hat", type=float, required=True)
    p_bound.add_argument("--beta", type=float, required=True)
    p_bound.add_argument("--B", type=float, required=True)
    p_bound.add_argument("-m", type=int, required=True)
    p_bound.add_argument("-u", type=int, required=True)
    p_bound.add_argument("--delta", type=float, default=ExperimentConfig.delta)
    p_bound.set_defaults(func=_cmd_bound)

    p_low = sub.add_parser(
        "lowerbound-demo", parents=[out_opt],
        help="worst-case swap instance vs its closed form",
    )
    p_low.add_argument("--m", type=int, default=2)
    p_low.add_argument("--C", type=float, default=1.0)
    p_low.set_defaults(func=_cmd_lowerbound)

    p_ver = sub.add_parser("verify", parents=[seed_opt, out_opt],
                           help="run the self-check suite")
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast")
    p_ver.set_defaults(func=_cmd_verify)

    p_plot = sub.add_parser(
        "emit-plot", parents=[out_opt], help="plot-ready CSV from a sweep report"
    )
    p_plot.add_argument("--report", required=True, help="report JSON from 'run'")
    p_plot.add_argument("--kind", choices=("mse_vs_r", "bound_vs_r"), default="mse_vs_r")
    p_plot.add_argument("--plot-scale", type=float, default=1.0)
    p_plot.set_defaults(func=_cmd_emit_plot)

    return parser


# flags whose parsed name differs from the ExperimentConfig field they set
_FLAG_FIELDS = {"data": "data_path", "radius": "radius_grid", "graph": "graph_path",
                "out": "output_path"}


def _config_from_args(args, **overrides) -> ExperimentConfig:
    """The config of the parsed flags; a field with no flag given keeps its default."""
    names = {f.name for f in fields(ExperimentConfig)}
    given = {_FLAG_FIELDS.get(k, k): v for k, v in vars(args).items()}
    return ExperimentConfig(**{k: v for k, v in given.items() if k in names} | overrides)


def _emit_report(args, report: dict, records: list[dict]) -> int:
    """Write ``report`` as JSON, or its ``records`` as CSV under ``--format csv``."""
    _emit(_records_csv(records) if args.format == "csv" else _dump_json(report), args.out)
    return 0


def _cmd_run(args) -> int:
    report = run_experiment(_config_from_args(args))
    return _emit_report(args, report, report["records"])


def _cmd_select_radius(args) -> int:
    cfg = _config_from_args(args, algorithm="ltr")
    sample, load_warnings = _load(cfg)
    r_star, per_r = select_radius(sample, _partition(sample, cfg, 0), cfg)
    return _emit_report(args, {"r_star": r_star, "per_r": per_r, "warnings": load_warnings},
                        per_r)


def _cmd_stability(args) -> int:
    # ltr on a radius grid evaluates the radius that run selects
    cfg = _config_from_args(args)
    sample, load_warnings = _load(cfg)
    part = _partition(sample, cfg, 0)
    sigma = _resolve_sigma(sample, part, cfg)
    fit = _setup(sample, part, cfg, sigma)
    out: dict = {
        "algorithm": cfg.algorithm,
        "m": part.m,
        "u": part.u,
        "label_bound_M": sample.label_bound_M,
        "sigma": sigma,
        "cost_bound": fit.beta,
        "B": fit.B,
        **fit.stability_fields,
        "warnings": load_warnings,
    }
    if args.empirical:
        out["empirical"] = asdict(empirical_stability(
            fit.solve, sample, part, seed=cfg.seed, batch=fit.swap_engine()
        ))
    _emit(_dump_json(out), args.out)
    return 0


def _cmd_bound(args) -> int:
    report = generalization_bound(args.r_hat, args.beta, args.B, args.m, args.u, args.delta)
    _emit(_dump_json(report.as_dict()), args.out)
    return 0


def _cmd_lowerbound(args) -> int:
    from .checks import lower_bound_holds

    demo = cm_lower_bound_demo(args.m, args.C)
    demo["ok"] = ok = lower_bound_holds(demo)
    _emit(_dump_json(demo), args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    summary = verify_suite(args.level, args.seed)
    lines = []
    for check in summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"{status} {check['name']}: {check['detail']}")
    lines.append(
        f"{'PASS' if summary['passed'] else 'FAIL'} overall "
        f"({sum(c['passed'] for c in summary['checks'])}/{len(summary['checks'])} checks)"
    )
    if args.out:
        _emit(_dump_json(summary), args.out)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if summary["passed"] else 1


def _cmd_emit_plot(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    rows = emit_plot_data(report, args.kind, args.plot_scale)
    _emit(_plot_csv(rows), args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept: it holds no run data."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"stabreg: parse error: {exc}", file=sys.stderr)
        return 2
    except StabregError as exc:
        print(f"stabreg: {type(exc).__name__}: {exc}", file=sys.stderr)
        # every input of bound is a command-line value, so a rejected one is a usage error
        return 2 if args.command == "bound" else 1
    except (ValueError, OSError) as exc:
        print(f"stabreg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
