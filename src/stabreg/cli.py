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
import io
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__
from . import bounds as _bounds
from ._kernels import mix64_int
from .bounds import concentration_harness, generalization_bound
from .core import (
    FullSample,
    HypothesisScores,
    Partition,
    empirical_error,
    overall_error,
    sample_partition,
    score_to_cost_stability,
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
    SpectrumSummary,
    diameter,
    gaussian_affinity,
    laplacian,
    load_edge_list,
    pseudo_inverse,
    spectrum,
)
from .regressors import (
    ConstrainedProblem,
    KernelSystem,
    LaplacianSystem,
    LocalEstimatorConfig,
    LtrProblem,
    QuadraticSystem,
    UnconstrainedProblem,
    build_cm,
    build_gmf,
    build_llreg,
    gaussian_kernel,
    labels_to_full,
    pseudo_targets,
    solve_constrained,
    solve_ltr,
    solve_unconstrained,
)
from .stability import (
    StabilityInputs,
    belkin_cost_stability,
    belkin_score_stability,
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
    constant columns are dropped with a ZeroVarianceFeature warning.

    Raises:
        ParseError: non-numeric or non-finite cell, or ragged row (1-based
            row/column; the header is row 1).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, 0, "empty file") from None
        width = len(header)
        if width < 2:
            raise ParseError(1, 0, "need at least one feature column and a target")
        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(row_no, 0, f"expected {width} fields, got {len(row)}")
            parsed = np.empty(width)
            for col_no, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(row_no, col_no, f"non-numeric cell {cell!r}") from None
                if not math.isfinite(value):
                    raise ParseError(row_no, col_no, f"non-finite cell {cell!r}")
                parsed[col_no - 1] = value
            rows.append(parsed)
    if len(rows) < 2:
        raise ParseError(len(rows) + 1, 0, "need at least 2 data rows")
    data = np.vstack(rows)
    features = data[:, :-1]
    target = data[:, -1] * float(target_scale)
    keep = []
    for j in range(features.shape[1]):
        col = features[:, j]
        if np.all(col == col[0]):
            warnings.warn(
                f"dropping constant feature column {header[j]!r} (index {j})",
                ZeroVarianceFeature,
                stacklevel=2,
            )
        else:
            keep.append(j)
    if not keep:
        raise ValueError("all feature columns are constant")
    feats = features[:, keep]
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    m_bound = float(np.max(np.abs(target), initial=0.0))
    return FullSample(points=feats, targets=target, label_bound_M=m_bound or 1.0)


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
        grid = tuple(float(r) for r in self.radius_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("radius_grid must be strictly increasing")
        if any(r < 0 for r in grid):
            raise ValueError("radii must be non-negative")
        if self.algorithm == "ltr" and not grid:
            raise ValueError("algorithm 'ltr' needs at least one radius")
        if isinstance(self.sigma, str):
            if self.sigma not in ("cv", "median"):
                raise ValueError("sigma must be a positive number, 'cv' or 'median'")
        elif not float(self.sigma) > 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "radius_grid", grid)

    def as_dict(self) -> dict:
        return {**asdict(self), "radius_grid": list(self.radius_grid)}


def derive_seed(master: int, index: int) -> int:
    """Deterministic per-partition seed from the master seed."""
    golden = 0x9E3779B97F4A7C15
    return mix64_int((mix64_int(master) + (index + 1) * golden) % (1 << 64))


# ---------------------------------------------------------------------------
# sigma resolution


def _sq_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clamped at 0, zero diagonal."""
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _median_pairwise_distance(d2: np.ndarray) -> float:
    """Median distance over the pairs of a squared-distance matrix; 1 if it is 0."""
    upper = d2[np.triu_indices(d2.shape[0], k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    return med if med > 0 else 1.0


def _cv_sigma(sample: FullSample, part: Partition, C: float) -> float:
    """Pick sigma by 5-fold ridge cross-validation on the labeled points.

    The labeled squared distances are computed once; each fold's kernel and
    cross-kernel are slices of the labeled Gaussian kernel at that sigma.
    """
    xs = sample.points[part.train_idx]
    ys = sample.targets[part.train_idx]
    d2 = _sq_distances(xs)
    med = _median_pairwise_distance(d2)
    folds = np.array_split(np.arange(xs.shape[0]), min(_CV_FOLDS, xs.shape[0]))
    best = (math.inf, med)
    for factor in _SIGMA_GRID:
        sig = factor * med
        kern = np.exp(-d2 / (2.0 * sig * sig))
        err = 0.0
        count = 0
        for fold in folds:
            if fold.size == 0 or fold.size == xs.shape[0]:
                continue
            fit = np.setdiff1d(np.arange(xs.shape[0]), fold, assume_unique=True)
            reg = kern[np.ix_(fit, fit)] + (fit.size / max(C, 1e-12)) * np.eye(fit.size)
            try:
                coef = np.linalg.solve(reg, ys[fit])
            except np.linalg.LinAlgError:
                err = math.inf
                break
            pred = kern[np.ix_(fold, fit)] @ coef
            err += float(np.sum((pred - ys[fold]) ** 2))
            count += fold.size
        score = err / count if count else math.inf
        if score < best[0]:
            best = (score, sig)
    return best[1]


def _resolve_sigma(sample: FullSample, part: Partition, cfg: ExperimentConfig) -> float:
    if isinstance(cfg.sigma, str):
        if cfg.sigma == "cv" and cfg.algorithm in _KERNEL_ALGORITHMS:
            return _cv_sigma(sample, part, cfg.C)
        return _median_pairwise_distance(_sq_distances(sample.points[part.train_idx]))
    return float(cfg.sigma)


# ---------------------------------------------------------------------------
# algorithm table
#
# One entry per algorithm.  An entry sets the algorithm up on one partition,
# given the partition's resolved sigma and its Gaussian kernel (ltr, krr) or
# graph (every other algorithm), and returns a Fit.  ``run``, ``stability``
# and ``select-radius`` all read this table, so each algorithm's solver,
# stability coefficient and residual bound are written once.


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

    solve: Callable[[FullSample, Partition], HypothesisScores]
    swap_engine: Callable[[], Callable[[np.ndarray, np.ndarray], np.ndarray]]
    beta: float
    B: float
    run_fields: dict = field(default_factory=dict)
    stability_fields: dict = field(default_factory=dict)
    h: HypothesisScores | None = None


def _kernel_fit(solve, swap_engine, part: Partition, cfg: ExperimentConfig, M: float,
                C_prime: float, beta_loc: float = 0.0, **fields) -> Fit:
    """Kernel least squares: the LTR coefficient and B = M (1 + sqrt(C + C'))."""
    beta = math.inf  # an empty neighborhood leaves beta_loc, and so beta, unbounded
    if math.isfinite(beta_loc):
        beta = ltr_stability_bound(StabilityInputs(
            m=part.m, u=part.u, C=cfg.C, C_prime=C_prime, kappa=1.0, M=M, beta_loc=beta_loc
        ))
    return Fit(solve, swap_engine, beta, M * (1.0 + math.sqrt(cfg.C + C_prime)), **fields)


def _krr(sample: FullSample, part: Partition, cfg: ExperimentConfig,
         sigma: float, kern: np.ndarray) -> Fit:
    """Kernel ridge regression on the labeled points (LTR with C' = 0)."""
    system = KernelSystem(kern)

    def solve(s: FullSample, p: Partition) -> HypothesisScores:
        return system.solve(p, s.targets[p.train_idx], np.zeros(0), cfg.C, 0.0)

    def swap_engine():
        from . import swaps  # loaded on first use: run and select-radius never compile it

        return swaps.kernel(system, sample, part, cfg.C, 0.0)

    return _kernel_fit(solve, swap_engine, part, cfg, sample.label_bound_M, 0.0)


def _local_estimator(cfg: ExperimentConfig, sigma: float, r: float) -> LocalEstimatorConfig:
    return LocalEstimatorConfig(
        radius_r=r, weighting=cfg.weighting, sigma=sigma, fallback=cfg.fallback
    )


def _ltr_at(sample: FullSample, part: Partition, cfg: ExperimentConfig,
            sigma: float, system: KernelSystem, r: float) -> Fit:
    """LTR with the local estimator at radius r on the partition's kernel system."""
    local = _local_estimator(cfg, sigma, r)

    def solve(s: FullSample, p: Partition) -> HypothesisScores:
        return system.solve(p, s.targets[p.train_idx], pseudo_targets(s, p, local),
                            cfg.C, cfg.C_prime)

    def swap_engine():
        from . import swaps

        return swaps.kernel(system, sample, part, cfg.C, cfg.C_prime, local)

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
         sigma: float, kern: np.ndarray) -> Fit:
    """LTR at the single radius given, or at the radius select_radius picks."""
    system = KernelSystem(kern)
    if len(cfg.radius_grid) == 1:
        return _ltr_at(sample, part, cfg, sigma, system, cfg.radius_grid[0])
    fits: dict = {}
    r_star, per_r = select_radius(sample, part, cfg, sigma, system, fits)
    fit, h = fits[r_star]
    return replace(fit, h=h, run_fields={"r_star": r_star, "per_r": per_r})


def _diag_spectrum(diag: np.ndarray) -> SpectrumSummary:
    vals = np.sort(diag)
    lam2 = vals[1] if vals.size > 1 else vals[0]
    return SpectrumSummary(
        lambda_min=float(vals[0]), lambda_max=float(vals[-1]), lambda2=float(lam2)
    )


def _unconstrained(sample: FullSample, part: Partition, cfg: ExperimentConfig,
                   sigma: float, graph: GraphSpec) -> Fit:
    """cm, llreg, gmf and their stabilized variants.

    Q comes from the graph alone, so its system is built once; another
    partition changes only y and, for llreg and gmf, the diagonal weights.
    """
    algo = cfg.algorithm
    family = algo.removeprefix("stabilized-")
    M, m = sample.label_bound_M, part.m
    y_home = sample.targets[part.train_idx]
    if family == "cm":
        home = build_cm(graph, cfg.mu, y_home, part)
    elif family == "llreg":
        home = build_llreg(graph.weights, cfg.C_l, cfg.C_u, y_home, part)
    else:
        home = build_gmf(graph, cfg.C_l, cfg.C_u, y_home, part)

    bottom = None
    c_min, c_max = (cfg.mu, cfg.mu) if family == "cm" else sorted((cfg.C_l, cfg.C_u))
    if algo == "cm":
        score_beta = cm_score_bound(M)
    elif algo == "llreg":
        score_beta = llreg_score_bound(M, m, c_min, c_max)
    else:
        q_spec = spectrum(home.Q, eigenvector=algo != family)
        if algo != family:
            # every stabilized variant comes here, and its one eigh serves
            # twice: the solve lives on the complement of Q's bottom
            # eigenvector, where Q's smallest eigenvalue is lambda2
            bottom = q_spec.eigenvector_min
            q_spec = replace(q_spec, lambda_min=q_spec.lambda2)
        c_spec = _diag_spectrum(np.diagonal(home.Cmat))
        score_beta = unconstrained_score_bound(
            q_spec, c_spec, c_spec,
            math.sqrt(2.0) * M,
            math.sqrt(m) * M,
            math.sqrt(2.0) * (1.0 / c_min - 1.0 / c_max),
        )
    system = QuadraticSystem(home.Q, bottom)
    c_S, c_T = (cfg.mu, cfg.mu) if family == "cm" else (cfg.C_l, cfg.C_u)

    def solve(s: FullSample, p: Partition) -> HypothesisScores:
        c = np.full(p.n, float(c_T))
        c[p.train_idx] = c_S
        return system.solve(c, labels_to_full(s.targets[p.train_idx], p))

    def swap_engine():
        from . import swaps

        return swaps.quadratic(system, sample, part, c_S, c_T)

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
    """The sum-zero-constrained Laplacian regularizer."""
    M, m = sample.label_bound_M, part.m
    # the home problem rejects C <= 0 before a bound divides by C
    home = ConstrainedProblem(L=laplacian(graph), C_tradeoff=cfg.C, part=part,
                              y_S=sample.targets[part.train_idx], center_labels=True)
    rho = diameter(graph)  # a disconnected graph fails here, before the null-space check
    system = LaplacianSystem(home.L, home.u_vec)

    def solve(s: FullSample, p: Partition) -> HypothesisScores:
        y = labels_to_full(s.targets[p.train_idx], p)
        return system.solve(p, y, cfg.C, center_labels=True)

    def swap_engine():
        from . import swaps

        return swaps.laplacian(system, sample, part, cfg.C, center_labels=True)

    lam2 = system.eigenvalues.lambda2
    beta = belkin_cost_stability(cfg.C, M, m, lam2, rho)
    b_resid = M * (1.0 + math.sqrt(min(1.0 / lam2, float(rho)) * cfg.C))
    theorem_beta = belkin_score_stability(M, m, cfg.C, lam2) if m * lam2 / cfg.C > 1 else None
    shared = {"lambda2": lam2, "rho_G": rho}
    return Fit(solve, swap_engine, beta, b_resid, run_fields=shared,
               stability_fields={**shared, "theorem_beta": theorem_beta})


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
    """Build the partition's kernel or graph and hand it to the algorithm's entry."""
    if cfg.algorithm in _KERNEL_ALGORITHMS:
        base = gaussian_kernel(sample.points, sigma)
    elif cfg.graph_path:
        base = load_edge_list(cfg.graph_path, n=sample.n)
    else:
        base = gaussian_affinity(sample.points, sigma)
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
    only and never enters the selection.  The kernel system does not depend
    on the radius, so every feasible radius is solved with one factorization.

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
        system = KernelSystem(gaussian_kernel(sample.points, sigma))
    rows: dict[float, dict] = {}
    targets: dict[float, np.ndarray] = {}
    for r in cfg.radius_grid:
        try:
            targets[r] = pseudo_targets(sample, part, _local_estimator(cfg, sigma, r))
        except PseudoTargetUnavailable as exc:
            rows[r] = {"r": r, "feasible": False, "reason": str(exc)}
    if not targets:
        raise NoFeasibleRadius("no radius in the grid was solvable")
    block = np.column_stack(list(targets.values()))
    alpha, kept = system.dual(part, sample.targets[part.train_idx], block, cfg.C, cfg.C_prime)
    scores = system.scores(alpha, kept)
    best = (math.inf, next(iter(targets)))  # all-infinite objectives: smallest feasible r
    for r, column in zip(targets, scores.T):
        fit = _ltr_at(sample, part, cfg, sigma, system, r)
        h = HypothesisScores(scores=column)
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


def run_experiment(cfg: ExperimentConfig, sample: FullSample | None = None) -> dict:
    """Run the partitioned protocol and return the (JSON-ready) report.

    The sample may be injected (tests); otherwise it is loaded from
    ``cfg.data_path``.  Partition i uses the seed derived from the master
    seed, so reports are byte-identical across reruns of the same config.
    """
    load_warnings: list[str] = []
    if sample is None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ZeroVarianceFeature)
            sample = load_and_normalize(cfg.data_path, cfg.target_scale)
        load_warnings = [str(w.message) for w in caught]
    n = sample.n
    m = _labeled_size(cfg, n)

    def one(index: int) -> dict:
        part = sample_partition(sample, m, derive_seed(cfg.seed, index))
        return _fit_one(sample, part, cfg)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(one, range(cfg.partitions)))
    else:
        records = [one(i) for i in range(cfg.partitions)]

    aggregates = {}
    for key in ("train_mse", "test_mse", "bound_value", "beta_used"):
        vals = [r[key] for r in records if math.isfinite(r.get(key, math.inf))]
        if vals:
            arr = np.asarray(vals)
            aggregates[key] = {
                "mean": float(arr.mean()),
                "std": float(arr.std()),
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
    """
    if kind not in ("mse_vs_r", "bound_vs_r"):
        raise ValueError(f"unknown plot kind {kind!r}")
    records = report.get("records", [])
    sweeps = [r["per_r"] for r in records if r.get("per_r")]
    if not sweeps:
        raise NoSweepData("the report holds no radius sweep")
    by_r: dict[float, list[float]] = {}
    for sweep in sweeps:
        for row in sweep:
            if not row.get("feasible"):
                continue
            if kind == "mse_vs_r":
                value = row.get("test_mse")
            else:
                slack = row.get("slack")
                if slack is None or not math.isfinite(slack):
                    continue
                value = row["train_mse"] + plot_scale * slack
            if value is None or not math.isfinite(value):
                continue
            by_r.setdefault(float(row["r"]), []).append(float(value))
    rows = []
    for r in sorted(by_r):
        arr = np.asarray(by_r[r])
        rows.append({"r": r, "mean": float(arr.mean()), "std": float(arr.std())})
    if not rows:
        raise NoSweepData("no finite sweep values to aggregate")
    return rows


# ---------------------------------------------------------------------------
# verification suite


def _gd_minimize(q: np.ndarray, c: np.ndarray, y: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Steepest descent with exact line search on h^T Q h + (h-y)^T C (h-y)."""
    h = np.zeros_like(y)
    a_sys = 2.0 * (q + c)
    b = 2.0 * (c @ y)
    for _ in range(200_000):
        grad = a_sys @ h - b
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            break
        denom = float(grad @ (a_sys @ grad))
        if denom <= 0:
            break
        h = h - (float(grad @ grad) / denom) * grad
    return h


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def verify_suite(level: str = "fast", seed: int = 0) -> dict:
    """Self-check suite; "full" raises the Monte-Carlo trial counts.

    Returns a machine-readable dict with one entry per check and an overall
    ``passed`` flag.
    """
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    # independent recomputation of the variance factor; resolved through the
    # module attribute so a broken implementation cannot hide behind an old
    # import binding
    worst = 0.0
    for m in (1, 2, 3, 10, 100):
        for u in (1, 2, 7, 50):
            ref = (m * u / (m + u - 0.5)) / (1.0 - 1.0 / (2.0 * max(m, u)))
            worst = max(worst, abs(_bounds.alpha(m, u) - ref))
    checks.append(_check("alpha-formula", worst <= 1e-12, f"max deviation {worst:.3e}"))

    # partition uniformity, single labeled point among four
    draws = 100_000 if level == "full" else 20_000
    tol = 0.01 if level == "full" else 0.02
    sample4 = FullSample(points=np.arange(4.0)[:, None], targets=np.zeros(4), label_bound_M=1.0)
    counts = np.zeros(4)
    for t in range(draws):
        counts[sample_partition(sample4, 1, seed * 1_000_003 + t).train_idx[0]] += 1
    freq_dev = float(np.max(np.abs(counts / draws - 0.25)))
    chi2 = float(np.sum((counts - draws / 4) ** 2 / (draws / 4)))
    checks.append(
        _check(
            "partition-uniformity",
            freq_dev <= tol and chi2 < 16.27,  # chi-square(3) at p=0.001
            f"max |freq-1/4| {freq_dev:.4f}, chi2 {chi2:.2f} over {draws} draws",
        )
    )

    # error decomposition identity
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 40))
        y = rng.uniform(-1, 1, n)
        sample = FullSample(points=rng.normal(size=(n, 2)), targets=y, label_bound_M=1.0)
        h = HypothesisScores(scores=rng.uniform(-2, 2, n))
        m = int(rng.integers(1, n))
        part = sample_partition(sample, m, int(rng.integers(1 << 30)))
        lhs = test_error(h, sample, part)
        rhs = (n / part.u) * overall_error(h, sample) - (part.m / part.u) * empirical_error(
            h, sample, part
        )
        worst = max(worst, abs(lhs - rhs))
    checks.append(_check("error-identity", worst <= 1e-12, f"max deviation {worst:.3e}"))

    # pseudo-inverse obeys the Moore-Penrose conditions
    b = rng.normal(size=(8, 8))
    psd = b @ b.T
    psd[0] -= psd[0]  # zero row/col to force rank deficiency
    psd[:, 0] = psd[0]
    pinv = pseudo_inverse(psd)
    mp = max(
        float(np.max(np.abs(psd @ pinv @ psd - psd))),
        float(np.max(np.abs(pinv @ psd @ pinv - pinv))),
        float(np.max(np.abs((psd @ pinv) - (psd @ pinv).T))),
        float(np.max(np.abs((pinv @ psd) - (pinv @ psd).T))),
    )
    checks.append(_check("pseudo-inverse", mp <= 1e-8, f"worst MP residual {mp:.3e}"))

    # closed-form unconstrained solve against gradient descent
    worst = 0.0
    for _ in range(3):
        n = 10
        b = rng.normal(size=(n, n))
        q = b.T @ b / n
        cmat = np.diag(rng.uniform(0.5, 2.0, n))
        y = rng.uniform(-1, 1, n)
        h = solve_unconstrained(UnconstrainedProblem(Q=q, Cmat=cmat, y=y)).scores
        h_gd = _gd_minimize(q, cmat, y)
        worst = max(worst, float(np.max(np.abs(h - h_gd))))
    checks.append(_check("unconstrained-oracle", worst <= 1e-6, f"max gap {worst:.3e}"))

    # constrained solution beats random feasible points
    ok = True
    detail = ""
    for trial in range(3):
        n = 8
        w = rng.uniform(0.1, 1.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        g = GraphSpec(weights=w)
        lap = laplacian(g)
        part = sample_partition(
            FullSample(points=np.arange(float(n))[:, None], targets=np.zeros(n), label_bound_M=1.0),
            n // 2,
            seed + trial,
        )
        y_s = rng.uniform(-1, 1, part.m)
        prob = ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part, y_S=y_s)
        h = solve_constrained(prob).scores
        y_full = np.zeros(n)
        y_full[part.train_idx] = y_s

        def objective(vec: np.ndarray) -> float:
            d = vec[part.train_idx] - y_s
            return float(vec @ lap @ vec + (1.0 / part.m) * (d @ d))

        base = objective(h)
        z = rng.normal(size=(2000, n))
        z -= z.mean(axis=1, keepdims=True)  # project onto sum-zero hyperplane
        vals = np.einsum("ij,jk,ik->i", z, lap, z)
        d = z[:, part.train_idx] - y_s
        vals = vals + (1.0 / part.m) * np.sum(d * d, axis=1)
        if not (base <= float(vals.min()) + 1e-10):
            ok = False
            detail = f"random feasible point beat the solver by {base - float(vals.min()):.3e}"
            break
    checks.append(_check("constrained-optimality", ok, detail or "solver at least as good as 6000 feasible points"))

    # constrained Laplacian equals kernel least squares with the pseudo-inverse kernel
    worst = 0.0
    for trial in range(3):
        n = 9
        w = rng.uniform(0.2, 1.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        lap = laplacian(GraphSpec(weights=w))
        part = sample_partition(
            FullSample(points=np.arange(float(n))[:, None], targets=np.zeros(n), label_bound_M=1.0),
            4,
            seed + 10 + trial,
        )
        y_s = rng.uniform(-1, 1, part.m)
        h_con = solve_constrained(
            ConstrainedProblem(L=lap, C_tradeoff=2.0, part=part, y_S=y_s)
        ).scores
        kern = pseudo_inverse(lap)
        h_ltr = solve_ltr(
            LtrProblem(
                K=kern, part=part, y=y_s, y_tilde=np.zeros(0),
                C=2.0, C_prime=0.0,
                kappa=float(np.sqrt(np.max(np.diagonal(kern)))),
            )
        ).scores
        worst = max(worst, float(np.max(np.abs(h_con - h_ltr))))
    checks.append(_check("rkhs-equivalence", worst <= 1e-6, f"max gap {worst:.3e}"))

    # empirical swap stability never exceeds the closed forms
    n = 12
    pts = rng.normal(size=(n, 2))
    targets = rng.uniform(-1, 1, n)
    sample = FullSample(points=pts, targets=targets, label_bound_M=1.0)
    part = sample_partition(sample, 6, seed + 99)
    w = np.exp(-np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    np.fill_diagonal(w, 0.0)
    w = np.minimum(w, w.T)
    g = GraphSpec(weights=w)

    def cm_solver(s: FullSample, p: Partition) -> HypothesisScores:
        return solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))

    rep = empirical_stability(cm_solver, sample, part, B=1.0 + math.sqrt(6.0))
    cm_bound = cm_score_bound(1.0)
    ok_cm = rep.max_score_delta <= cm_bound + 1e-9

    def llreg_solver(s: FullSample, p: Partition) -> HypothesisScores:
        return solve_unconstrained(build_llreg(w, 1.0, 2.0, s.targets[p.train_idx], p))

    rep_ll = empirical_stability(llreg_solver, sample, part, B=1.0 + math.sqrt(2.0 * 6.0))
    ll_bound = llreg_score_bound(1.0, part.m, 1.0, 2.0)
    ok_ll = rep_ll.max_score_delta <= ll_bound + 1e-9
    checks.append(
        _check(
            "swap-stability-closed-forms",
            ok_cm and ok_ll,
            f"cm {rep.max_score_delta:.4f}<={cm_bound:.4f}, "
            f"llreg {rep_ll.max_score_delta:.4f}<={ll_bound:.4f}",
        )
    )

    # worst-case instance reproduces its closed-form perturbation
    ok = True
    detail_parts = []
    for m_inst, c_inst in ((2, 1.0), (5, 0.5), (8, 10.0)):
        demo = cm_lower_bound_demo(m_inst, c_inst)
        gap = abs(demo["measured_delta"] - demo["predicted_a"])
        ok = ok and gap <= 1e-9 and demo["predicted_a"] >= demo["floor"] - 1e-9
        detail_parts.append(f"m={m_inst}: gap {gap:.2e}")
    checks.append(_check("lower-bound-instance", ok, ", ".join(detail_parts)))

    # Monte-Carlo tails stay under the closed-form bound
    trials = 100_000 if level == "full" else 20_000
    pop_n = 1000 if level == "full" else 200
    population = np.concatenate([np.zeros(pop_n // 2), np.ones(pop_n // 2)])
    ok = True
    detail_parts = []
    for eps in (0.02, 0.05, 0.1):
        tail, bound = concentration_harness(population, pop_n // 2, eps, trials, seed)
        margin = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        ok = ok and tail <= bound + margin
        detail_parts.append(f"eps={eps}: {tail:.4f}<={bound + margin:.4f}")
    checks.append(_check("concentration-harness", ok, ", ".join(detail_parts)))

    # kernel least-squares scores respect the closed-form sup bound
    worst_excess = -math.inf
    for _ in range(20):
        n = int(rng.integers(3, 12))
        b = rng.normal(size=(n, n))
        kern = b @ b.T
        kern = 0.5 * (kern + kern.T)
        kappa = float(np.sqrt(np.max(np.diagonal(kern))))
        sampleX = FullSample(
            points=rng.normal(size=(n, 2)), targets=rng.uniform(-1, 1, n), label_bound_M=1.0
        )
        partX = sample_partition(sampleX, max(1, n // 2), int(rng.integers(1 << 30)))
        c_val = float(rng.uniform(0, 3))
        cp_val = float(rng.uniform(0, 3))
        y_t = rng.uniform(-1, 1, partX.u)
        prob = LtrProblem(
            K=kern, part=partX, y=sampleX.targets[partX.train_idx],
            y_tilde=y_t, C=c_val, C_prime=cp_val, kappa=kappa,
        )
        h = solve_ltr(prob).scores
        cap = kappa * 1.0 * math.sqrt(c_val + cp_val)
        worst_excess = max(worst_excess, float(np.max(np.abs(h))) - cap)
    checks.append(
        _check("ltr-max-value", worst_excess <= 1e-8, f"worst excess {worst_excess:.3e}")
    )

    return {
        "level": level,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
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
    if value <= 0:
        raise argparse.ArgumentTypeError("sigma must be positive")
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    data_opts = argparse.ArgumentParser(add_help=False)
    data_opts.add_argument("--data", required=True, help="CSV: features then target")
    data_opts.add_argument("--target-scale", type=float, default=1.0)
    data_opts.add_argument("--m-fraction", type=float, default=0.5)
    data_opts.add_argument("--graph", default=None, help="optional 'i j w' edge list")
    data_opts.add_argument("--sigma", type=_sigma_arg, default="cv")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--C", type=float, default=1.0)
    model_opts.add_argument("--C-prime", type=float, default=0.0)
    model_opts.add_argument("--mu", type=float, default=1.0)
    model_opts.add_argument("--C-l", type=float, default=1.0)
    model_opts.add_argument("--C-u", type=float, default=1.0)
    model_opts.add_argument("--radius", type=_radius_arg, default=(),
                            help="comma-separated radius grid")
    model_opts.add_argument("--weighting", choices=("gaussian", "inverse-distance"),
                            default="gaussian")
    model_opts.add_argument("--fallback", choices=("zero", "error"), default="zero")
    model_opts.add_argument("--delta", type=float, default=0.05)

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", parents=[common, data_opts, model_opts],
        help="partitioned experiment", epilog=_PRNG_NOTE,
    )
    p_run.add_argument("--algorithm", choices=ALGORITHMS, default="krr")
    p_run.add_argument("--partitions", type=int, default=1)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_sel = sub.add_parser(
        "select-radius", parents=[common, data_opts, model_opts],
        help="bound-driven radius selection",
    )
    p_sel.set_defaults(func=_cmd_select_radius)

    p_stab = sub.add_parser(
        "stability", parents=[common, data_opts, model_opts],
        help="stability coefficients for one algorithm",
    )
    p_stab.add_argument("--algorithm", choices=ALGORITHMS, default="cm")
    p_stab.add_argument("--empirical", action="store_true",
                        help="also measure worst swap perturbations")
    p_stab.set_defaults(func=_cmd_stability)

    p_bound = sub.add_parser(
        "bound", parents=[common], help="evaluate the generalization bound"
    )
    p_bound.add_argument("--r-hat", type=float, required=True)
    p_bound.add_argument("--beta", type=float, required=True)
    p_bound.add_argument("--B", type=float, required=True)
    p_bound.add_argument("-m", type=int, required=True)
    p_bound.add_argument("-u", type=int, required=True)
    p_bound.add_argument("--delta", type=float, default=0.05)
    p_bound.set_defaults(func=_cmd_bound)

    p_low = sub.add_parser(
        "lowerbound-demo", parents=[common],
        help="worst-case swap instance vs its closed form",
    )
    p_low.add_argument("--m", type=int, default=2)
    p_low.add_argument("--C", type=float, default=1.0)
    p_low.set_defaults(func=_cmd_lowerbound)

    p_ver = sub.add_parser("verify", parents=[common], help="run the self-check suite")
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast")
    p_ver.set_defaults(func=_cmd_verify)

    p_plot = sub.add_parser(
        "emit-plot", parents=[common], help="plot-ready CSV from a sweep report"
    )
    p_plot.add_argument("--report", required=True, help="report JSON from 'run'")
    p_plot.add_argument("--kind", choices=("mse_vs_r", "bound_vs_r"), default="mse_vs_r")
    p_plot.add_argument("--plot-scale", type=float, default=1.0)
    p_plot.set_defaults(func=_cmd_emit_plot)

    return parser


def _config_from_args(args, algorithm: str | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        data_path=args.data,
        algorithm=algorithm or getattr(args, "algorithm", "krr"),
        target_scale=args.target_scale,
        m_fraction=args.m_fraction,
        partitions=getattr(args, "partitions", 1),
        seed=args.seed,
        C=args.C,
        C_prime=args.C_prime,
        mu=args.mu,
        C_l=args.C_l,
        C_u=args.C_u,
        sigma=args.sigma,
        radius_grid=args.radius,
        delta=args.delta,
        weighting=args.weighting,
        fallback=args.fallback,
        graph_path=args.graph,
        jobs=getattr(args, "jobs", 1),
        output_path=args.out,
    )


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    if args.format == "csv":
        _emit(_records_csv(report["records"]), args.out)
    else:
        _emit(_dump_json(report), args.out)
    return 0


def _first_partition(cfg: ExperimentConfig) -> tuple[FullSample, Partition]:
    """Load the data and draw partition 0 of the configured run."""
    sample = load_and_normalize(cfg.data_path, cfg.target_scale)
    m = _labeled_size(cfg, sample.n)
    return sample, sample_partition(sample, m, derive_seed(cfg.seed, 0))


def _cmd_select_radius(args) -> int:
    cfg = _config_from_args(args, algorithm="ltr")
    sample, part = _first_partition(cfg)
    r_star, per_r = select_radius(sample, part, cfg)
    if args.format == "csv":
        _emit(_records_csv(per_r), args.out)
    else:
        _emit(_dump_json({"r_star": r_star, "per_r": per_r}), args.out)
    return 0


def _cmd_stability(args) -> int:
    # ltr on a radius grid evaluates the radius that run selects
    cfg = _config_from_args(args)
    sample, part = _first_partition(cfg)
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
    }
    if args.empirical:
        out["empirical"] = asdict(empirical_stability(
            fit.solve, sample, part, B=fit.B, seed=cfg.seed, batch=fit.swap_engine()
        ))
    _emit(_dump_json(out), args.out)
    return 0


def _cmd_bound(args) -> int:
    report = generalization_bound(args.r_hat, args.beta, args.B, args.m, args.u, args.delta)
    _emit(_dump_json(report.as_dict()), args.out)
    return 0


def _cmd_lowerbound(args) -> int:
    demo = cm_lower_bound_demo(args.m, args.C)
    ok = (
        abs(demo["measured_delta"] - demo["predicted_a"]) <= 1e-9
        and demo["predicted_a"] >= demo["floor"] - 1e-9
    )
    demo["ok"] = ok
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"stabreg: parse error: {exc}", file=sys.stderr)
        return 2
    except StabregError as exc:
        print(f"stabreg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"stabreg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
