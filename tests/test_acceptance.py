"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible even
under plain ``pytest``) and then asserts, so the suite doubles as a
human-readable acceptance report.  Oracles are independent of the library
code they check: gradient descent for the closed-form solvers, random
feasible points for the constrained solver, exhaustive swap enumeration for
the stability coefficients, and Monte-Carlo tails for the concentration
bound.  Criteria 01-06 and 08 run the checks in ``stabreg.checks`` that
``stabreg verify`` runs, at the seeds and counts below.
"""

import csv
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabreg import (
    FullSample,
    KernelSystem,
    LocalEstimatorConfig,
    StabregError,
    beta_loc_invdist,
    checks,
    cli,
    empirical_error,
    empirical_stability,
    enumerate_swaps,
    gaussian_kernel,
    generalization_bound,
    ltr_stability_bound,
    pseudo_targets,
    sample_partition,
    test_error,
)
from stabreg.cli import (
    ALGORITHMS,
    ExperimentConfig,
    derive_seed,
    load_and_normalize,
    m_of_r,
    run_experiment,
    select_radius,
)


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {status} — {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _criterion(capsys, num: int, name: str, limit_s: float, check, *args) -> None:
    """Run a shared check and report it; it fails when slower than ``limit_s``."""
    start = time.perf_counter()
    ok, detail = check(*args)
    elapsed = time.perf_counter() - start
    _report(capsys, num, name, ok and elapsed < limit_s, f"{detail}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 1-6. solvers against their oracles, swap stability, the worst-case
# instance and the concentration tails (stabreg.checks)
# --------------------------------------------------------------------------


def test_criterion_01_unconstrained_matches_descent_oracle(capsys):
    _criterion(capsys, 1, "closed form vs descent oracle", 10.0,
               checks.unconstrained_oracle, 101, 50)


def test_criterion_02_constrained_beats_random_feasible_points(capsys):
    _criterion(capsys, 2, "constrained optimality", 30.0,
               checks.constrained_optimality, 202, 20)


def test_criterion_03_pinv_kernel_equivalence(capsys):
    _criterion(capsys, 3, "constrained == L-pseudo-inverse kernel solve", 10.0,
               checks.pinv_kernel_equivalence, 303, 10)


def test_criterion_04_swap_stability_upper_bounds(capsys):
    _criterion(capsys, 4, "196 exhaustive swaps under the score-stability bounds", 120.0,
               checks.swap_stability, 404)


def test_criterion_05_lower_bound_instance(capsys):
    _criterion(capsys, 5, "lower-bound instance", 5.0, checks.lower_bound_instance)


def test_criterion_06_concentration_tails(capsys):
    _criterion(capsys, 6, "binary-population tail bound", 60.0,
               checks.concentration_tails, 600, 100_000, 500)


# --------------------------------------------------------------------------
# 7. generalization bound covers the test error on random partitions
# --------------------------------------------------------------------------


def test_criterion_07_bound_coverage(capsys):
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    n, m = 200, 100
    points = rng.normal(size=(n, 2))
    targets = 0.8 * np.tanh(points[:, 0]) + 0.05 * rng.normal(size=n)
    M = float(np.max(np.abs(targets)))
    sample = FullSample(points=points, targets=targets, label_bound_M=M)
    system = KernelSystem(gaussian_kernel(points, sigma=1.0))  # checked once for every partition
    kappa, C, C_prime, r, delta = 1.0, 1.0, 1.0, 1.5, 0.1
    est = LocalEstimatorConfig(radius_r=r, weighting="inverse-distance",
                               fallback="zero")
    B = M * (1.0 + kappa * math.sqrt(C + C_prime))
    violations = 0
    total = 500
    for i in range(total):
        part = sample_partition(sample, m, seed=derive_seed(700, i))
        y_tilde = pseudo_targets(sample, part, est)
        h = system.solve(part, sample.targets[part.train_idx], y_tilde, C, C_prime)
        m_r = m_of_r(sample, part, r)
        beta = ltr_stability_bound(
            m=part.m, u=part.u, C=C, C_prime=C_prime, kappa=kappa, M=M,
            beta_loc=beta_loc_invdist(M, m_r, r),
        )
        report = generalization_bound(
            empirical_error(h, sample, part), beta, B, part.m, part.u, delta
        )
        if test_error(h, sample, part) > report.bound_value:
            violations += 1
    rate = violations / total
    elapsed = time.perf_counter() - start
    ok = rate <= delta and elapsed < 300.0
    _report(
        capsys, 7, "delta=0.1 bound coverage over 500 partitions",
        ok, f"violation rate {rate:.3f} <= {delta}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 8. kernel solver output bound fuzz (stabreg.checks)
# --------------------------------------------------------------------------


def test_criterion_08_output_bound_fuzz(capsys):
    _criterion(capsys, 8, "|h| <= kappa M sqrt(C + C') under fuzz", math.inf,
               checks.ltr_output_bound, 808, 1000)


# --------------------------------------------------------------------------
# 9. 506-row protocol: locally enhanced solver beats pure induction
# --------------------------------------------------------------------------


def _write_csv(path, points, targets):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(points.shape[1])] + ["target"])
        for row, t in zip(points, targets):
            writer.writerow([f"{v:.10f}" for v in row] + [f"{t:.10f}"])


def _housing_like_csv(path, n=506):
    """n x 13 stand-in with the benchmark's shape (real file is user-supplied)."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(n, 13))
    x[:, 3] = (x[:, 3] > 0.8).astype(float)
    x[:, 7] = np.abs(x[:, 7]) * 3.0 + 1.0
    y = (
        22.0
        + 6.0 * np.tanh(x[:, 0])
        - 4.0 * x[:, 1] / (1.0 + x[:, 7] / 4.0)
        + 3.0 * np.sin(1.5 * x[:, 2])
        + 2.0 * x[:, 3]
        + rng.normal(scale=1.5, size=n)
    )
    _write_csv(path, x, y)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_swap_at_n80_moves_the_cost_by_at_most_the_printed_beta(tmp_path, algorithm):
    """All 1,600 swaps of partition 0 at n = 80, where ``stability --empirical`` samples 400.

    The fit is the one ``stability`` builds, and its swap engine evaluates
    every swap.  This checks the cost coefficient beta only.  The
    pseudo-target stability beta_loc inside ltr's beta is not checked: it
    counts the labeled points around the sample's centroid, where the bound
    needs the count around each unlabeled point.
    """
    data = tmp_path / "housing_like_80.csv"
    _housing_like_csv(data, 80)
    options = (dict(radius_grid=(4.0,), C_prime=1.0, weighting="inverse-distance")
               if algorithm == "ltr" else {})
    cfg = ExperimentConfig(data_path=str(data), algorithm=algorithm, target_scale=1.0 / 50.0,
                           **options)
    sample, _ = cli._load(cfg)
    part = cli._partition(sample, cfg, 0)
    fit = cli._setup(sample, part, cfg, cli._resolve_sigma(sample, part, cfg))
    report = empirical_stability(fit.solve, sample, part, swaps=enumerate_swaps(part),
                                 batch=fit.swap_engine())
    assert report.mode == "exhaustive"
    assert report.swaps_evaluated == report.swaps_total == 1600
    assert report.max_cost_delta <= fit.beta


@pytest.fixture(scope="module")
def housing_like_csvs(tmp_path_factory):
    """The housing-like fixture at n = 40, 80 and 160."""
    root = tmp_path_factory.mktemp("housing_like")
    paths = {n: root / f"housing_like_{n}.csv" for n in (40, 80, 160)}
    for n, path in paths.items():
        _housing_like_csv(path, n)
    return paths


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _flag_sets(draw, algorithm: str):
    """One ``stability`` flag set for ``algorithm``: its trade-offs, sigma and the split."""
    family = algorithm.removeprefix("stabilized-")
    weight = _log_uniform(0.01, 100.0)
    if family == "cm":
        options = {"mu": draw(weight)}
    elif family in ("llreg", "gmf"):
        options = {"C_l": draw(weight), "C_u": draw(weight)}
    else:
        options = {"C": draw(weight)}
    if algorithm == "ltr":
        options |= {"radius_grid": (draw(st.floats(0.5, 6.0)),),
                    "C_prime": draw(_log_uniform(0.01, 10.0)),
                    "weighting": draw(st.sampled_from(("gaussian", "inverse-distance")))}
    return draw(st.sampled_from((40, 80, 160))), dict(
        sigma=draw(_log_uniform(0.3, 32.0)),
        m_fraction=draw(st.sampled_from((0.2, 0.5, 0.8))),
        target_scale=draw(st.sampled_from((0.02, 0.1, 1.0))),
        seed=draw(st.integers(0, 2**32 - 1)), **options)


@pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "laplacian"])
@given(data=st.data())
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_printed_coefficients_cover_every_swap(housing_like_csvs, algorithm, data):
    """Each coefficient ``stability`` prints covers the movement over all m*u swaps.

    The fit is the one ``stability`` builds, and its swap engine evaluates
    every swap.  Not asserted, because each is measured to fail or is not
    measured (ROADMAP item 1): laplacian's cost beta, the ``score_bound`` of
    stabilized-llreg and stabilized-gmf, and ltr's beta_loc.  A draw that
    raises a documented StabregError prints no coefficient.
    """
    n, options = data.draw(_flag_sets(algorithm))
    cfg = ExperimentConfig(data_path=str(housing_like_csvs[n]), algorithm=algorithm, **options)
    sample, _ = cli._load(cfg)
    part = cli._partition(sample, cfg, 0)
    try:
        fit = cli._setup(sample, part, cfg, cfg.sigma)
        report = empirical_stability(fit.solve, sample, part, swaps=enumerate_swaps(part),
                                     batch=fit.swap_engine())
    except StabregError:
        return
    assert report.mode == "exhaustive"
    printed = fit.stability_fields
    covered = {"cost beta": (report.max_cost_delta, fit.beta)}
    if algorithm in ("cm", "llreg", "gmf", "stabilized-cm"):
        covered["score_bound"] = (report.max_score_delta, printed["score_bound"])
    if algorithm == "llreg":
        covered["score_bound_spectral"] = (report.max_score_delta,
                                           printed["score_bound_spectral"])
    for name, (measured, bound) in covered.items():
        assert measured <= bound * (1.0 + 1e-9), f"{name}: {measured} > {bound}"


def test_criterion_09_protocol_beats_induction(capsys, tmp_path):
    start = time.perf_counter()
    data = tmp_path / "housing_like.csv"
    _housing_like_csv(data)
    common = dict(
        data_path=str(data), target_scale=1.0 / 50.0, m_fraction=0.5,
        partitions=50, seed=0, C=1.0, sigma="cv",
    )
    report_krr = run_experiment(ExperimentConfig(algorithm="krr", **common))
    report_ltr = run_experiment(
        ExperimentConfig(
            algorithm="ltr", C_prime=1.0, radius_grid=(4.0,),
            weighting="inverse-distance", **common,
        )
    )
    assert report_krr["m"] == report_krr["u"] == 253
    mean_krr = report_krr["aggregates"]["test_mse"]["mean"]
    mean_ltr = report_ltr["aggregates"]["test_mse"]["mean"]
    elapsed = time.perf_counter() - start
    ok = mean_ltr <= mean_krr and elapsed < 600.0
    _report(
        capsys, 9, "m=u=253, 50 partitions, cross-validated sigma",
        ok,
        f"mean test MSE: local {mean_ltr:.4f} <= induction {mean_krr:.4f}, "
        f"{elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 10. selected radius tracks the test-MSE argmin
# --------------------------------------------------------------------------


def test_criterion_10_radius_selection(capsys, tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    x = rng.normal(size=(120, 2))
    y = np.tanh(x[:, 0] / 2.0) + 0.25 * rng.normal(size=120)
    data = tmp_path / "locality.csv"
    _write_csv(data, x, y)
    sample = load_and_normalize(str(data))
    grid = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    cfg = ExperimentConfig(
        data_path=str(data), algorithm="ltr", sigma=1.0, radius_grid=grid,
        C=1.0, C_prime=1.0, weighting="inverse-distance",
    )
    hits = 0
    runs = 20
    for run in range(runs):
        part = sample_partition(sample, 60, derive_seed(run, 0))
        r_star, per_r = select_radius(sample, part, cfg)
        feasible = [row for row in per_r if row["feasible"]]
        r_best = min(feasible, key=lambda row: row["test_mse"])["r"]
        if abs(grid.index(r_star) - grid.index(r_best)) <= 2:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 0.7 * runs and elapsed < 300.0
    _report(
        capsys, 10, "r_star within 2 grid steps of test-MSE argmin",
        ok, f"{hits}/{runs} runs (need >= {int(0.7 * runs)}), {elapsed:.1f}s",
    )
