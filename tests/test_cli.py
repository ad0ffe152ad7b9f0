"""Data loading, experiment protocol, radius selection, and the CLI surface."""

import csv
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from stabreg import (
    ConcentrationResult,
    ConstrainedProblem,
    FullSample,
    HypothesisScores,
    KernelSystem,
    LocalEstimatorConfig,
    LtrProblem,
    NoSweepData,
    ParseError,
    Partition,
    PseudoTargetUnavailable,
    QuadraticSystem,
    SwapPair,
    UnconstrainedProblem,
    ZeroVarianceFeature,
    apply_swap,
    build_cm,
    build_gmf,
    build_llreg,
    empirical_error,
    empirical_stability,
    enumerate_swaps,
    gaussian_affinity,
    gaussian_kernel,
    laplacian,
    pseudo_targets,
    sample_partition,
    solve_constrained,
    solve_krr_induction,
    solve_ltr,
    solve_unconstrained,
    spectrum,
    stabilize,
    test_error,
)
from stabreg import checks, cli, swaps
from stabreg import graph as graph_module
from stabreg.regressors import graph_quadratic
from stabreg.cli import (
    ALGORITHMS,
    ExperimentConfig,
    _cv_sigma,
    _dump_json,
    _ltr_at,
    build_parser,
    derive_seed,
    emit_plot_data,
    load_and_normalize,
    m_of_r,
    main,
    run_experiment,
    select_radius,
    verify_suite,
)


@pytest.fixture()
def toy_graph(tmp_path):
    """A connected 24-vertex edge list for the toy sample: a ring plus chords."""
    lines = [f"{i} {i % 24 + 1} {0.5 + (i % 3) / 4}\n" for i in range(1, 25)]
    lines += [f"{i} {(i + 4) % 24 + 1} 0.25\n" for i in range(1, 25, 2)]
    path = tmp_path / "toy_graph.txt"
    path.write_text("".join(lines))
    return str(path)


@pytest.fixture()
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 24
    x = rng.normal(size=(n, 3))
    y = np.tanh(x[:, 0] - 0.5 * x[:, 1]) + 0.05 * rng.normal(size=n)
    path = tmp_path / "toy.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f1", "f2", "f3", "target"])
        for row, t in zip(x, y):
            writer.writerow([*(f"{v:.8f}" for v in row), f"{t:.8f}"])
    return str(path)


# ---------------------------------------------------------------------------
# loading and normalization


def test_load_and_normalize_invariants(toy_csv):
    sample = load_and_normalize(toy_csv)
    assert np.all(np.abs(sample.points.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(sample.points.var(axis=0) - 1.0) <= 1e-9)
    assert sample.label_bound_M == pytest.approx(float(np.max(np.abs(sample.targets))))


def test_load_applies_target_scale(toy_csv):
    plain = load_and_normalize(toy_csv)
    scaled = load_and_normalize(toy_csv, target_scale=0.5)
    assert np.allclose(scaled.targets, 0.5 * plain.targets)
    assert scaled.label_bound_M == pytest.approx(0.5 * plain.label_bound_M)


def test_load_drops_constant_column_with_warning(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("a,b,t\n1,5,0.1\n2,5,0.2\n3,5,0.3\n")
    with pytest.warns(ZeroVarianceFeature):
        sample = load_and_normalize(str(path))
    assert sample.dimension == 1


def test_load_reports_cell_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,t\n1,0.5\n2,oops\n")
    with pytest.raises(ParseError) as exc_info:
        load_and_normalize(str(path))
    assert exc_info.value.row == 3  # header is row 1
    assert exc_info.value.column == 2


def test_load_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,t\n1,2,0.5\n1,2\n")
    with pytest.raises(ParseError) as exc_info:
        load_and_normalize(str(path))
    assert exc_info.value.row == 3


def test_load_rejects_single_column(tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("t\n1\n2\n")
    with pytest.raises(ParseError):
        load_and_normalize(str(path))


def test_load_zero_targets_fall_back_to_unit_bound(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("a,t\n1,0\n2,0\n3,0\n")
    sample = load_and_normalize(str(path))
    assert sample.label_bound_M == 1.0


# ---------------------------------------------------------------------------
# labeled mass of the central ball


def test_m_of_r_counts_labeled_points_only():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.5, 0.0], [10.0, 0.0]])
    sample = FullSample(points=pts, targets=np.zeros(4), label_bound_M=1.0)
    from stabreg import Partition

    part = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))
    assert m_of_r(sample, part, 1.0) == 1  # only the origin point is labeled and close
    assert m_of_r(sample, part, 5.0) == 2
    assert m_of_r(sample, part, 0.0) == 1  # boundary included


def test_m_of_r_rejects_negative_radius(toy_csv):
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 10, 0)
    with pytest.raises(ValueError):
        m_of_r(sample, part, -0.5)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation(toy_csv):
    with pytest.raises(ValueError):
        ExperimentConfig(data_path=toy_csv, algorithm="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(data_path=toy_csv, m_fraction=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(data_path=toy_csv, radius_grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(data_path=toy_csv, algorithm="ltr")  # missing radii
    with pytest.raises(ValueError):
        ExperimentConfig(data_path=toy_csv, sigma="sometimes")


def test_derive_seed_injective_over_runs():
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, 0) != derive_seed(8, 0)


# ---------------------------------------------------------------------------
# experiment protocol


def test_run_experiment_deterministic(toy_csv):
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="krr", partitions=3, seed=11, sigma=1.0
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_experiment_jobs_do_not_change_results(toy_csv):
    base = ExperimentConfig(
        data_path=toy_csv, algorithm="cm", partitions=4, seed=3, sigma="median"
    )
    parallel = ExperimentConfig(
        data_path=toy_csv, algorithm="cm", partitions=4, seed=3, sigma="median", jobs=3
    )
    assert json.dumps(run_experiment(base)["records"], sort_keys=True) == json.dumps(
        run_experiment(parallel)["records"], sort_keys=True
    )


def test_run_experiment_bound_dominates_train_error(toy_csv):
    for algo in ("krr", "cm", "llreg", "gmf", "laplacian"):
        cfg = ExperimentConfig(
            data_path=toy_csv, algorithm=algo, partitions=2, seed=1, sigma="median"
        )
        report = run_experiment(cfg)
        for record in report["records"]:
            assert record["bound_value"] >= record["train_mse"]


def test_run_experiment_aggregates_recompute(toy_csv):
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="krr", partitions=5, seed=2, sigma=1.0
    )
    report = run_experiment(cfg)
    for key, agg in report["aggregates"].items():
        vals = np.array([r[key] for r in report["records"]])
        assert agg["mean"] == pytest.approx(float(vals.mean()), abs=1e-12)
        assert agg["std"] == pytest.approx(float(vals.std()), abs=1e-12)


def test_run_experiment_stabilized_variants(toy_csv):
    for algo in ("stabilized-cm", "stabilized-llreg", "stabilized-gmf"):
        cfg = ExperimentConfig(
            data_path=toy_csv, algorithm=algo, partitions=1, seed=4, sigma="median"
        )
        report = run_experiment(cfg)
        assert len(report["records"]) == 1
        assert report["records"][0]["bound_value"] >= report["records"][0]["train_mse"]


def test_run_experiment_ltr_sweep_attaches_per_r(toy_csv):
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", partitions=2, seed=6, sigma=1.0,
        radius_grid=(0.8, 1.2, 1.6, 2.0), C_prime=0.5,
    )
    report = run_experiment(cfg)
    for record in report["records"]:
        assert record["r_star"] in cfg.radius_grid
        assert len(record["per_r"]) == 4


def test_run_experiment_provenance_echoes_config(toy_csv):
    cfg = ExperimentConfig(data_path=toy_csv, algorithm="krr", seed=9, sigma=2.0)
    report = run_experiment(cfg)
    assert report["provenance"]["config"]["seed"] == 9
    assert report["provenance"]["config"]["sigma"] == 2.0
    assert report["provenance"]["tool"] == "stabreg"


# ---------------------------------------------------------------------------
# radius selection


def test_select_radius_minimizes_reported_objective(toy_csv):
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 12, derive_seed(0, 0))
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", sigma=1.0,
        radius_grid=(0.6, 1.0, 1.4, 1.8, 2.2), C_prime=0.5,
    )
    r_star, per_r = select_radius(sample, part, cfg)
    feasible = [row for row in per_r if row["feasible"] and math.isfinite(row["objective"])]
    best = min(feasible, key=lambda row: (row["objective"], row["r"]))
    assert r_star == best["r"]


def test_select_radius_objective_is_train_plus_slack(toy_csv):
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 12, derive_seed(1, 0))
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", sigma=1.0,
        radius_grid=(1.0, 1.5), C_prime=0.5,
    )
    _, per_r = select_radius(sample, part, cfg)
    for row in per_r:
        if row["feasible"] and math.isfinite(row["objective"]):
            assert row["objective"] == pytest.approx(
                row["train_mse"] + row["slack"], abs=1e-12
            )


def test_select_radius_never_selects_by_test_mse(toy_csv):
    # the diagnostic test error column must not drive the choice: selection
    # recomputed from the bound objective alone must match
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 12, derive_seed(2, 0))
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", sigma=1.0,
        radius_grid=(0.6, 1.0, 1.4, 1.8), C_prime=0.5,
    )
    r_star, per_r = select_radius(sample, part, cfg)
    objective_only = min(
        (row for row in per_r if row["feasible"] and math.isfinite(row["objective"])),
        key=lambda row: (row["objective"], row["r"]),
    )
    assert r_star == objective_only["r"]


def test_select_radius_all_infeasible_raises(tmp_path):
    # two far-apart clusters: tiny radii leave every unlabeled point stranded
    path = tmp_path / "far.csv"
    rows = ["a,t"]
    for i in range(6):
        rows.append(f"{i * 100.0},{(i % 2) * 0.5}")
    path.write_text("\n".join(rows) + "\n")
    sample = load_and_normalize(str(path))
    part = sample_partition(sample, 3, 0)
    cfg = ExperimentConfig(
        data_path=str(path), algorithm="ltr", sigma=1.0,
        radius_grid=(1e-6,), C_prime=0.5, fallback="error",
    )
    from stabreg import NoFeasibleRadius

    with pytest.raises(NoFeasibleRadius):
        select_radius(sample, part, cfg)


@pytest.mark.parametrize("fallback", ["zero", "error"])
@pytest.mark.parametrize("C_prime", [0.5, 0.0])
def test_select_radius_matches_one_solve_per_radius(toy_csv, C_prime, fallback):
    # the sweep solves every radius at once; the oracle solves each radius
    # from scratch through the same entry run and stability use
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 12, derive_seed(0, 0))
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", sigma=1.0, C_prime=C_prime,
        radius_grid=(0.5, 1.5, 2.5, 3.0), fallback=fallback,
    )
    kern = gaussian_kernel(sample.points, 1.0)
    fits = {}
    r_star, per_r = select_radius(sample, part, cfg, fits=fits)
    assert [row["r"] for row in per_r] == list(cfg.radius_grid)
    infeasible = [row for row in per_r if not row["feasible"]]
    assert len(infeasible) == (2 if fallback == "error" else 0)
    assert r_star in fits
    for row in per_r:
        fit = _ltr_at(sample, part, cfg, 1.0, KernelSystem(kern), row["r"])
        if not row["feasible"]:
            with pytest.raises(PseudoTargetUnavailable) as exc_info:
                fit.solve(sample, part)
            assert row["reason"] == str(exc_info.value)
            assert row["r"] not in fits
            continue
        h = fit.solve(sample, part).scores
        swept = fits[row["r"]][1].scores
        assert np.max(np.abs(swept - h)) <= 1e-10 * np.max(np.abs(h))
        assert row["train_mse"] == pytest.approx(empirical_error(h, sample, part), rel=1e-10)
        assert row["test_mse"] == pytest.approx(test_error(h, sample, part), rel=1e-10)
        assert row["beta"] == fit.beta


def _cv_sigma_per_fold(sample, part, C):
    """Sigma selection with a Gaussian kernel built per fold and a broadcast cross-kernel."""
    xs = sample.points[part.train_idx]
    ys = sample.targets[part.train_idx]
    sq = np.sum(xs * xs, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T)
    np.maximum(d2, 0.0, out=d2)
    upper = d2[np.triu_indices(xs.shape[0], k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    med = med if med > 0 else 1.0
    folds = np.array_split(np.arange(xs.shape[0]), min(5, xs.shape[0]))
    best = (math.inf, med)
    for factor in (0.1, 0.3, 1.0, 3.0, 10.0):
        sig = factor * med
        err = 0.0
        count = 0
        for fold in folds:
            if fold.size == 0 or fold.size == xs.shape[0]:
                continue
            fit = np.setdiff1d(np.arange(xs.shape[0]), fold, assume_unique=True)
            reg = gaussian_kernel(xs[fit], sig) + (fit.size / max(C, 1e-12)) * np.eye(fit.size)
            try:
                coef = np.linalg.solve(reg, ys[fit])
            except np.linalg.LinAlgError:
                err = math.inf
                break
            diff = xs[fold][:, None, :] - xs[fit][None, :, :]
            cross = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * sig * sig))
            err += float(np.sum((cross @ coef - ys[fold]) ** 2))
            count += fold.size
        score = err / count if count else math.inf
        if score < best[0]:
            best = (score, sig)
    return best[1]


@pytest.mark.parametrize("seed", range(6))
def test_cv_sigma_matches_the_per_fold_loop(toy_csv, seed):
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 12, derive_seed(seed, 0))
    for C in (0.1, 1.0, 10.0):
        assert _cv_sigma(sample, part, C) == _cv_sigma_per_fold(sample, part, C)


# ---------------------------------------------------------------------------
# plot data


def test_emit_plot_data_mse_rows(toy_csv):
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", partitions=3, seed=8, sigma=1.0,
        radius_grid=(0.8, 1.2, 1.6), C_prime=0.5,
    )
    report = run_experiment(cfg)
    rows = emit_plot_data(report, "mse_vs_r")
    assert [row["r"] for row in rows] == sorted(row["r"] for row in rows)
    # recompute one mean by hand
    r0 = rows[0]["r"]
    values = [
        row["test_mse"]
        for record in report["records"]
        for row in record["per_r"]
        if row["feasible"] and row["r"] == r0
    ]
    assert rows[0]["mean"] == pytest.approx(float(np.mean(values)), abs=1e-12)


def test_emit_plot_data_bound_rows_scale(toy_csv):
    cfg = ExperimentConfig(
        data_path=toy_csv, algorithm="ltr", partitions=2, seed=8, sigma=1.0,
        radius_grid=(1.0, 1.5), C_prime=0.5,
    )
    report = run_experiment(cfg)
    rows_full = emit_plot_data(report, "bound_vs_r", plot_scale=1.0)
    rows_tenth = emit_plot_data(report, "bound_vs_r", plot_scale=0.1)
    assert rows_tenth[0]["mean"] < rows_full[0]["mean"]


def test_emit_plot_data_requires_sweep(toy_csv):
    cfg = ExperimentConfig(data_path=toy_csv, algorithm="krr", partitions=1, sigma=1.0)
    report = run_experiment(cfg)
    with pytest.raises(NoSweepData):
        emit_plot_data(report, "mse_vs_r")


def test_emit_plot_data_rejects_unknown_kind(toy_csv):
    with pytest.raises(ValueError):
        emit_plot_data({"records": [{"per_r": [{"feasible": True, "r": 1.0}]}]}, "nope")


# ---------------------------------------------------------------------------
# verification suite


def test_verify_suite_catches_broken_variance_factor(monkeypatch):
    import stabreg.bounds as bounds_mod

    original = bounds_mod.alpha
    monkeypatch.setattr(bounds_mod, "alpha", lambda m, u: original(m, u) * 1.01)
    summary = verify_suite("fast", seed=0)
    assert not summary["passed"]
    assert any(
        check["name"] == "alpha-formula" and not check["passed"]
        for check in summary["checks"]
    )


def _shifted(solve, by):
    return lambda problem: HypothesisScores(scores=solve(problem).scores + by)


def _loose_tail(harness):
    def broken(*args, **kwargs):
        tail, bound = harness(*args, **kwargs)
        return ConcentrationResult(tail, bound / 10.0)
    return broken


def _scaled_lambda2(by):
    return lambda spectrum: lambda mat: replace(spectrum(mat), lambda2=by * spectrum(mat).lambda2)


@pytest.mark.parametrize("check, name, breaks", [
    ("unconstrained-oracle", "solve_unconstrained", lambda f: _shifted(f, 1e-6)),
    ("constrained-optimality", "solve_constrained", lambda f: _shifted(f, 1e-3)),
    ("rkhs-equivalence", "pseudo_inverse", lambda f: lambda mat: 1.01 * f(mat)),
    ("swap-stability-closed-forms", "cm_score_bound", lambda f: lambda M: f(M) / 10.0),
    ("lower-bound-instance", "cm_lower_bound_demo",
     lambda f: lambda m, C: {**f(m, C), "measured_delta": 1.01 * f(m, C)["measured_delta"]}),
    ("concentration-harness", "concentration_harness", _loose_tail),
    ("ltr-max-value", "solve_ltr", lambda f: _shifted(f, 100.0)),
    # a lambda2 too large shrinks the constrained bound below the measured swaps; one too
    # small leaves every draw outside the bound's regime m lambda2 / C > 1
    pytest.param("swap-stability-closed-forms", "spectrum", _scaled_lambda2(100.0),
                 id="swap-stability-closed-forms-lambda2-too-large"),
    pytest.param("swap-stability-closed-forms", "spectrum", _scaled_lambda2(1e-3),
                 id="swap-stability-closed-forms-lambda2-too-small"),
])
def test_verify_suite_catches_a_broken_library_function(monkeypatch, check, name, breaks):
    monkeypatch.setattr(checks, name, breaks(getattr(checks, name)))
    summary = verify_suite("fast", seed=0)
    assert not summary["passed"]
    assert not {c["name"]: c["passed"] for c in summary["checks"]}[check]


def test_verify_suite_rejects_unknown_level():
    with pytest.raises(ValueError):
        verify_suite("medium")


# ---------------------------------------------------------------------------
# command-line entry points


def test_cli_run_writes_json_report(toy_csv, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "run", "--data", toy_csv, "--algorithm", "krr", "--partitions", "2",
            "--seed", "5", "--sigma", "1.0", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["records"]) == 2


def test_cli_run_csv_format(toy_csv, tmp_path, capsys):
    code = main(
        ["run", "--data", toy_csv, "--algorithm", "cm", "--sigma", "median",
         "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert "train_mse" in header and "bound_value" in header
    assert len(lines) == 2  # header + one partition


def test_cli_select_radius(toy_csv, tmp_path):
    out = tmp_path / "sel.json"
    code = main(
        ["select-radius", "--data", toy_csv, "--radius", "0.8,1.2,1.6",
         "--C-prime", "0.5", "--sigma", "1.0", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["r_star"] in (0.8, 1.2, 1.6)
    assert len(payload["per_r"]) == 3


def test_cli_bound_value_matches_library(capsys):
    code = main(
        ["bound", "--r-hat", "0.1", "--beta", "0.05", "--B", "1.0",
         "-m", "100", "-u", "100", "--delta", "0.05"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound_value"] == pytest.approx(1.1924008501909773, abs=1e-10)


def test_cli_lowerbound_demo_ok(capsys):
    code = main(["lowerbound-demo", "--m", "4", "--C", "2.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_cli_verify_fast(capsys):
    code = main(["verify", "--level", "fast", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS overall (11/11 checks)" in out


def test_cli_emit_plot_round_trip(toy_csv, tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    assert main(
        ["run", "--data", toy_csv, "--algorithm", "ltr", "--partitions", "2",
         "--radius", "0.8,1.2,1.6", "--C-prime", "0.5", "--sigma", "1.0",
         "--out", str(report_path)]
    ) == 0
    code = main(["emit-plot", "--report", str(report_path), "--kind", "mse_vs_r"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,mean,std"
    assert len(lines) == 4


def test_cli_exit_code_two_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,t\n1,x\n")
    code = main(["run", "--data", str(bad), "--algorithm", "krr"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cli_exit_code_two_on_non_finite_cell(tmp_path, capsys, cell):
    bad = tmp_path / "nonfinite.csv"
    bad.write_text(f"a,t\n1,0.5\n2,0.1\n{cell},0.2\n")
    with pytest.raises(ParseError) as exc_info:
        load_and_normalize(str(bad))
    assert (exc_info.value.row, exc_info.value.column) == (4, 1)
    code = main(["run", "--data", str(bad), "--algorithm", "krr"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_stability_laplacian_rejects_zero_C(toy_csv, capsys):
    code = main(["stability", "--data", toy_csv, "--algorithm", "laplacian", "--C", "0"])
    assert code == 2
    assert "C_tradeoff must be positive" in capsys.readouterr().err


def test_cli_exit_code_two_on_missing_file(capsys):
    code = main(["run", "--data", "/nonexistent/x.csv", "--algorithm", "krr"])
    assert code == 2


def test_cli_exit_code_one_on_failed_demo(monkeypatch, capsys):
    # force a mismatch so the demo reports failure
    import stabreg.cli as cli_mod

    def broken_demo(m, c_val):
        return {
            "m": m, "C": c_val, "removed": 0, "added": 1,
            "predicted_a": 0.5, "measured_delta": 0.9, "floor": 0.1,
        }

    monkeypatch.setattr(cli_mod, "cm_lower_bound_demo", broken_demo)
    assert main(["lowerbound-demo", "--m", "2", "--C", "1.0"]) == 1


def test_parser_rejects_bad_sigma():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--data", "x.csv", "--sigma", "-1"])


# ---------------------------------------------------------------------------
# the stability subcommand


def _run_and_stability(toy_csv, algorithm, capsys):
    """run's record and stability --empirical's report for partition 0 of seed 0."""
    extra = ["--radius", "1.5", "--C-prime", "0.5"] if algorithm == "ltr" else []
    assert main(["run", "--data", toy_csv, "--algorithm", algorithm, *extra]) == 0
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert main(
        ["stability", "--data", toy_csv, "--algorithm", algorithm, "--empirical", *extra]
    ) == 0
    return record, json.loads(capsys.readouterr().out)


def test_cli_stability_ltr_evaluates_the_radius_run_selects(toy_csv, capsys):
    extra = ["--radius", "0.8,1.5", "--C-prime", "0.5"]
    assert main(["run", "--data", toy_csv, "--algorithm", "ltr", *extra]) == 0
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert main(["stability", "--data", toy_csv, "--algorithm", "ltr", *extra]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["r_star"] == record["r_star"]
    assert report["cost_bound"] == record["beta_used"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_stability_reports_the_coefficients_run_uses(toy_csv, algorithm, capsys):
    record, report = _run_and_stability(toy_csv, algorithm, capsys)
    assert report["cost_bound"] == record["beta_used"]
    assert report["B"] == record["B"]
    if "score_beta" in record:
        assert report["score_bound"] == record["score_beta"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_stability_empirical_within_cost_bound(toy_csv, algorithm, capsys):
    _, report = _run_and_stability(toy_csv, algorithm, capsys)
    empirical = report["empirical"]
    assert empirical["mode"] == "exhaustive"
    assert empirical["swaps_evaluated"] == report["m"] * report["u"] == 144
    assert empirical["max_cost_delta"] <= report["cost_bound"]


SWAP_FLAGS = ["--C", "2", "--mu", "0.7", "--C-l", "2", "--C-u", "0.5"]


def _per_swap_solver(algorithm, sample, sigma):
    """The swap solver as a closure that rebuilds and rechecks everything per call.

    Every partition gets its own problem from the public builders, and the
    public solvers run their PSD, null-space and eigenvector work each time,
    with the trade-offs of ``SWAP_FLAGS`` (and ltr at r = 1.5, C' = 0.5).
    """
    family = algorithm.removeprefix("stabilized-")
    if family in ("krr", "ltr"):
        kern = gaussian_kernel(sample.points, sigma)
        local = LocalEstimatorConfig(radius_r=1.5, sigma=sigma, fallback="zero")

        def solve_kernel(s, p):
            y = s.targets[p.train_idx]
            if family == "krr":
                return solve_krr_induction(LtrProblem(
                    K=kern, part=p, y=y, y_tilde=np.zeros(0), C=2.0, C_prime=0.0, kappa=1.0))
            return solve_ltr(LtrProblem(K=kern, part=p, y=y, y_tilde=pseudo_targets(s, p, local),
                                        C=2.0, C_prime=0.5, kappa=1.0))
        return solve_kernel
    graph = gaussian_affinity(sample.points, sigma)

    def solve_graph(s, p):
        y = s.targets[p.train_idx]
        if family == "laplacian":
            return solve_constrained(ConstrainedProblem(
                L=laplacian(graph), C_tradeoff=2.0, part=p, y_S=y, center_labels=True))
        if family == "cm":
            problem = build_cm(graph, 0.7, y, p)
        elif family == "llreg":
            problem = build_llreg(graph.weights, 2.0, 0.5, y, p)
        else:
            problem = build_gmf(graph, 2.0, 0.5, y, p)
        return solve_unconstrained(problem) if family == algorithm else stabilize(problem)
    return solve_graph


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_stability_empirical_matches_the_per_swap_solver(toy_csv, algorithm, capsys):
    extra = ["--radius", "1.5", "--C-prime", "0.5"] if algorithm == "ltr" else []
    assert main(["stability", "--data", toy_csv, "--algorithm", algorithm, "--empirical",
                 *SWAP_FLAGS, *extra]) == 0
    report = json.loads(capsys.readouterr().out)
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, report["m"], derive_seed(0, 0))
    reference = empirical_stability(
        _per_swap_solver(algorithm, sample, report["sigma"]), sample, part, B=report["B"], seed=0
    )
    # the CLI's rank-2 swap updates round differently from per-swap solves:
    # the two maxima agree to 1e-10, every other value exactly
    _assert_close(report, json.loads(_dump_json({**report, "empirical": asdict(reference)})))


def _home_fit(data, algorithm, target_scale=1.0, **options):
    """Partition 0 of seed 0 and the CLI's fit of ``algorithm`` on it."""
    cfg = ExperimentConfig(data_path=data, algorithm=algorithm, target_scale=target_scale,
                           **options)
    sample = load_and_normalize(data, target_scale)
    part = sample_partition(sample, cli._labeled_size(cfg, sample.n), derive_seed(0, 0))
    sigma = cli._resolve_sigma(sample, part, cfg)
    return sample, part, cli._setup(sample, part, cfg, sigma)


def _assert_engine_matches_per_swap_solves(sample, part, fit, removed, added):
    got = fit.swap_engine()(removed, added)
    want = np.vstack([fit.solve(sample, apply_swap(part, SwapPair(removed=i, added=j))).scores
                      for i, j in zip(removed, added)])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))


_TOY_OPTIONS = dict(C=2.0, mu=0.7, C_l=2.0, C_u=0.5)


@pytest.mark.parametrize("algorithm, options", [
    *[(algo, {}) for algo in ALGORITHMS if algo != "ltr"],
    ("ltr", dict(radius_grid=(1.5,), C_prime=0.5)),
    # a narrow Gaussian: one neighbour carries nearly all of a pseudo-target's
    # weight, so updating its sums by subtraction would cancel
    ("ltr", dict(radius_grid=(1.5,), C_prime=0.5, sigma=0.12)),
    ("ltr", dict(radius_grid=(0.8,), C_prime=0.5, weighting="inverse-distance")),
])
def test_swap_engine_matches_the_per_swap_solver_on_every_swap(toy_csv, algorithm, options):
    sample, part, fit = _home_fit(toy_csv, algorithm, **_TOY_OPTIONS, **options)
    removed, added = enumerate_swaps(part)
    assert removed.size == 144
    _assert_engine_matches_per_swap_solves(sample, part, fit, removed, added)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_swap_engine_matches_the_per_swap_solver_at_n80(tmp_path, algorithm):
    """A seeded 50-swap subset of a bound-check-sized input (80 housing-like rows)."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 13))
    x[:, 3] = (x[:, 3] > 0.8).astype(float)
    x[:, 7] = np.abs(x[:, 7]) * 3.0 + 1.0
    y = 22.0 + 6.0 * np.tanh(x[:, 0]) - 4.0 * x[:, 1] / (1.0 + x[:, 7] / 4.0) \
        + 3.0 * np.sin(1.5 * x[:, 2]) + 2.0 * x[:, 3] + rng.normal(scale=1.5, size=80)
    path = tmp_path / "housing80.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(13)] + ["target"])
        writer.writerows([*(f"{v:.10f}" for v in row), f"{t:.10f}"] for row, t in zip(x, y))
    options = (dict(radius_grid=(4.0,), C_prime=1.0, weighting="inverse-distance")
               if algorithm == "ltr" else {})
    sample, part, fit = _home_fit(str(path), algorithm, target_scale=0.02, **options)
    removed, added = enumerate_swaps(part)
    chosen = np.sort(np.random.default_rng(50).choice(removed.size, size=50, replace=False))
    _assert_engine_matches_per_swap_solves(sample, part, fit, removed[chosen], added[chosen])


def test_run_and_select_radius_never_build_a_swap_engine(toy_csv, capsys, monkeypatch):
    commands = [["run", "--partitions", "2", "--algorithm", algo, *SWAP_FLAGS,
                 *(["--radius", "1.5,2.5", "--C-prime", "0.5"] if algo == "ltr" else [])]
                for algo in ALGORITHMS]
    commands.append(["select-radius", "--radius", "1,1.5,2.5", "--C-prime", "0.5"])

    def outputs():
        texts = []
        for argv in commands:
            assert main([argv[0], "--data", toy_csv, *argv[1:]]) == 0
            texts.append(capsys.readouterr().out)
        return texts

    before = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("a swap engine was built")

    for builder in ("quadratic", "kernel"):
        monkeypatch.setattr(swaps, builder, refuse)
    assert outputs() == before


@pytest.mark.parametrize("command", [["run"], ["stability", "--empirical"]])
def test_cli_laplacian_on_disconnected_graph_exits_one(toy_csv, tmp_path, command, capsys):
    edges = tmp_path / "two_paths.txt"  # 1-2-...-12 and 13-14-...-24
    edges.write_text("".join(f"{i} {i + 1} 1.0\n" for i in [*range(1, 12), *range(13, 24)]))
    code = main([*command, "--data", toy_csv, "--algorithm", "laplacian",
                 "--graph", str(edges)])
    assert code == 1
    assert "GraphDisconnected" in capsys.readouterr().err


def _two_spectra(family, g):
    """``graph_quadratic`` with Q's bottom eigenvector from a second, full eigh
    in place of the closed form (the eigenvalues still come from eigvalsh)."""
    q, _ = graph_quadratic(family, g)
    return q, spectrum(q).eigenvector_min


def _assert_close(got, want, where="report"):
    """Equal JSON values, floats within 1e-10 relative."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), where
    else:
        assert got == want, where


@pytest.mark.parametrize("algorithm", ["stabilized-cm", "stabilized-llreg", "stabilized-gmf"])
@pytest.mark.parametrize("command", [["run", "--partitions", "2"], ["stability", "--empirical"]])
def test_cli_stabilized_fit_matches_the_two_spectrum_path(toy_csv, algorithm, command,
                                                          capsys, monkeypatch):
    argv = [*command, "--data", toy_csv, "--algorithm", algorithm, *SWAP_FLAGS]
    assert main(argv) == 0
    closed_form = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "graph_quadratic", _two_spectra)
    assert main(argv) == 0
    _assert_close(closed_form, json.loads(capsys.readouterr().out))


def test_problems_do_not_change_when_the_caller_mutates_its_arrays(toy_csv):
    sample = load_and_normalize(toy_csv)
    part = Partition(train_idx=np.arange(0, 24, 2), test_idx=np.arange(1, 24, 2))
    lap = laplacian(gaussian_affinity(sample.points, 1.0))
    cmat = np.diag(np.linspace(0.5, 2.0, 24))
    kern = gaussian_kernel(sample.points, 1.0)
    y = sample.targets[part.train_idx].copy()
    y_full = np.zeros(24)
    y_full[part.train_idx] = y
    problems = [
        UnconstrainedProblem(Q=lap, Cmat=cmat, y=y_full),
        ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part, y_S=y),
        LtrProblem(K=kern, part=part, y=y, y_tilde=np.zeros(0), C=1.0, C_prime=0.0,
                   kappa=1.0),
    ]
    before = [{k: np.array(v) for k, v in vars(p).items() if isinstance(v, np.ndarray)}
              for p in problems]
    for arr in (lap, cmat, kern, y, y_full):
        arr += 1.0
    for problem, arrays in zip(problems, before):
        for name, value in arrays.items():
            assert np.array_equal(getattr(problem, name), value), name


# ---------------------------------------------------------------------------
# graph work: once per run, and no spectrum the bound does not read


@pytest.mark.parametrize("line, column", [("1 2 inf", 3), ("1 2 nan", 3), ("2 1 5.0", 0)])
def test_cli_exit_code_two_on_bad_edge_list(toy_csv, toy_graph, tmp_path, capsys, line, column):
    bad = tmp_path / "bad_graph.txt"
    bad.write_text(Path(toy_graph).read_text() + line + "\n")
    code = main(["run", "--data", toy_csv, "--algorithm", "laplacian", "--graph", str(bad)])
    assert code == 2
    assert f"row 37, column {column}" in capsys.readouterr().err


def test_cli_gaussian_beta_loc_overflow_prints_null(toy_csv, capsys):
    argv = ["--data", toy_csv, "--radius", "1.5", "--sigma", "0.05"]
    assert main(["run", "--algorithm", "ltr", *argv]) == 0
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["beta_used"] is None and record["bound_value"] is None
    assert record["train_mse"] is not None
    assert main(["select-radius", *argv]) == 0
    row = json.loads(capsys.readouterr().out)["per_r"][0]
    assert row["feasible"] and row["beta_loc"] is None and row["objective"] is None


def _counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _count_graph_work(monkeypatch):
    calls = {}
    _counted(monkeypatch, cli, "load_edge_list", calls)
    _counted(monkeypatch, graph_module, "diameter", calls)
    for name in ("eigh", "eigvalsh"):
        _counted(monkeypatch, np.linalg, name, calls)
    return calls


def test_cli_laplacian_graph_work_runs_once_per_run(toy_csv, toy_graph, capsys, monkeypatch):
    calls = _count_graph_work(monkeypatch)
    assert main(["run", "--data", toy_csv, "--algorithm", "laplacian", "--graph", toy_graph,
                 "--partitions", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 3
    assert calls == {"load_edge_list": 1, "eigvalsh": 1, "diameter": 1}


@pytest.mark.parametrize("graph", [False, True])
def test_cli_gmf_with_one_weight_computes_no_spectrum(toy_csv, toy_graph, graph, capsys,
                                                      monkeypatch):
    calls = _count_graph_work(monkeypatch)
    assert main(["run", "--data", toy_csv, "--algorithm", "gmf", "--partitions", "3",
                 "--C-l", "2", "--C-u", "2", *(["--graph", toy_graph] if graph else [])]) == 0
    capsys.readouterr()
    assert "eigh" not in calls and "eigvalsh" not in calls


@pytest.mark.parametrize("graph, expected", [
    # beta_used of the two partitions, printed before the spectrum was skipped
    (False, [2228.1418432853734, 2333.9495101050456]),
    (True, [469.221118259348, 469.221118259348]),
])
def test_cli_gmf_with_two_weights_keeps_its_beta(toy_csv, toy_graph, graph, expected, capsys):
    assert main(["run", "--data", toy_csv, "--algorithm", "gmf", "--partitions", "2",
                 "--C-l", "2", "--C-u", "0.5", *(["--graph", toy_graph] if graph else [])]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["beta_used"] for r in records] == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("algorithm", ["stabilized-cm", "stabilized-llreg", "stabilized-gmf"])
@pytest.mark.parametrize("graph", [False, True])
def test_cli_stabilized_fit_runs_no_eigh(toy_csv, toy_graph, algorithm, graph, capsys,
                                         monkeypatch):
    calls = _count_graph_work(monkeypatch)
    extra = ["--graph", toy_graph] if graph else []
    for command in (["run", "--partitions", "2"], ["stability", "--empirical"]):
        assert main([*command, "--data", toy_csv, "--algorithm", algorithm, *SWAP_FLAGS,
                     *extra]) == 0
    capsys.readouterr()
    assert "eigh" not in calls
    assert calls["eigvalsh"] == (2 if graph and algorithm == "stabilized-gmf" else 3)


@pytest.mark.parametrize("algorithm", ["laplacian", "gmf"])
def test_cli_graph_run_jobs_two_is_byte_identical(toy_csv, toy_graph, algorithm, capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["run", "--data", toy_csv, "--algorithm", algorithm, "--graph", toy_graph,
                     "--partitions", "4", "--C-l", "2", "--C-u", "0.5", "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0].replace('"jobs": 1', '"jobs": 2')


@pytest.mark.parametrize("command", [["run", "--partitions", "2"], ["stability"]])
def test_cli_kernel_algorithm_does_not_read_the_graph(toy_csv, tmp_path, command, capsys,
                                                      monkeypatch):
    calls = _count_graph_work(monkeypatch)
    unread = tmp_path / "unread.txt"
    unread.write_text("1 2 nan\n")
    assert main([*command, "--data", toy_csv, "--algorithm", "krr", "--graph", str(unread)]) == 0
    capsys.readouterr()
    assert "load_edge_list" not in calls
