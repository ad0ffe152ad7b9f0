"""Data loading, experiment protocol, radius selection, and the CLI surface."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from stabreg import (
    ConcentrationResult,
    FullSample,
    KernelSystem,
    LocalEstimatorConfig,
    NoSweepData,
    ParseError,
    Partition,
    PseudoTargetUnavailable,
    ZeroVarianceFeature,
    apply_swap,
    empirical_error,
    empirical_stability,
    enumerate_swaps,
    gaussian_affinity,
    gaussian_kernel,
    laplacian,
    normalized_laplacian,
    pseudo_targets,
    row_normalize,
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
from stabreg.regressors import graph_quadratic, labels_to_full
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
from test_acceptance import _housing_like_csv
from test_graph import count_reads


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


def test_cli_reports_record_load_warnings_and_print_none(tmp_path, capsys):
    # stability and select-radius used to print the warning to stderr and
    # leave it out of the report; run recorded it
    rows = np.random.default_rng(3).uniform(-1, 1, (30, 3))
    path = tmp_path / "const.csv"
    path.write_text("a,b,c,t\n" + "".join(f"{a:.6f},5,{c:.6f},{t:.6f}\n" for a, c, t in rows))
    for command in (["run"], ["stability"], ["select-radius", "--radius", "1,2"]):
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main([*command, "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert not escaped and captured.err == ""
        assert json.loads(captured.out)["warnings"] == [
            "dropping constant feature column 'b' (index 1)"]


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


@pytest.mark.parametrize("text, where, message", [
    ("", (1, 0), "empty file"),
    ("t\n1\n2\n", (1, 0), "need at least one feature column and a target"),
    ("a,b,t\n1,2,0.5\n1,2\n", (3, 0), "expected 3 fields, got 2"),
    ("a,t\n1,0.5\n1,2,3\n", (3, 0), "expected 2 fields, got 3"),
    ("a,t\n1,0.5\n2,oops\n", (3, 2), "non-numeric cell 'oops'"),
    ("a,t\n1,\n2,0.5\n", (2, 2), "non-numeric cell ''"),
    ("a,t\n1,0.5\n-inf,0.2\n", (3, 1), "non-finite cell '-inf'"),
    ("a,t\n", (1, 0), "need at least 2 data rows"),
    ("a,t\n\n1,0.5\n\n", (2, 0), "need at least 2 data rows"),
    ("a,t\n\n1,0.5\n\n2,x\n", (5, 2), "non-numeric cell 'x'"),
    ("a,t\n1,x\n1\n", (2, 2), "non-numeric cell 'x'"),
    ("a,t\n1\n1,x\n", (2, 0), "expected 2 fields, got 1"),
    ('"a","t"\n"1","0.5"\n"2","x"\n', (3, 2), "non-numeric cell 'x'"),
    ("a,t\r\n1,0.5\r\n2,nan\r\n", (3, 2), "non-finite cell 'nan'"),
    ("a,t\r1,0.5\r2,x\r", (3, 2), "non-numeric cell 'x'"),
], ids=["empty-file", "one-column", "short-row", "long-row", "non-numeric", "empty-cell",
        "non-finite", "header-only", "one-data-row", "blank-lines-keep-row-numbers",
        "bad-cell-before-ragged-row", "ragged-row-before-bad-cell", "quoted", "crlf", "cr"])
def test_load_and_normalize_parse_errors(tmp_path, text, where, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc_info:
        load_and_normalize(str(path))
    assert (exc_info.value.row, exc_info.value.column) == where
    assert str(exc_info.value) == f"row {where[0]}, column {where[1]}: {message}"


@pytest.mark.parametrize("text", [
    "a,t\n1,0.5\n2,0.25\n3,-1\n",
    '"a","t"\n"1","0.5"\n2,0.25\n"3",-1\n',
    "a,t\r\n1,0.5\r\n2,0.25\r\n3,-1\r\n",
    "a,t\n 1 ,0.5\n\n2,2.5e-1\n3,-1",
], ids=["plain", "quoted", "crlf", "spaces-blank-line-no-final-newline"])
def test_load_and_normalize_reads_every_layout_alike(tmp_path, text):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode("utf-8"))
    sample = load_and_normalize(str(path))
    assert np.array_equal(sample.targets, [0.5, 0.25, -1.0])
    assert np.allclose(sample.points[:, 0], np.array([-1.0, 0.0, 1.0]) * math.sqrt(1.5))


def test_load_and_normalize_skips_a_byte_order_mark(tmp_path):
    # the mark used to become part of the first header name: 'a' was reported as '\ufeffa'
    path = tmp_path / "bom.csv"
    path.write_bytes("a,b,t\n5,1,0.5\n5,2,0.25\n5,3,-1\n".encode("utf-8-sig"))
    with pytest.warns(ZeroVarianceFeature, match=r"column 'a' \(index 0\)"):
        sample = load_and_normalize(str(path))
    assert np.array_equal(sample.targets, [0.5, 0.25, -1.0])


_PLAIN = [[1, 2, 0.5], [2, 3, 0.25]]
_CSV_TOKENIZER_CASES = {  # id: (text, the cells it loads, or its ParseError's (row, column, text))
    "plain": ("a,b,t\n1,2,0.5\n2,3,0.25\n3,5,-1\n", [*_PLAIN, [3, 5, -1]]),
    "crlf": ("a,b,t\r\n1,2,0.5\r\n2,3,0.25\r\n", _PLAIN),
    "cr": ("a,b,t\r1,2,0.5\r2,3,0.25\r", _PLAIN),
    "spaces-tabs-blank-lines": ("a,b,t\n 1 ,\t2,0.5 \n\n2,3,0.25\n\n", _PLAIN),
    "signs-exponents": ("a,b,t\n+1.5e-3,-.5,5.\n2E2,3,0.25\n", [[1.5e-3, -0.5, 5], [200, 3, 0.25]]),
    "no-final-newline": ("a,b,t\n1,2,0.5\n2,3,0.25", _PLAIN),
    "byte-order-mark": ("\ufeffa,b,t\n1,2,0.5\n2,3,0.25\n", _PLAIN),
    "no-break-space": ("a,b,t\n\xa01,2,0.5\n2,3,0.25\n", _PLAIN),
    "quoted-cell": ('a,b,t\n"4",2,0.5\n2,3,0.25\n', [[4, 2, 0.5], [2, 3, 0.25]]),
    # spellings only Python's float accepts; they loaded before numpy's grammar was the only one
    "underscore": ("a,b,t\n1_0,2,0.5\n2,3,0.25\n", (2, 1, "non-numeric cell '1_0'")),
    "arabic-digit": ("a,b,t\n\u0663,2,0.5\n2,3,0.25\n", (2, 1, "non-numeric cell '\u0663'")),
    "byte-order-mark-underscore": ("\ufeffa,b,t\n1_0,2,0.5\n2,3,0.25\n",
                                   (2, 1, "non-numeric cell '1_0'")),
    "trailing-comma": ("a,b,t\n1,2,0.5,\n2,3,0.25\n", (2, 0, "expected 3 fields, got 4")),
    "whitespace-row": ("a,b,t\n1,2,0.5\n  \n2,3,0.25\n", (3, 0, "expected 3 fields, got 1")),
    "non-finite": ("a,b,t\n1,2,0.5\n2,inf,0.25\n", (3, 2, "non-finite cell 'inf'")),
    "overflowing": ("a,b,t\n1,2,0.5\n2,1e999,0.25\n", (3, 2, "non-finite cell '1e999'")),
    "one-data-row": ("a,b,t\n1,2,0.5\n", (2, 0, "need at least 2 data rows")),
    "header-only": ("a,b,t\n", (1, 0, "need at least 2 data rows")),
    "blank-body": ("a,b,t\n\n \n", (3, 0, "expected 3 fields, got 1")),
    "empty": ("", (1, 0, "empty file")),
    "one-column": ("t\n1\n2\n", (1, 0, "need at least one feature column and a target")),
    "short-header": ("a,t\n1,2,0.5\n2,3,0.25\n", (2, 0, "expected 2 fields, got 3")),
}


@pytest.mark.parametrize("text, outcome", list(_CSV_TOKENIZER_CASES.values()),
                         ids=list(_CSV_TOKENIZER_CASES))
def test_load_and_normalize_reads_alike_with_either_tokenizer(tmp_path, monkeypatch, text,
                                                              outcome):
    # numpy's C reader is the one tokenizer: a file loads its cells, read by one
    # np.loadtxt call and opened once, or raises at its first bad record
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(outcome, tuple):
        with pytest.raises(ParseError) as exc_info:
            load_and_normalize(str(path))
        row, column, message = outcome
        assert (exc_info.value.row, exc_info.value.column) == (row, column)
        assert str(exc_info.value) == f"row {row}, column {column}: {message}"
        return
    reads = count_reads(monkeypatch, cli)
    sample = load_and_normalize(str(path))
    assert reads == ["open", "loadtxt"]
    cells = np.array(outcome, dtype=np.float64)
    features = cells[:, :-1].copy()
    assert np.array_equal(sample.targets, cells[:, -1])
    assert np.array_equal(sample.points, (features - features.mean(axis=0)) / features.std(axis=0))


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "laplacian", "--sigma", "3"],
    ["run", "--algorithm", "krr"],
    ["stability", "--algorithm", "gmf"],
    ["select-radius", "--radius", "1,2"],
])
@pytest.mark.parametrize("scale", ["1e200", "1e308", "1e154"])
def test_cli_rejects_a_target_scale_whose_squared_residuals_overflow(toy_csv, capsys, argv,
                                                                    scale):
    # the squared residuals used to overflow (a RuntimeWarning, an error under
    # the test policy) and the report printed null errors; the toy labels
    # reach |y| = 1.04, so at 1e154 M^2 is finite and (2 M)^2 is not
    assert main([*argv, "--data", toy_csv, "--target-scale", scale]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"stabreg: --target-scale {float(scale)!r} is too large")
    assert err.count("\n") == 1


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_cli_rejects_a_non_finite_target_scale(toy_csv, capsys, scale):
    # nan used to be reported as "too large: the largest scaled target nan overflows"
    assert main(["run", "--algorithm", "krr", "--data", toy_csv, f"--target-scale={scale}"]) == 2
    assert capsys.readouterr().err == f"stabreg: --target-scale {float(scale)!r} must be finite\n"


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
    # a NaN or infinite radius, or an infinite sigma, used to pass and print null metrics
    for grid in [(math.nan,), (math.inf,), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError, match="^radii must be finite and non-negative$"):
            ExperimentConfig(data_path=toy_csv, algorithm="ltr", radius_grid=grid)
    for sigma in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="^sigma must be positive and finite$"):
            ExperimentConfig(data_path=toy_csv, sigma=sigma)


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
        h = fit.solve(sample, part)
        swept = fits[row["r"]][1]
        assert np.max(np.abs(swept - h)) <= 1e-10 * np.max(np.abs(h))
        assert row["train_mse"] == pytest.approx(empirical_error(h, sample, part), rel=1e-10)
        assert row["test_mse"] == pytest.approx(test_error(h, sample, part), rel=1e-10)
        assert row["beta"] == fit.beta


def _cv_scores_per_fold(sample, part, C):
    """Each grid sigma's CV score, with a Gaussian kernel built per fold and a broadcast cross-kernel.

    Returns the median distance and the (sigma, score) pairs, smallest sigma first.
    """
    xs = sample.points[part.train_idx]
    ys = sample.targets[part.train_idx]
    sq = np.sum(xs * xs, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T)
    np.maximum(d2, 0.0, out=d2)
    upper = d2[np.triu_indices(xs.shape[0], k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    med = med if med > 0 else 1.0
    folds = np.array_split(np.arange(xs.shape[0]), min(5, xs.shape[0]))
    scores = []
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
        scores.append((sig, err / count if count else math.inf))
    return med, scores


def _cv_sigma_per_fold(sample, part, C):
    """Sigma selection over the full grid: the smallest sigma of least score."""
    med, scores = _cv_scores_per_fold(sample, part, C)
    best = (math.inf, med)
    for sig, score in scores:
        if score < best[0]:
            best = (score, sig)
    return best[1]


def _housing_like_samples(tmp_path):
    """Housing-like samples at n = 40 and 120: distinct or duplicated points, offset or centered targets."""
    for n in (40, 120):
        path = tmp_path / f"housing_like_{n}.csv"
        _housing_like_csv(path, n)
        base = load_and_normalize(str(path))
        for layout in ("distinct", "duplicated"):
            keep = np.arange(n) if layout == "distinct" else np.tile(np.arange(n // 2), 2)
            for targets in ("offset", "centered"):
                y = base.targets[keep]
                y = y - y.mean() if targets == "centered" else y
                yield (f"n={n} {layout} {targets}",
                       FullSample(points=base.points[keep], targets=y,
                                  label_bound_M=float(np.max(np.abs(y)))))


@pytest.mark.parametrize("seed", range(6))
def test_cv_sigma_matches_the_per_fold_loop(toy_csv, tmp_path, monkeypatch, seed):
    sample = load_and_normalize(toy_csv)
    part = sample_partition(sample, 12, derive_seed(seed, 0))
    for C in (0.1, 1.0, 10.0):
        assert _cv_sigma(sample, part, C) == _cv_sigma_per_fold(sample, part, C)
    # the grid points _cv_sigma factors; the bound skips the rest
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.shape) or solve(a, b))
    reached = set()
    for label, sample in _housing_like_samples(tmp_path):
        part = sample_partition(sample, sample.n // 2, derive_seed(seed, 0))
        for C in (0.0, 1e-3, 1.0, 100.0, 1e306):
            solved.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                sigma = _cv_sigma(sample, part, C)
            reached.add(len(solved))  # one fit size per sample here: one call per grid point
            assert sigma == _cv_sigma_per_fold(sample, part, C), (label, C)
    assert 1 in reached and 5 in reached  # inputs the bound prunes and inputs it does not


def test_cv_sigma_factors_one_grid_point_at_c_1(tmp_path, monkeypatch):
    # on this input the certified bound rules out four of the five grid
    # points; a looser bound factors more and fails here
    path = tmp_path / "housing_like_120.csv"
    _housing_like_csv(path, 120)
    sample = load_and_normalize(str(path))
    part = cli._partition(sample, ExperimentConfig(data_path=str(path)), 0)
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.shape) or solve(a, b))
    sigma = _cv_sigma(sample, part, 1.0)
    assert solved == [(5, 48, 48)]  # the five folds of one grid point, in one stacked solve
    monkeypatch.setattr(np.linalg, "solve", solve)
    assert sigma == _cv_sigma_per_fold(sample, part, 1.0)


@pytest.mark.parametrize("C", [1e-3, 1.0, 100.0])
def test_cv_score_floor_stays_below_the_score_it_bounds(tmp_path, monkeypatch, C):
    # each floor _cv_sigma computes is asked to exceed that grid point's own
    # score, the hardest threshold (a tie): a sound floor never does
    floor_of = cli._cv_score_floor
    checked = []

    def checking(xs, ys, folds, C):
        floor = floor_of(xs, ys, folds, C)
        shift = int(np.frexp(np.max(np.abs(ys_unscaled)))[1])  # _cv_sigma's label scaling

        def checked_floor(kern, sig, best):
            score = min(scores, key=lambda pair: abs(pair[0] - sig))[1] * 4.0 ** -shift
            value = floor(kern, sig, score)
            checked.append(value / score)
            assert value <= score * (1 + 1e-9), (label, sig)
            return floor(kern, sig, best)

        return checked_floor

    monkeypatch.setattr(cli, "_cv_score_floor", checking)
    for label, sample in _housing_like_samples(tmp_path):
        part = sample_partition(sample, sample.n // 2, derive_seed(0, 0))
        ys_unscaled = sample.targets[part.train_idx]
        _, scores = _cv_scores_per_fold(sample, part, C)
        _cv_sigma(sample, part, C)
    assert max(checked) > 0.99  # some floors come within 1% of their score


def test_run_at_a_target_scale_near_the_load_limit_keeps_sigma(tmp_path, capsys):
    # at 1.7e152, (2 M)^2 is finite, so the data loads, but the CV fold
    # errors and the mean squared errors used to overflow in their sums (a
    # RuntimeWarning), and CV picked a tenth of the sigma of scale 1
    path = tmp_path / "housing_like_80.csv"
    _housing_like_csv(path, 80, seed=5)
    reports = {}
    for scale in ("1", "1.7e152"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--algorithm", "krr", "--partitions", "3", "--data", str(path),
                         "--target-scale", scale]) == 0
        assert caught == []
        reports[scale] = json.loads(capsys.readouterr().out)
    assert ([r["sigma"] for r in reports["1.7e152"]["records"]]
            == [r["sigma"] for r in reports["1"]["records"]])
    for key in ("train_mse", "test_mse"):
        assert all(math.isfinite(r[key]) for r in reports["1.7e152"]["records"])
        assert math.isfinite(reports["1.7e152"]["aggregates"][key]["std"])


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
    return lambda *args: solve(*args) + by


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


@pytest.mark.parametrize("report, message", [
    ([], "the report is not a JSON object"),
    ({"records": [{"per_r": [[1.0, 0.5]]}]}, "record 0, sweep row 0 is not an object"),
    ({"records": [{}, {"per_r": [{"feasible": False}, {"feasible": True, "test_mse": 0.5}]}]},
     "record 1, sweep row 1: 'r' is missing or not a number"),
    ({"records": [{"per_r": [{"feasible": True, "r": 1.0, "test_mse": "0.5"}]}]},
     "record 0, sweep row 0: 'test_mse' is missing or not a number"),
])
def test_cli_emit_plot_exit_two_on_malformed_report(tmp_path, capsys, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["emit-plot", "--report", str(path)]) == 2
    assert capsys.readouterr().err == f"stabreg: {message}\n"


def test_cli_exit_code_two_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,t\n1,x\n")
    code = main(["run", "--data", str(bad), "--algorithm", "krr"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf", "1,nan"])
@pytest.mark.parametrize("command", [["run", "--algorithm", "ltr", "--sigma", "3"],
                                     ["select-radius"]])
def test_cli_exit_code_two_on_a_non_finite_radius(toy_csv, capsys, command, radius):
    # these exited 0 and printed null r_star, beta_used and bound_value
    assert main([*command, "--data", toy_csv, "--radius", radius]) == 2
    assert capsys.readouterr().err == "stabreg: radii must be finite and non-negative\n"


def test_cli_exit_code_two_on_a_spelling_outside_the_c_grammar(toy_csv, tmp_path, capsys):
    # a '_' digit separator in a cell and a non-ASCII digit in an index used to load
    data = tmp_path / "underscore.csv"
    data.write_text("a,t\n1_000,0.5\n2,0.25\n3,-1\n")
    assert main(["run", "--data", str(data), "--algorithm", "krr"]) == 2
    assert capsys.readouterr().err == ("stabreg: parse error: row 2, column 1: "
                                       "non-numeric cell '1_000'\n")
    graph = tmp_path / "arabic.txt"
    graph.write_text("1 2 0.5\n2 \u0663 0.5\n", encoding="utf-8")
    assert main(["run", "--data", toy_csv, "--algorithm", "laplacian", "--graph", str(graph)]) == 2
    assert capsys.readouterr().err == ("stabreg: parse error: row 2, column 2: "
                                       "bad vertex index '\u0663'\n")


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


@pytest.mark.parametrize("rows, where, message", [
    (["1,inf", "x,0.2"], (3, 2), "non-finite cell 'inf'"),
    (["1,0.5", "nan,x"], (4, 1), "non-finite cell 'nan'"),
    (["1,0.5", "x,nan"], (4, 1), "non-numeric cell 'x'"),
], ids=["non-finite-row-before-non-numeric-row", "non-finite-cell-first", "non-numeric-cell-first"])
def test_load_reports_the_first_bad_cell(tmp_path, rows, where, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,t\n0,0.1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as exc_info:
        load_and_normalize(str(bad))
    assert (exc_info.value.row, exc_info.value.column) == where
    assert str(exc_info.value) == f"row {where[0]}, column {where[1]}: {message}"


@pytest.mark.parametrize("algorithm, flag", [
    ("krr", "--C"), ("ltr", "--C-prime"), ("laplacian", "--C"), ("cm", "--mu"), ("gmf", "--C-l"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_exit_code_two_on_a_non_finite_tradeoff(toy_csv, capsys, algorithm, flag, value):
    # krr and ltr used to exit 0 with null metrics; laplacian and gmf exited 1
    extra = ["--radius", "2"] if algorithm == "ltr" else []
    code = main(["run", "--data", toy_csv, "--algorithm", algorithm, flag, value, *extra])
    assert code == 2
    name = flag.removeprefix("--").replace("-", "_")
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, algorithm, flags, message", [
    ("run", "krr", ["--C", "-1"], "C must be non-negative"),
    ("stability", "krr", ["--C", "-1"], "C must be non-negative"),
    ("run", "cm", ["--C", "-1"], "C must be non-negative"),
    ("run", "ltr", ["--C-prime", "-1", "--radius", "2"], "C_prime must be non-negative"),
    ("run", "cm", ["--delta", "0"], "delta=0.0 outside (0, 1]"),
    ("run", "gmf", ["--delta", "2"], "delta=2.0 outside (0, 1]"),
    ("select-radius", None, ["--delta", "0", "--radius", "2"], "delta=0.0 outside (0, 1]"),
    ("select-radius", None, ["--delta", "2", "--radius", "2"], "delta=2.0 outside (0, 1]"),
], ids=["run-krr-C", "stability-krr-C", "run-cm-C", "run-ltr-C-prime", "run-cm-delta-0",
        "run-gmf-delta-2", "select-radius-delta-0", "select-radius-delta-2"])
def test_cli_exit_code_two_on_an_out_of_range_flag(toy_csv, capsys, command, algorithm, flags,
                                                   message):
    # all but cm --C -1 (which exited 0) exited 1
    algo = ["--algorithm", algorithm] if algorithm else []
    assert main([command, "--data", toy_csv, *algo, *flags]) == 2
    assert capsys.readouterr().err == f"stabreg: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--delta", "0"], "InvalidConfidence: delta=0.0 outside (0, 1]"),
    (["--delta", "2"], "InvalidConfidence: delta=2.0 outside (0, 1]"),
    (["--r-hat", "-0.1"], "InvalidStabilityInput: r_hat must be non-negative"),
    (["--beta", "-1"], "InvalidStabilityInput: beta and B must be non-negative"),
    (["--B", "-1"], "InvalidStabilityInput: beta and B must be non-negative"),
    (["-m", "0"], "InvalidPartitionSize: m and u must both be at least 1"),
    (["-u", "0"], "InvalidPartitionSize: m and u must both be at least 1"),
    (["--r-hat", "nan"], "InvalidStabilityInput: r_hat must be finite"),
    (["--beta", "inf"], "InvalidStabilityInput: beta must be finite"),
    (["--beta", "nan"], "InvalidStabilityInput: beta must be finite"),
    (["--B", "nan"], "InvalidStabilityInput: B must be finite"),
], ids=["delta-0", "delta-2", "r-hat", "beta", "B", "m", "u", "r-hat-nan", "beta-inf",
        "beta-nan", "B-nan"])
def test_cli_bound_exit_code_two_on_an_out_of_range_argument(capsys, flags, message):
    # the first seven exited 1 with the same message; the non-finite ones exited 0
    # and printed a null bound_value
    args = {"--r-hat": "0.1", "--beta": "0.05", "--B": "1.0", "-m": "10", "-u": "10",
            "--delta": "0.05"}
    args.update(zip(flags[::2], flags[1::2]))
    assert main(["bound", *(tok for kv in args.items() for tok in kv)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"stabreg: {message}\n")


def test_cli_back_to_back_calls_print_what_fresh_calls_print(toy_csv, capsys):
    calls = [
        ["run", "--data", toy_csv, "--algorithm", "ltr", "--radius", "0.8,1.6",
         "--partitions", "2"],
        ["stability", "--data", toy_csv, "--algorithm", "laplacian", "--empirical"],
        ["bound", "--r-hat", "0.1", "--beta", "0.05", "--B", "1.0", "-m", "10", "-u", "10"],
        ["bound", "--r-hat", "0.1", "--beta", "0.05", "--B", "1.0", "-m", "0", "-u", "10"],
        ["run", "--data", toy_csv, "--algorithm", "cm", "--format", "csv"],
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    built = []
    real_build = cli.build_parser

    def counting_build():
        built.append(1)
        return real_build()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", counting_build)
        again = [outcome(argv) for argv in calls]
    cli._parser.cache_clear()
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
    assert again == fresh
    assert len(built) == 1


def test_cli_stability_laplacian_rejects_zero_C(toy_csv, capsys):
    code = main(["stability", "--data", toy_csv, "--algorithm", "laplacian", "--C", "0"])
    assert code == 2
    assert capsys.readouterr().err == "stabreg: C must be positive\n"


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


@pytest.mark.parametrize("argv, config", [
    (["run"], {}),
    (["stability"], {"algorithm": "cm"}),
    # select-radius always fits ltr, which needs a radius grid
    (["select-radius", "--radius", "1"], {"algorithm": "ltr", "radius_grid": (1.0,)}),
])
def test_parser_leaves_unset_run_options_at_the_config_defaults(argv, config):
    args = build_parser().parse_args([*argv, "--data", "x.csv"])
    overrides = {"algorithm": "ltr"} if argv[0] == "select-radius" else {}
    assert cli._config_from_args(args, **overrides) == ExperimentConfig("x.csv", **config)


def test_parser_rejects_bad_sigma():
    parser = build_parser()
    for sigma in ("-1", "inf", "nan"):  # inf used to run and print "sigma": null
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--data", "x.csv", "--sigma", sigma])


_EXPERIMENT_FLAGS = {"--data", "--target-scale", "--m-fraction", "--sigma", "--C", "--C-prime",
                     "--radius", "--weighting", "--fallback"}
_GRAPH_FLAGS = {"--graph", "--mu", "--C-l", "--C-u"}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    # select-radius fits only ltr, stability prints JSON and no bound, and
    # bound, lowerbound-demo and emit-plot draw nothing
    subcommands = build_parser()._subparsers._group_actions[0].choices
    options = {name: {flag for action in sub._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, sub in subcommands.items()}
    assert options == {
        "run": {"--seed", "--out", "--format", *_EXPERIMENT_FLAGS, *_GRAPH_FLAGS, "--delta",
                "--algorithm", "--partitions", "--jobs"},
        "select-radius": {"--seed", "--out", "--format", *_EXPERIMENT_FLAGS, "--delta"},
        "stability": {"--seed", "--out", *_EXPERIMENT_FLAGS, *_GRAPH_FLAGS, "--algorithm",
                      "--empirical"},
        "bound": {"--out", "--r-hat", "--beta", "--B", "-m", "-u", "--delta"},
        "lowerbound-demo": {"--out", "--m", "--C"},
        "verify": {"--seed", "--out", "--level"},
        "emit-plot": {"--out", "--report", "--kind", "--plot-scale"},
    }


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


SWAP_FLAGS = ["--C", "2", "--mu", "0.7", "--C-l", "2", "--C-u", "0.5"]


PINNED_COEFFICIENTS = {  # stability --sigma 2 with SWAP_FLAGS (ltr: r = 1.5, C' = 0.5)
    "ltr": {"cost_bound": 7.707349858255622, "B": 2.672540027612679,
            "beta_loc": 2.126193995330846},
    "krr": {"cost_bound": 4.165679183617185, "B": 2.4997037375308655},
    "cm": {"cost_bound": 13.536449696848532, "B": 4.622180765610705,
           "score_bound": 1.4642925475308657},
    "llreg": {"cost_bound": 523.715297201084, "B": 8.208950341221408,
              "score_bound": 31.899041621145958, "score_bound_spectral": 22.984910001195093},
    "gmf": {"cost_bound": 2092.4827002295883, "B": 8.208950341221408,
            "score_bound": 127.45129482158912},
    "laplacian": {"cost_bound": 1.9576163971880862, "B": 2.653827390196495,
                  "lambda2": 6.308282446061909, "rho_G": 1},
    "stabilized-cm": {"cost_bound": 6.370548641326746, "B": 4.622180765610705,
                      "score_bound": 0.6891280289948849},
    "stabilized-llreg": {"cost_bound": 107.33975596486057, "B": 8.208950341221408,
                         "score_bound": 6.537970842986578,
                         "score_bound_spectral": 22.984910001195093},
    "stabilized-gmf": {"cost_bound": 125.64895910487886, "B": 8.208950341221408,
                       "score_bound": 7.653168424830766},
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_stability_prints_the_pinned_coefficients(toy_csv, algorithm, capsys):
    # distinct trade-offs make every argument of the closed forms count, so a
    # swapped argument in a bound's call moves one of these values
    extra = ["--radius", "1.5", "--C-prime", "0.5"] if algorithm == "ltr" else []
    assert main(["stability", "--data", toy_csv, "--algorithm", algorithm, "--sigma", "2",
                 *SWAP_FLAGS, *extra]) == 0
    report = json.loads(capsys.readouterr().out)
    keys = ("cost_bound", "B", "score_bound", "score_bound_spectral", "lambda2", "rho_G",
            "beta_loc")
    got = {k: report[k] for k in keys if k in report}
    want = PINNED_COEFFICIENTS[algorithm]
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_stability_empirical_within_cost_bound(toy_csv, algorithm, capsys):
    _, report = _run_and_stability(toy_csv, algorithm, capsys)
    empirical = report["empirical"]
    assert empirical["mode"] == "exhaustive"
    assert empirical["swaps_evaluated"] == report["m"] * report["u"] == 144
    assert empirical["max_cost_delta"] <= report["cost_bound"]


def _per_swap_solver(algorithm, sample, sigma):
    """The swap solver as a closure that rebuilds and rechecks everything per call.

    Every partition gets its own Q, built here from the graph, and the
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
                return solve_krr_induction(kern, p, y, 2.0)
            return solve_ltr(kern, p, y, pseudo_targets(s, p, local), 2.0, 0.5)
        return solve_kernel
    graph = gaussian_affinity(sample.points, sigma)

    def solve_graph(s, p):
        y = s.targets[p.train_idx]
        if family == "laplacian":
            return solve_constrained(laplacian(graph), p, y, 2.0, center_labels=True)
        if family == "cm":
            q, c = normalized_laplacian(graph), np.full(p.n, 0.7)
        else:
            c = np.full(p.n, 0.5)  # C_u on T, C_l = 2 on S
            c[p.train_idx] = 2.0
            if family == "gmf":
                q = laplacian(graph)
            else:
                resid = np.eye(p.n) - row_normalize(graph.weights)
                q = resid.T @ resid
                q = 0.5 * (q + q.T)
        solve = solve_unconstrained if family == algorithm else stabilize
        return solve(q, c, labels_to_full(y, p))
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
        _per_swap_solver(algorithm, sample, report["sigma"]), sample, part, seed=0
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
    want = np.vstack([fit.solve(sample, apply_swap(part, i, j))
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
    return q, np.linalg.eigh(q)[1][:, 0]


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


# ---------------------------------------------------------------------------
# graph work: once per run, and no spectrum the bound does not read


@pytest.mark.parametrize("line, column", [("1 2 inf", 3), ("1 2 nan", 3), ("2 1 5.0", 0)])
def test_cli_exit_code_two_on_bad_edge_list(toy_csv, toy_graph, tmp_path, capsys, line, column):
    bad = tmp_path / "bad_graph.txt"
    bad.write_text(Path(toy_graph).read_text() + line + "\n")
    code = main(["run", "--data", toy_csv, "--algorithm", "laplacian", "--graph", str(bad)])
    assert code == 2
    assert f"row 37, column {column}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["run", "--algorithm", "krr", "--C", "1e308"], "beta_used"),
    (["stability", "--algorithm", "krr", "--C", "1e306"], "cost_bound"),
    (["select-radius", "--radius", "2,4", "--C", "1e306"], "beta"),
], ids=["run", "stability", "select-radius"])
def test_cli_huge_kernel_tradeoff_prints_a_null_beta(toy_csv, capsys, argv, field):
    # (A M)^2 in the kernel coefficient used to raise OverflowError; the
    # targets are scaled so that M > 1
    assert main([*argv, "--data", toy_csv, "--target-scale", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    row = report.get("records", report.get("per_r", [report]))[0]
    assert row[field] is None


@pytest.mark.parametrize("command", [["run"], ["stability", "--empirical"]])
def test_cli_overflowing_weighted_labels_raise_singular_system(toy_csv, capsys, command):
    # c * y used to overflow (a RuntimeWarning, an error under the test
    # policy) before the residual test failed
    assert main([*command, "--data", toy_csv, "--target-scale", "100", "--algorithm", "cm",
                 "--mu", "1e308"]) == 1
    assert capsys.readouterr().err == (
        "stabreg: SingularSystem: weighted labels c * y exceed the float range\n")


@pytest.mark.parametrize("algorithm", ["krr", "ltr"])
def test_cli_overflowing_woodbury_coefficients_raise_singular_system(toy_csv, capsys,
                                                                     algorithm):
    # the 2x2 capacitance solve of a swap used to overflow (a RuntimeWarning,
    # an error under the test policy) at a huge trade-off
    extra = ["--radius", "1.5", "--C-prime", "1"] if algorithm == "ltr" else []
    assert main(["stability", "--empirical", "--data", toy_csv, "--algorithm", algorithm,
                 "--C", "1e306", "--sigma", "3", *extra]) == 1
    assert capsys.readouterr().err == "stabreg: SingularSystem: swapped system is singular\n"


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


def test_importing_the_cli_starts_no_thread_pool_machinery():
    # run starts no pool by default; concurrent.futures is imported only where a pool starts
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, stabreg.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "False"
