"""Exact solvers: closed forms, optimality oracles, and input validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import (
    ConstrainedProblem,
    ConstraintSpansNullSpace,
    FullSample,
    GraphSpec,
    KernelSystem,
    LocalEstimatorConfig,
    LtrProblem,
    NonFiniteMatrix,
    NotPSDKernel,
    NotSymmetric,
    Partition,
    PseudoTargetUnavailable,
    QuadraticSystem,
    SwapPair,
    UnconstrainedProblem,
    apply_swap,
    enumerate_swaps,
    build_cm,
    build_gmf,
    build_llreg,
    gaussian_affinity,
    gaussian_kernel,
    laplacian,
    ltr_dual_coefficients,
    normalized_laplacian,
    pseudo_targets,
    sample_partition,
    solve_constrained,
    solve_krr_induction,
    solve_ltr,
    solve_unconstrained,
    spectrum,
    stabilize,
)
from stabreg import checks, swaps
from stabreg.errors import SingularSystem, ZeroConstraintVector
from stabreg.regressors import graph_quadratic, labels_to_full


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = np.triu(w, 1)
    return GraphSpec(weights=w + w.T)


def random_partition(n, m, seed):
    s = FullSample(points=np.arange(float(n))[:, None], targets=np.zeros(n), label_bound_M=1.0)
    return sample_partition(s, m, seed)


# ---------------------------------------------------------------------------
# unconstrained family


def test_unconstrained_frozen_example():
    # Q couples the two points, C = I, y = (1, 0); solving
    # (Q + I) h = y gives h = (2/3, 1/3)
    q = np.array([[1.0, -1.0], [-1.0, 1.0]])
    p = UnconstrainedProblem(Q=q, Cmat=np.eye(2), y=np.array([1.0, 0.0]))
    h = solve_unconstrained(p).scores
    assert np.allclose(h, [2 / 3, 1 / 3], atol=1e-12)


def test_unconstrained_matches_direct_inverse():
    rng = np.random.default_rng(2)
    for seed in range(5):
        n = 8
        b = rng.normal(size=(n, n))
        q = b.T @ b / n
        cmat = np.diag(rng.uniform(0.5, 3.0, n))
        y = rng.uniform(-1, 1, n)
        p = UnconstrainedProblem(Q=q, Cmat=cmat, y=y)
        h = solve_unconstrained(p).scores
        # independent closed form: h = (C^{-1} Q + I)^{-1} y
        ref = np.linalg.solve(np.linalg.inv(cmat) @ q + np.eye(n), y)
        assert np.allclose(h, ref, atol=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_unconstrained_solution_is_optimal(seed):
    rng = np.random.default_rng(seed)
    n = 6
    b = rng.normal(size=(n, n))
    q = b.T @ b / n
    cmat = np.diag(rng.uniform(0.2, 2.0, n))
    y = rng.uniform(-1, 1, n)
    h = solve_unconstrained(UnconstrainedProblem(Q=q, Cmat=cmat, y=y)).scores

    def objective(v):
        d = v - y
        return v @ q @ v + d @ cmat @ d

    base = objective(h)
    for _ in range(50):
        assert base <= objective(h + rng.normal(scale=0.1, size=n)) + 1e-10


def test_unconstrained_rejects_asymmetric_q():
    with pytest.raises(Exception):
        UnconstrainedProblem(
            Q=np.array([[1.0, 2.0], [0.0, 1.0]]), Cmat=np.eye(2), y=np.zeros(2)
        )


def test_unconstrained_rejects_non_pd_cmat():
    q = np.eye(2)
    with pytest.raises(ValueError):
        UnconstrainedProblem(Q=q, Cmat=np.diag([1.0, 0.0]), y=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unconstrained_rejects_non_finite_diagonal_cmat(bad):
    # an infinite weight used to pass and solve to NaN scores
    with pytest.raises(ValueError):
        UnconstrainedProblem(Q=np.eye(2), Cmat=np.diag([1.0, bad]), y=np.zeros(2))


# ---------------------------------------------------------------------------
# builders


def test_build_cm_uses_normalized_laplacian_and_identity_tradeoff():
    g = random_graph(5, 0)
    part = random_partition(5, 2, 0)
    y_s = np.array([0.5, -0.5])
    p = build_cm(g, 2.0, y_s, part)
    assert np.allclose(p.Q, normalized_laplacian(g), atol=1e-12)
    assert np.allclose(p.Cmat, 2.0 * np.eye(5), atol=1e-12)
    full = np.zeros(5)
    full[part.train_idx] = y_s
    assert np.allclose(p.y, full)


def test_build_llreg_quadratic_is_reconstruction_error():
    g = random_graph(6, 1)
    part = random_partition(6, 3, 1)
    p = build_llreg(g.weights, 1.0, 2.0, np.zeros(3), part)
    rng = np.random.default_rng(0)
    h = rng.normal(size=6)
    a = g.weights / g.weights.sum(axis=1, keepdims=True)
    direct = float(np.sum((h - a @ h) ** 2))
    assert h @ p.Q @ h == pytest.approx(direct, rel=1e-10)
    # labeled points carry C_l, unlabeled C_u
    diag = np.diagonal(p.Cmat)
    assert np.all(diag[part.train_idx] == 1.0)
    assert np.all(diag[part.test_idx] == 2.0)


def test_build_gmf_uses_combinatorial_laplacian():
    g = random_graph(4, 2)
    part = random_partition(4, 2, 2)
    p = build_gmf(g, 1.5, 0.5, np.zeros(2), part)
    assert np.allclose(p.Q, laplacian(g), atol=1e-12)
    diag = np.diagonal(p.Cmat)
    assert np.all(diag[part.train_idx] == 1.5)
    assert np.all(diag[part.test_idx] == 0.5)


# ---------------------------------------------------------------------------
# stabilized variant


def test_stabilize_enforces_orthogonality():
    g = random_graph(7, 3)
    part = random_partition(7, 3, 3)
    rng = np.random.default_rng(3)
    p = build_cm(g, 1.0, rng.uniform(-1, 1, 3), part)
    h = stabilize(p).scores
    v = spectrum(p.Q).eigenvector_min
    assert abs(float(v @ h)) <= 1e-8


def test_stabilize_is_optimal_on_the_subspace():
    g = random_graph(6, 4)
    part = random_partition(6, 3, 4)
    rng = np.random.default_rng(4)
    p = build_cm(g, 1.0, rng.uniform(-1, 1, 3), part)
    h = stabilize(p).scores
    v = spectrum(p.Q).eigenvector_min

    def objective(vec):
        d = vec - p.y
        return vec @ p.Q @ vec + d @ p.Cmat @ d

    base = objective(h)
    for _ in range(200):
        z = rng.normal(size=6)
        z -= (z @ v) * v  # feasible directions only
        assert base <= objective(h + 0.1 * z) + 1e-10


def test_stabilize_rejects_a_nan_quadratic_form():
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        stabilize(UnconstrainedProblem(Q=np.array([[1.0, np.nan], [np.nan, 1.0]]),
                                       Cmat=np.eye(2), y=np.ones(2)))


def test_stabilize_matches_unconstrained_when_q_is_pd():
    # no null space: the orthogonality constraint binds against the smallest
    # eigenvector but the unconstrained optimum may already satisfy it only
    # approximately, so compare objectives instead of solutions
    rng = np.random.default_rng(5)
    n = 5
    b = rng.normal(size=(n, n))
    q = b.T @ b / n + 0.5 * np.eye(n)
    p = UnconstrainedProblem(Q=q, Cmat=np.eye(n), y=rng.uniform(-1, 1, n))
    h_free = solve_unconstrained(p).scores
    h_con = stabilize(p).scores

    def objective(vec):
        d = vec - p.y
        return vec @ p.Q @ vec + d @ p.Cmat @ d

    assert objective(h_free) <= objective(h_con) + 1e-10


# ---------------------------------------------------------------------------
# constrained family


def test_constrained_satisfies_constraint_and_stationarity():
    g = random_graph(8, 6)
    lap = laplacian(g)
    part = random_partition(8, 4, 6)
    rng = np.random.default_rng(6)
    y_s = rng.uniform(-1, 1, 4)
    p = ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part, y_S=y_s)
    h = solve_constrained(p).scores
    assert float(np.ones(8) @ h) == pytest.approx(0.0, abs=1e-9)
    # stationarity on the feasible subspace: gradient parallel to ones
    grad = 2.0 * (lap @ h)
    grad[part.train_idx] += (2.0 / part.m) * (h[part.train_idx] - y_s)
    centered = grad - grad.mean()
    assert np.max(np.abs(centered)) <= 1e-8


def test_constrained_beats_random_feasible_points():
    ok, detail = checks.constrained_optimality(7, 5, C=2.0)
    assert ok, detail


def test_constrained_equals_kernel_solution_via_pseudo_inverse():
    ok, detail = checks.pinv_kernel_equivalence(20, 4)
    assert ok, detail


def test_constrained_custom_direction():
    g = random_graph(5, 8)
    lap = laplacian(g)
    part = random_partition(5, 2, 8)
    u_vec = np.array([1.0, 2.0, 0.0, -1.0, 3.0])
    h = solve_constrained(
        ConstrainedProblem(
            L=lap, C_tradeoff=1.0, part=part,
            y_S=np.array([1.0, -1.0]), u_vec=u_vec,
        )
    ).scores
    assert float(u_vec @ h) == pytest.approx(0.0, abs=1e-9)


def test_constrained_rejects_zero_direction():
    g = random_graph(4, 9)
    part = random_partition(4, 2, 9)
    with pytest.raises(ZeroConstraintVector):
        ConstrainedProblem(
            L=laplacian(g), C_tradeoff=1.0, part=part,
            y_S=np.zeros(2), u_vec=np.zeros(4),
        )


def test_constrained_detects_disconnected_graph_with_constant_direction():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    lap = laplacian(GraphSpec(weights=w))
    part = random_partition(4, 2, 10)
    with pytest.raises(ConstraintSpansNullSpace):
        solve_constrained(
            ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part, y_S=np.zeros(2))
        )


def test_constrained_centering_removes_label_offset():
    g = random_graph(6, 11)
    lap = laplacian(g)
    part = random_partition(6, 3, 11)
    y_s = np.array([0.9, 1.0, 0.8])  # strong common offset
    h_plain = solve_constrained(
        ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part, y_S=y_s)
    ).scores
    h_centered = solve_constrained(
        ConstrainedProblem(
            L=lap, C_tradeoff=1.0, part=part, y_S=y_s, center_labels=True
        )
    ).scores
    offset = y_s.mean()
    shifted = solve_constrained(
        ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part, y_S=y_s - offset)
    ).scores
    assert np.allclose(h_centered, shifted + offset, atol=1e-9)
    assert not np.allclose(h_centered, h_plain, atol=1e-3)


# ---------------------------------------------------------------------------
# gaussian kernel


def test_gaussian_kernel_unit_diagonal_and_psd():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(10, 3))
    k = gaussian_kernel(pts, sigma=1.3)
    assert np.allclose(np.diagonal(k), 1.0)
    assert np.array_equal(k, k.T)
    assert np.min(np.linalg.eigvalsh(k)) >= -1e-9


# ---------------------------------------------------------------------------
# pseudo-targets


def pseudo_sample():
    pts = np.array([[0.0], [2.0], [1.0], [5.0]])
    targets = np.array([1.0, -1.0, 0.0, 0.0])
    return FullSample(points=pts, targets=targets, label_bound_M=1.0)


def test_pseudo_targets_hand_example_gaussian():
    s = pseudo_sample()
    part = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))
    cfg = LocalEstimatorConfig(radius_r=1.5, weighting="gaussian", sigma=1.0, fallback="zero")
    y_tilde = pseudo_targets(s, part, cfg)
    # x=1 sits exactly between labels 1 and -1: equal weights cancel
    assert y_tilde[0] == pytest.approx(0.0, abs=1e-12)
    # x=5 has no neighbor within 1.5: zero fallback
    assert y_tilde[1] == 0.0


def test_pseudo_targets_hand_example_inverse_distance():
    pts = np.array([[0.0], [1.0], [0.25]])
    s = FullSample(points=pts, targets=np.array([1.0, 0.0, 0.0]), label_bound_M=1.0)
    part = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2]))
    cfg = LocalEstimatorConfig(
        radius_r=2.0, weighting="inverse-distance", sigma=1.0, fallback="zero"
    )
    y_tilde = pseudo_targets(s, part, cfg)
    # weights 1/1.25 and 1/1.75 on labels 1 and 0 give 7/12
    assert y_tilde[0] == pytest.approx(7 / 12, abs=1e-12)


def test_pseudo_targets_error_fallback():
    s = pseudo_sample()
    part = Partition(train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))
    cfg = LocalEstimatorConfig(radius_r=1.5, weighting="gaussian", sigma=1.0, fallback="error")
    with pytest.raises(PseudoTargetUnavailable):
        pseudo_targets(s, part, cfg)


@given(st.integers(0, 5000))
@settings(max_examples=30)
def test_pseudo_targets_stay_within_label_bound(seed):
    rng = np.random.default_rng(seed)
    n = 12
    s = FullSample(
        points=rng.normal(size=(n, 2)),
        targets=rng.uniform(-1, 1, n),
        label_bound_M=1.0,
    )
    part = sample_partition(s, 6, seed)
    cfg = LocalEstimatorConfig(
        radius_r=float(rng.uniform(0.5, 3.0)),
        weighting="gaussian" if seed % 2 else "inverse-distance",
        sigma=1.0,
        fallback="zero",
    )
    y_tilde = pseudo_targets(s, part, cfg)
    assert np.all(np.abs(y_tilde) <= 1.0 + 1e-12)


def test_local_estimator_config_validation():
    with pytest.raises(ValueError):
        LocalEstimatorConfig(radius_r=-1.0, weighting="gaussian", sigma=1.0, fallback="zero")
    with pytest.raises(ValueError):
        LocalEstimatorConfig(radius_r=1.0, weighting="nope", sigma=1.0, fallback="zero")
    with pytest.raises(ValueError):
        LocalEstimatorConfig(radius_r=1.0, weighting="gaussian", sigma=0.0, fallback="zero")
    with pytest.raises(ValueError):
        LocalEstimatorConfig(radius_r=1.0, weighting="gaussian", sigma=1.0, fallback="maybe")


# ---------------------------------------------------------------------------
# kernel least squares (transductive and induction)


def test_ltr_frozen_scalar_example():
    # identity kernel, one labeled point with y=1, C=1:
    # (K_SS + m/C) alpha = y gives alpha = 1/2, so h = (1/2, 0)
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    p = LtrProblem(
        K=np.eye(2), part=part, y=np.array([1.0]), y_tilde=np.zeros(0),
        C=1.0, C_prime=0.0, kappa=1.0,
    )
    assert np.allclose(solve_ltr(p).scores, [0.5, 0.0], atol=1e-12)
    assert np.allclose(solve_krr_induction(p).scores, [0.5, 0.0], atol=1e-12)


def test_ltr_dual_drops_zero_weight_blocks():
    part = Partition(train_idx=np.array([0, 2]), test_idx=np.array([1, 3]))
    p = LtrProblem(
        K=np.eye(4), part=part, y=np.array([1.0, -1.0]), y_tilde=np.zeros(0),
        C=2.0, C_prime=0.0, kappa=1.0,
    )
    _, kept = ltr_dual_coefficients(p)
    assert list(kept) == [0, 2]


def test_ltr_zero_tradeoffs_give_zero_solution():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    p = LtrProblem(
        K=np.eye(2), part=part, y=np.array([1.0]), y_tilde=np.array([0.5]),
        C=0.0, C_prime=0.0, kappa=1.0,
    )
    assert np.allclose(solve_ltr(p).scores, 0.0)


def _ltr_objective(p: LtrProblem, alpha: np.ndarray, kept: np.ndarray) -> float:
    """Objective value of the expansion ``f = sum_kept alpha_i K(., x_i)``."""
    scores = p.K[:, kept] @ alpha
    d_s = scores[p.part.train_idx] - p.y
    d_t = scores[p.part.test_idx] - p.y_tilde
    return (float(alpha @ p.K[np.ix_(kept, kept)] @ alpha)
            + (p.C / p.part.m) * float(d_s @ d_s) + (p.C_prime / p.part.u) * float(d_t @ d_t))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_ltr_solution_minimizes_objective(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    b = rng.normal(size=(n, n))
    kern = b @ b.T
    kern = 0.5 * (kern + kern.T)
    kappa = float(np.sqrt(np.max(np.diagonal(kern))))
    part = random_partition(n, max(1, n // 2), seed)
    c_val = float(rng.uniform(0.1, 3.0))
    cp_val = float(rng.uniform(0.0, 3.0))
    y = rng.uniform(-1, 1, part.m)
    y_t = rng.uniform(-1, 1, part.u)
    p = LtrProblem(K=kern, part=part, y=y, y_tilde=y_t, C=c_val, C_prime=cp_val, kappa=kappa)
    alpha, kept = ltr_dual_coefficients(p)
    base = _ltr_objective(p, alpha, kept)
    for _ in range(30):
        perturbed = alpha + rng.normal(scale=0.05, size=alpha.size)
        assert base <= _ltr_objective(p, perturbed, kept) + 1e-10


@pytest.mark.parametrize("c_val, cp_val", [(1.3, 0.7), (1.3, 0.0), (0.0, 0.7), (0.0, 0.0)])
def test_ltr_block_of_pseudo_targets_matches_one_solve_per_column(c_val, cp_val):
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(10, 2))
    part = random_partition(10, 4, 5)
    y = rng.uniform(-1, 1, part.m)
    block = rng.uniform(-1, 1, (part.u, 3))

    def problem(y_tilde):
        return LtrProblem(K=gaussian_kernel(pts, 1.0), part=part, y=y, y_tilde=y_tilde,
                          C=c_val, C_prime=cp_val, kappa=1.0)

    alpha, kept = ltr_dual_coefficients(problem(block))
    assert alpha.shape == (kept.size, 3)
    for j in range(3):
        alpha_j, kept_j = ltr_dual_coefficients(problem(block[:, j]))
        assert np.array_equal(kept, kept_j)
        assert np.allclose(alpha[:, j], alpha_j, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        solve_ltr(problem(block))


def test_ltr_transduction_vs_induction_agree_when_c_prime_zero():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(9, 2))
    kern = gaussian_kernel(pts, 1.0)
    part = random_partition(9, 4, 17)
    y = rng.uniform(-1, 1, 4)
    p = LtrProblem(K=kern, part=part, y=y, y_tilde=np.zeros(0), C=1.2, C_prime=0.0, kappa=1.0)
    assert np.allclose(solve_ltr(p).scores, solve_krr_induction(p).scores, atol=1e-9)


def test_krr_rejects_nonzero_c_prime():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    p = LtrProblem(
        K=np.eye(2), part=part, y=np.array([1.0]), y_tilde=np.array([0.0]),
        C=1.0, C_prime=0.5, kappa=1.0,
    )
    with pytest.raises(ValueError):
        solve_krr_induction(p)


def test_ltr_rejects_indefinite_kernel():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    k_bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    p = LtrProblem(
        K=k_bad, part=part, y=np.array([1.0]), y_tilde=np.zeros(0),
        C=1.0, C_prime=0.0, kappa=2.0,
    )
    with pytest.raises(NotPSDKernel):
        solve_ltr(p)


def test_ltr_rejects_a_nan_kernel():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    k_nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        solve_ltr(LtrProblem(K=k_nan, part=part, y=np.array([1.0]), y_tilde=np.zeros(0),
                             C=1.0, C_prime=0.0, kappa=1.0))
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        KernelSystem(k_nan)



@pytest.mark.parametrize("where", ["label", "pseudo-target"])
def test_kernel_system_rejects_a_nan_target(where):
    # the dual solve returns NaN coefficients without error; its residual test catches them
    part = random_partition(6, 3, 30)
    system = KernelSystem(gaussian_kernel(np.random.default_rng(30).normal(size=(6, 2)), 1.0))
    y, y_tilde = np.array([0.5, -0.25, 1.0]), np.array([0.1, 0.2, -0.3])
    (y if where == "label" else y_tilde)[1] = np.nan
    with pytest.raises(SingularSystem, match="solution residual exceeds tolerance"):
        system.solve(part, y, y_tilde, 1.0, 0.5)
    with pytest.raises(SingularSystem, match="solution residual exceeds tolerance"):
        system.dual(part, y, np.column_stack([y_tilde, np.zeros(3)]), 1.0, 0.5)

def test_ltr_problem_rejects_kappa_below_diagonal():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    with pytest.raises(ValueError):
        LtrProblem(
            K=4.0 * np.eye(2), part=part, y=np.array([1.0]), y_tilde=np.zeros(0),
            C=1.0, C_prime=0.0, kappa=1.0,  # diag is 4 > kappa^2 = 1
        )


def test_ltr_problem_rejects_bad_label_lengths():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1, 2]))
    with pytest.raises(ValueError):
        LtrProblem(
            K=np.eye(3), part=part, y=np.array([1.0, 2.0]), y_tilde=np.zeros(0),
            C=1.0, C_prime=0.0, kappa=1.0,
        )
    with pytest.raises(ValueError):
        LtrProblem(
            K=np.eye(3), part=part, y=np.array([1.0]), y_tilde=np.zeros(1),
            C=1.0, C_prime=0.5, kappa=1.0,
        )


def test_unconstrained_rejects_non_diagonal_cmat():
    cmat = np.array([[2.0, 0.5], [0.5, 2.0]])  # positive definite, not diagonal
    with pytest.raises(ValueError, match="diagonal"):
        UnconstrainedProblem(Q=np.eye(2), Cmat=cmat, y=np.zeros(2))


# ---------------------------------------------------------------------------
# a NaN residual is a failed solve, not a result


def test_unconstrained_nan_residual_raises():
    # a NaN weight passes every check on Q and reaches the residual test
    with pytest.raises(SingularSystem, match="residual"):
        QuadraticSystem(np.eye(2)).solve(np.array([np.nan, 1.0]), np.ones(2))


def test_constrained_nan_residual_raises():
    # u's NaN passes the norm check (NaN <= 1e-24 is False) and reaches the KKT test
    system = QuadraticSystem(laplacian(random_graph(3, 14)), np.array([1.0, 2.0, np.nan]))
    with pytest.raises(SingularSystem, match="KKT residual"):
        system.solve(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_stabilized_nan_weight_raises_in_the_solve_and_the_engine():
    # a bordered solve gets the KKT residual test too: a NaN weight fails it
    # instead of returning NaN scores, and the engine's home solve fails it alike
    q = laplacian(random_graph(5, 15))
    system = QuadraticSystem(q, spectrum(q).eigenvector_min)
    part = random_partition(5, 2, 15)
    sample = FullSample(points=np.zeros((5, 1)), targets=np.linspace(-1.0, 1.0, 5),
                        label_bound_M=1.0)
    c = np.where(np.isin(np.arange(5), part.train_idx), np.nan, 1.0)
    with pytest.raises(SingularSystem, match="KKT residual"):
        system.solve(c, labels_to_full(sample.targets[part.train_idx], part))
    with pytest.raises(SingularSystem, match="KKT residual"):
        swaps.quadratic(system, sample, part, np.nan, 1.0)


def test_unconstrained_nan_matrix_is_rejected():
    q = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        solve_unconstrained(UnconstrainedProblem(Q=q, Cmat=np.eye(2), y=np.ones(2)))


def test_constrained_nan_matrix_is_rejected():
    lap = laplacian(random_graph(3, 14))
    lap[0, 1] = lap[1, 0] = np.nan
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1, 2]))
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        solve_constrained(ConstrainedProblem(L=lap, C_tradeoff=1.0, part=part,
                                             y_S=np.array([1.0]),
                                             u_vec=np.array([1.0, 2.0, 3.0])))


# ---------------------------------------------------------------------------
# prepared systems: built once, solved for every partition


def _swapped_partitions(part):
    return [part, *(apply_swap(part, SwapPair(removed=i, added=j))
                    for i, j in zip(*enumerate_swaps(part)))]


@pytest.mark.parametrize("family", ["cm", "llreg", "gmf"])
@pytest.mark.parametrize("stabilized", [False, True])
def test_quadratic_system_matches_the_public_solver_on_every_swap(family, stabilized):
    g = random_graph(7, 20)
    targets = np.random.default_rng(20).uniform(-1, 1, 7)
    home = random_partition(7, 3, 20)

    def problem(p):
        y = targets[p.train_idx]
        if family == "cm":
            return build_cm(g, 0.7, y, p)
        if family == "llreg":
            return build_llreg(g.weights, 2.0, 0.5, y, p)
        return build_gmf(g, 2.0, 0.5, y, p)

    q = problem(home).Q
    system = QuadraticSystem(q, spectrum(q).eigenvector_min if stabilized else None)
    public = stabilize if stabilized else solve_unconstrained
    for p in _swapped_partitions(home):
        prob = problem(p)
        got = system.solve(np.diagonal(prob.Cmat), prob.y).scores
        assert np.array_equal(got, public(prob).scores)


@pytest.mark.parametrize("center", [False, True])
def test_laplacian_system_matches_the_public_solver_on_every_swap(center):
    lap = laplacian(random_graph(7, 21))
    targets = np.random.default_rng(21).uniform(-1, 1, 7)
    home = random_partition(7, 3, 21)
    system = QuadraticSystem(lap, np.ones(7))
    for p in _swapped_partitions(home):
        y = targets[p.train_idx]
        c = labels_to_full(np.full(p.m, 2.0 / p.m), p)
        got = system.solve(c, labels_to_full(y, p), center_labels=center).scores
        want = solve_constrained(
            ConstrainedProblem(L=lap, C_tradeoff=2.0, part=p, y_S=y, center_labels=center)
        ).scores
        assert np.array_equal(got, want)


@pytest.mark.parametrize("c_val, cp_val", [(1.3, 0.7), (1.3, 0.0), (0.0, 0.7)])
def test_kernel_system_matches_the_public_solvers_on_every_swap(c_val, cp_val):
    rng = np.random.default_rng(22)
    kern = gaussian_kernel(rng.normal(size=(7, 2)), 1.0)
    targets = rng.uniform(-1, 1, 7)
    pseudo = rng.uniform(-1, 1, 7)
    home = random_partition(7, 3, 22)
    system = KernelSystem(kern)
    for p in _swapped_partitions(home):
        y, y_t = targets[p.train_idx], pseudo[p.test_idx]
        got = system.solve(p, y, y_t, c_val, cp_val).scores
        prob = LtrProblem(K=kern, part=p, y=y, y_tilde=y_t, C=c_val, C_prime=cp_val, kappa=1.0)
        assert np.array_equal(got, solve_ltr(prob).scores)
        if cp_val == 0:
            assert np.array_equal(got, solve_krr_induction(prob).scores)


def _assert_engine_matches_the_system(u, c_S, c_T, center=False):
    lap = laplacian(random_graph(7, 24))
    sample = FullSample(points=np.zeros((7, 1)),
                        targets=np.random.default_rng(24).uniform(-1, 1, 7), label_bound_M=1.0)
    home = random_partition(7, 3, 24)
    system = QuadraticSystem(lap, spectrum(lap).eigenvector_min if isinstance(u, str) else u)

    def weights(p):
        c = np.full(p.n, c_T)
        c[p.train_idx] = c_S
        return c

    want = [system.solve(weights(p), labels_to_full(sample.targets[p.train_idx], p),
                         center).scores for p in _swapped_partitions(home)[1:]]
    got = swaps.quadratic(system, sample, home, c_S, c_T, center)(*enumerate_swaps(home))
    assert np.max(np.abs(got - np.vstack(want))) <= 1e-12


@pytest.mark.parametrize("u", [None, "bottom"], ids=["unbordered", "stabilized"])
def test_quadratic_swap_engine_matches_the_system_on_every_swap(u):
    # gmf's weights: c > 0 on every point
    _assert_engine_matches_the_system(u, 2.0, 0.5)


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("u", [np.ones(7), np.linspace(0.5, 2.0, 7)])
def test_laplacian_swap_engine_matches_the_system_on_every_swap(center, u):
    # the constrained Laplacian: weight C/m on S (C = 2, m = 3) and 0 on T
    _assert_engine_matches_the_system(u, 2.0 / 3, 0.0, center)


@pytest.mark.parametrize("c_val, cp_val", [(0.0, 0.7), (0.0, 0.0)])
def test_kernel_swap_engine_with_a_zero_tradeoff(c_val, cp_val):
    rng = np.random.default_rng(25)
    sample = FullSample(points=rng.normal(size=(7, 2)), targets=rng.uniform(-1, 1, 7),
                        label_bound_M=1.0)
    local = LocalEstimatorConfig(radius_r=1.5, sigma=1.0, fallback="zero")
    home = random_partition(7, 3, 25)
    system = KernelSystem(gaussian_kernel(sample.points, 1.0))
    want = [system.solve(p, sample.targets[p.train_idx], pseudo_targets(sample, p, local),
                         c_val, cp_val).scores for p in _swapped_partitions(home)[1:]]
    got = swaps.kernel(system, sample, home, c_val, cp_val, local)(*enumerate_swaps(home))
    assert np.max(np.abs(got - np.vstack(want))) <= 1e-12


def test_kernel_swap_engine_when_every_neighbour_weight_underflows():
    # neighbours 0.5 apart at sigma 0.01 weigh exp(-1250) = 0: the
    # pseudo-target falls back to the plain average of their labels
    points = 0.5 * np.arange(8.0)
    sample = FullSample(points=points, targets=np.random.default_rng(26).uniform(-1, 1, 8),
                        label_bound_M=1.0)
    local = LocalEstimatorConfig(radius_r=1.0, sigma=0.01, fallback="zero")
    home = Partition(train_idx=[0, 2, 4, 6], test_idx=[1, 3, 5, 7])
    system = KernelSystem(gaussian_kernel(points, 1.0))
    assert np.any(pseudo_targets(sample, home, local) != 0.0)
    want = [system.solve(p, sample.targets[p.train_idx], pseudo_targets(sample, p, local),
                         1.3, 0.7).scores for p in _swapped_partitions(home)[1:]]
    got = swaps.kernel(system, sample, home, 1.3, 0.7, local)(*enumerate_swaps(home))
    assert np.max(np.abs(got - np.vstack(want))) <= 1e-12


def test_systems_check_their_matrix_at_construction():
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    for system in (KernelSystem, QuadraticSystem, lambda m: QuadraticSystem(m, np.ones(2))):
        with pytest.raises(NotSymmetric):
            system(asym)
    with pytest.raises(NotPSDKernel):
        KernelSystem(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ZeroConstraintVector):
        QuadraticSystem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="one entry per row"):
        QuadraticSystem(np.eye(2), np.ones(3))


def test_systems_do_not_change_when_the_caller_mutates_the_source():
    rng = np.random.default_rng(23)
    kern = gaussian_kernel(rng.normal(size=(6, 2)), 1.0)
    lap = laplacian(random_graph(6, 23))
    bottom = spectrum(lap).eigenvector_min.copy()
    systems = [KernelSystem(kern), QuadraticSystem(lap, bottom)]
    before = [{k: np.array(v) for k, v in vars(s).items() if isinstance(v, np.ndarray)}
              for s in systems]
    for arr in (kern, lap, bottom):
        arr += 1.0
    for system, arrays in zip(systems, before):
        for name, value in arrays.items():
            assert np.array_equal(getattr(system, name), value), name


def test_systems_share_a_read_only_matrix():
    lap = laplacian(random_graph(5, 24))
    problem = UnconstrainedProblem(Q=lap, Cmat=np.eye(5), y=np.zeros(5))
    assert QuadraticSystem(problem.Q).Q is problem.Q


def test_krr_at_zero_tradeoff_returns_zeros():
    rng = np.random.default_rng(25)
    kern = gaussian_kernel(rng.normal(size=(6, 2)), 1.0)
    part = random_partition(6, 3, 25)
    y = rng.uniform(-1, 1, 3)
    assert np.array_equal(KernelSystem(kern).solve(part, y, np.zeros(0), 0.0, 0.0).scores,
                          np.zeros(6))
    p = LtrProblem(K=kern, part=part, y=y, y_tilde=np.zeros(0), C=0.0, C_prime=0.0, kappa=1.0)
    assert np.array_equal(solve_krr_induction(p).scores, np.zeros(6))


def _ring_with_chords(n=24):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 0.5 + (i % 3) / 4
    for i in range(0, n, 2):
        w[i, (i + 5) % n] = w[(i + 5) % n, i] = 0.25
    return GraphSpec(weights=w)


@pytest.mark.parametrize("family", ["cm", "llreg", "gmf"])
@pytest.mark.parametrize("graph", ["affinity", "ring"])
def test_graph_quadratic_null_vector_is_the_bottom_eigenvector(family, graph):
    if graph == "ring":
        g = _ring_with_chords()
    else:
        g = gaussian_affinity(np.random.default_rng(0).normal(size=(24, 3)), 1.0)
    q, v = graph_quadratic(family, g)
    bottom = spectrum(q).eigenvector_min
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(v - np.sign(v @ bottom) * bottom)) <= 1e-12
    assert np.linalg.norm(q @ v) <= 1e-12 * np.linalg.norm(q, 2)


def test_graph_quadratic_matches_the_builders():
    g = _ring_with_chords(9)
    part = Partition(train_idx=np.arange(0, 9, 2), test_idx=np.arange(1, 9, 2))
    y = np.zeros(part.m)
    for family, problem in (("cm", build_cm(g, 1.0, y, part)),
                            ("llreg", build_llreg(g.weights, 1.0, 1.0, y, part)),
                            ("gmf", build_gmf(g, 1.0, 1.0, y, part))):
        assert np.array_equal(graph_quadratic(family, g)[0], problem.Q), family
    with pytest.raises(ValueError, match="unknown"):
        graph_quadratic("laplacian", g)


def test_laplacian_system_takes_the_eigenvalues_it_is_given(monkeypatch):
    g = _ring_with_chords()
    given_spectrum = g.L_eigenvalues

    def refuse(*args, **kwargs):
        raise AssertionError("the spectrum was computed again")

    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0  # two components
    disconnected = GraphSpec(weights=w)
    disconnected_spectrum = disconnected.L_eigenvalues
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    system = QuadraticSystem(g.L, np.ones(g.n))
    system.check_null_space(given_spectrum)
    assert system.Q is g.L  # shared, not copied
    with pytest.raises(ConstraintSpansNullSpace):
        QuadraticSystem(disconnected.L, np.ones(4)).check_null_space(disconnected_spectrum)
