"""Exact solvers: closed forms, optimality oracles, and input validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import (
    ConstraintSpansNullSpace,
    FullSample,
    GraphSpec,
    KernelSystem,
    LocalEstimatorConfig,
    NonFiniteMatrix,
    NotPSDKernel,
    NotSymmetric,
    Partition,
    PseudoTargetUnavailable,
    QuadraticSystem,
    apply_swap,
    enumerate_swaps,
    gaussian_affinity,
    gaussian_kernel,
    laplacian,
    normalized_laplacian,
    pseudo_targets,
    pseudo_targets_by_radius,
    row_normalize,
    sample_partition,
    solve_constrained,
    solve_krr_induction,
    solve_ltr,
    solve_unconstrained,
    stabilize,
)
from stabreg import checks, swaps
from stabreg.errors import SingularSystem, ZeroConstraintVector
from stabreg.graph import sq_distances
from stabreg.regressors import graph_quadratic, labels_to_full


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = np.triu(w, 1)
    return GraphSpec(weights=w + w.T)


def _llreg(g):
    """LL-Reg's Q = (I - A)^T (I - A) for the row-normalized A, built here."""
    m_mat = np.eye(g.n) - row_normalize(g.weights)
    q = m_mat.T @ m_mat
    return 0.5 * (q + q.T)


def random_partition(n, m, seed):
    s = FullSample(points=np.arange(float(n))[:, None], targets=np.zeros(n), label_bound_M=1.0)
    return sample_partition(s, m, seed)


# ---------------------------------------------------------------------------
# unconstrained family


def test_unconstrained_frozen_example():
    # Q couples the two points, C = I, y = (1, 0); solving
    # (Q + I) h = y gives h = (2/3, 1/3)
    q = np.array([[1.0, -1.0], [-1.0, 1.0]])
    h = solve_unconstrained(q, np.ones(2), np.array([1.0, 0.0]))
    assert np.allclose(h, [2 / 3, 1 / 3], atol=1e-12)


def test_unconstrained_matches_direct_inverse():
    rng = np.random.default_rng(2)
    for seed in range(5):
        n = 8
        b = rng.normal(size=(n, n))
        q = b.T @ b / n
        c = rng.uniform(0.5, 3.0, n)
        y = rng.uniform(-1, 1, n)
        h = solve_unconstrained(q, c, y)
        # independent closed form: h = (C^{-1} Q + I)^{-1} y
        ref = np.linalg.solve(np.linalg.inv(np.diag(c)) @ q + np.eye(n), y)
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
    h = solve_unconstrained(q, np.diagonal(cmat), y)

    def objective(v):
        d = v - y
        return v @ q @ v + d @ cmat @ d

    base = objective(h)
    for _ in range(50):
        assert base <= objective(h + rng.normal(scale=0.1, size=n)) + 1e-10


def test_unconstrained_rejects_asymmetric_q():
    with pytest.raises(NotSymmetric):
        solve_unconstrained(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), np.zeros(2))


def test_unconstrained_rejects_non_pd_cmat():
    # a zero weight without a constraint: a divide warning at the residual
    # test, or a solve that quietly drops the point
    with pytest.raises(ValueError, match="positive without a constraint"):
        QuadraticSystem(np.eye(3)).solve([1.0, 0.0, 1.0], np.ones(3))
    # a negative weight used to solve to [0.5, -1, 0.5]
    with pytest.raises(ValueError, match="positive without a constraint"):
        QuadraticSystem(np.eye(3)).solve([1.0, -0.5, 1.0], np.ones(3))
    # with a constraint a zero weight is allowed, a negative one is not
    bordered = QuadraticSystem(laplacian(random_graph(3, 0)), np.ones(3))
    assert bordered.solve([1.0, 0.0, 1.0], [1.0, 0.0, -1.0]).shape == (3,)
    with pytest.raises(ValueError, match="non-negative with one"):
        bordered.solve([1.0, -0.5, 1.0], np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unconstrained_rejects_non_finite_diagonal_cmat(bad):
    # an infinite weight used to pass and solve to NaN scores
    for system in (QuadraticSystem(np.eye(2)), QuadraticSystem(np.eye(2), np.ones(2))):
        with pytest.raises(ValueError, match="finite"):
            system.solve(np.array([1.0, bad]), np.zeros(2))


def test_quadratic_system_rejects_weights_or_labels_of_the_wrong_length():
    # a length-1 c or y used to broadcast over every point
    system = QuadraticSystem(np.eye(3))
    for c, y in (([2.0], np.ones(3)), (np.ones(3), [1.0]), (np.ones(4), np.ones(4))):
        with pytest.raises(ValueError, match="one entry per row"):
            system.solve(c, y)


def test_llreg_quadratic_is_reconstruction_error():
    g = random_graph(6, 1)
    q = graph_quadratic("llreg", g)[0]
    h = np.random.default_rng(0).normal(size=6)
    a = g.weights / g.weights.sum(axis=1, keepdims=True)
    direct = float(np.sum((h - a @ h) ** 2))
    assert h @ q @ h == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# stabilized variant


def test_stabilize_enforces_orthogonality():
    g = random_graph(7, 3)
    part = random_partition(7, 3, 3)
    rng = np.random.default_rng(3)
    q = normalized_laplacian(g)
    h = stabilize(q, np.ones(7), labels_to_full(rng.uniform(-1, 1, 3), part))
    v = np.linalg.eigh(q)[1][:, 0]
    assert abs(float(v @ h)) <= 1e-8


def test_stabilize_is_optimal_on_the_subspace():
    g = random_graph(6, 4)
    part = random_partition(6, 3, 4)
    rng = np.random.default_rng(4)
    q = normalized_laplacian(g)
    y = labels_to_full(rng.uniform(-1, 1, 3), part)
    h = stabilize(q, np.ones(6), y)
    v = np.linalg.eigh(q)[1][:, 0]

    def objective(vec):
        d = vec - y
        return vec @ q @ vec + d @ d

    base = objective(h)
    for _ in range(200):
        z = rng.normal(size=6)
        z -= (z @ v) * v  # feasible directions only
        assert base <= objective(h + 0.1 * z) + 1e-10


def test_stabilize_rejects_a_nan_quadratic_form():
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        stabilize(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2), np.ones(2))


def test_stabilize_matches_unconstrained_when_q_is_pd():
    # no null space: the orthogonality constraint binds against the smallest
    # eigenvector but the unconstrained optimum may already satisfy it only
    # approximately, so compare objectives instead of solutions
    rng = np.random.default_rng(5)
    n = 5
    b = rng.normal(size=(n, n))
    q = b.T @ b / n + 0.5 * np.eye(n)
    y = rng.uniform(-1, 1, n)
    h_free = solve_unconstrained(q, np.ones(n), y)
    h_con = stabilize(q, np.ones(n), y)

    def objective(vec):
        d = vec - y
        return vec @ q @ vec + d @ d

    assert objective(h_free) <= objective(h_con) + 1e-10


# ---------------------------------------------------------------------------
# constrained family


def test_constrained_satisfies_constraint_and_stationarity():
    g = random_graph(8, 6)
    lap = laplacian(g)
    part = random_partition(8, 4, 6)
    rng = np.random.default_rng(6)
    y_s = rng.uniform(-1, 1, 4)
    h = solve_constrained(lap, part, y_s, 1.0)
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
    h = solve_constrained(lap, part, np.array([1.0, -1.0]), 1.0, u=u_vec)
    assert float(u_vec @ h) == pytest.approx(0.0, abs=1e-9)


def test_constrained_rejects_zero_direction():
    g = random_graph(4, 9)
    part = random_partition(4, 2, 9)
    with pytest.raises(ZeroConstraintVector):
        solve_constrained(laplacian(g), part, np.zeros(2), 1.0, u=np.zeros(4))


def test_constrained_detects_disconnected_graph_with_constant_direction():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    lap = laplacian(GraphSpec(weights=w))
    part = random_partition(4, 2, 10)
    with pytest.raises(ConstraintSpansNullSpace):
        solve_constrained(lap, part, np.zeros(2), 1.0)


def test_constrained_centering_removes_label_offset():
    g = random_graph(6, 11)
    lap = laplacian(g)
    part = random_partition(6, 3, 11)
    y_s = np.array([0.9, 1.0, 0.8])  # strong common offset
    h_plain = solve_constrained(lap, part, y_s, 1.0)
    h_centered = solve_constrained(lap, part, y_s, 1.0, center_labels=True)
    offset = y_s.mean()
    shifted = solve_constrained(lap, part, y_s - offset, 1.0)
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


def _pseudo_targets_per_row(sample, part, cfg):
    """The estimator one unlabeled point at a time: the reference for the vectorized rule."""
    ys = sample.targets[part.train_idx]
    d2 = sq_distances(sample.points[part.test_idx], sample.points[part.train_idx])
    out = np.zeros(part.u)
    for row in range(part.u):
        member = d2[row] <= cfg.radius_r * cfg.radius_r
        if cfg.weighting == "gaussian":
            weights = np.exp(-d2[row] / (2.0 * cfg.sigma * cfg.sigma))
        else:
            weights = 1.0 / (1.0 + np.sqrt(d2[row]))
        weights = np.where(member, weights, 0.0)
        if not member.any():
            if cfg.fallback == "error":
                raise PseudoTargetUnavailable(
                    f"unlabeled point {int(part.test_idx[row])} has no labeled "
                    f"neighbor within radius {cfg.radius_r}")
        elif weights.sum() == 0.0:  # every weight underflowed: the plain average
            out[row] = ys[member].mean()
        else:
            out[row] = float(weights @ ys) / weights.sum()
    return out


def _outcome(fn, *args):
    """fn's result, or the message of the PseudoTargetUnavailable it raises."""
    try:
        return fn(*args)
    except PseudoTargetUnavailable as exc:
        return str(exc)


@given(seed=st.integers(0, 10_000), n=st.integers(3, 24), dim=st.integers(1, 3),
       weighting=st.sampled_from(["gaussian", "inverse-distance"]),
       fallback=st.sampled_from(["zero", "error"]),
       sigma=st.sampled_from([1e-3, 0.3, 1.0, 5.0]),
       radii=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0]),
                      min_size=1, max_size=5, unique=True))
@settings(max_examples=150, deadline=None)
def test_pseudo_targets_of_a_radius_grid_match_each_radius_and_the_per_row_rule(
        seed, n, dim, weighting, fallback, sigma, radii):
    # sigma 1e-3 underflows every weight between distinct points (the plain
    # average then applies); radius 0 empties every ball without a duplicate point
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    points[rng.integers(0, n, size=n // 4)] = points[0]  # some duplicates: zero distances
    sample = FullSample(points=points, targets=rng.uniform(-2.0, 2.0, n), label_bound_M=2.0)
    part = sample_partition(sample, int(rng.integers(1, n)), seed)
    at = pseudo_targets_by_radius(
        sample, part, LocalEstimatorConfig(radius_r=0.0, weighting=weighting, sigma=sigma,
                                           fallback=fallback))
    for r in sorted(radii):
        cfg = LocalEstimatorConfig(radius_r=r, weighting=weighting, sigma=sigma,
                                   fallback=fallback)
        swept, single = _outcome(at, r), _outcome(pseudo_targets, sample, part, cfg)
        reference = _outcome(_pseudo_targets_per_row, sample, part, cfg)
        if isinstance(reference, str):
            assert swept == single == reference
        else:
            assert np.array_equal(swept, single)
            # the vectorized sums add in another order: a few ulps of M
            np.testing.assert_allclose(swept, reference, rtol=1e-12, atol=1e-12 * 2.0)


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
    y = np.array([1.0])
    assert np.allclose(solve_ltr(np.eye(2), part, y, np.zeros(0), 1.0, 0.0), [0.5, 0.0],
                       atol=1e-12)
    assert np.allclose(solve_krr_induction(np.eye(2), part, y, 1.0), [0.5, 0.0],
                       atol=1e-12)


def test_ltr_dual_drops_zero_weight_blocks():
    part = Partition(train_idx=np.array([0, 2]), test_idx=np.array([1, 3]))
    _, kept = KernelSystem(np.eye(4)).dual(part, np.array([1.0, -1.0]), np.zeros(0), 2.0, 0.0)
    assert list(kept) == [0, 2]


def test_ltr_zero_tradeoffs_give_zero_solution():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    h = solve_ltr(np.eye(2), part, np.array([1.0]), np.array([0.5]), 0.0, 0.0)
    assert np.allclose(h, 0.0)


def _ltr_objective(kern, part, y, y_t, c_val, cp_val, alpha, kept) -> float:
    """Objective value of the expansion ``f = sum_kept alpha_i K(., x_i)``."""
    scores = kern[:, kept] @ alpha
    d_s = scores[part.train_idx] - y
    d_t = scores[part.test_idx] - y_t
    return (float(alpha @ kern[np.ix_(kept, kept)] @ alpha)
            + (c_val / part.m) * float(d_s @ d_s) + (cp_val / part.u) * float(d_t @ d_t))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_ltr_solution_minimizes_objective(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    b = rng.normal(size=(n, n))
    kern = b @ b.T
    kern = 0.5 * (kern + kern.T)
    part = random_partition(n, max(1, n // 2), seed)
    c_val = float(rng.uniform(0.1, 3.0))
    cp_val = float(rng.uniform(0.0, 3.0))
    y = rng.uniform(-1, 1, part.m)
    y_t = rng.uniform(-1, 1, part.u)
    alpha, kept = KernelSystem(kern).dual(part, y, y_t, c_val, cp_val)
    base = _ltr_objective(kern, part, y, y_t, c_val, cp_val, alpha, kept)
    for _ in range(30):
        perturbed = alpha + rng.normal(scale=0.05, size=alpha.size)
        assert base <= _ltr_objective(kern, part, y, y_t, c_val, cp_val, perturbed, kept) + 1e-10


@pytest.mark.parametrize("c_val, cp_val", [(1.3, 0.7), (1.3, 0.0), (0.0, 0.7), (0.0, 0.0)])
def test_ltr_block_of_pseudo_targets_matches_one_solve_per_column(c_val, cp_val):
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(10, 2))
    part = random_partition(10, 4, 5)
    y = rng.uniform(-1, 1, part.m)
    block = rng.uniform(-1, 1, (part.u, 3))
    kern = gaussian_kernel(pts, 1.0)
    system = KernelSystem(kern)

    alpha, kept = system.dual(part, y, block, c_val, cp_val)
    assert alpha.shape == (kept.size, 3)
    for j in range(3):
        alpha_j, kept_j = system.dual(part, y, block[:, j], c_val, cp_val)
        assert np.array_equal(kept, kept_j)
        assert np.allclose(alpha[:, j], alpha_j, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="solved by dual"):
        solve_ltr(kern, part, y, block, c_val, cp_val)


def test_ltr_transduction_vs_induction_agree_when_c_prime_zero():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(9, 2))
    kern = gaussian_kernel(pts, 1.0)
    part = random_partition(9, 4, 17)
    y = rng.uniform(-1, 1, 4)
    assert np.allclose(solve_ltr(kern, part, y, np.zeros(0), 1.2, 0.0),
                       solve_krr_induction(kern, part, y, 1.2), atol=1e-9)


def test_ltr_rejects_indefinite_kernel():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    k_bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NotPSDKernel):
        solve_ltr(k_bad, part, np.array([1.0]), np.zeros(0), 1.0, 0.0)


def test_ltr_rejects_a_nan_kernel():
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1]))
    k_nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        solve_ltr(k_nan, part, np.array([1.0]), np.zeros(0), 1.0, 0.0)
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

def test_ltr_problem_rejects_bad_label_lengths():
    # a long y or y_tilde used to be truncated to its first m or u entries
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1, 2]))
    system = KernelSystem(np.eye(3))
    y = np.array([1.0])
    for bad_y, y_tilde, c_prime, message in (
        (np.array([1.0, 2.0]), np.zeros(0), 0.0, "y must have length m"),
        (y, np.zeros(1), 0.5, "y_tilde must have length u"),
        (y, np.zeros(3), 0.5, "y_tilde must have length u"),
        (y, np.zeros(1), 0.0, "y_tilde must have length u"),
        (y, np.zeros(0), 0.5, "requires pseudo-targets"),  # used to raise IndexError
    ):
        with pytest.raises(ValueError, match=message):
            system.dual(part, bad_y, y_tilde, 1.0, c_prime)
    with pytest.raises(ValueError, match="one index per row of K"):
        KernelSystem(np.eye(4)).dual(part, y, np.zeros(0), 1.0, 0.0)


@pytest.mark.parametrize("c_val, cp_val", [(np.nan, 0.5), (1.0, np.nan), (np.inf, 0.5),
                                           (1.0, np.inf), (-1.0, 0.5), (1.0, -0.5)])
def test_kernel_system_rejects_a_bad_tradeoff(c_val, cp_val):
    # a NaN trade-off used to drop its loss term: C < 0 is False for NaN
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1, 2]))
    with pytest.raises(ValueError, match="finite and non-negative"):
        KernelSystem(np.eye(3)).solve(part, np.array([1.0]), np.zeros(2), c_val, cp_val)


# ---------------------------------------------------------------------------
# a NaN residual is a failed solve, not a result


def test_unconstrained_nan_residual_raises():
    # a NaN label passes every check on Q and c and reaches the residual test
    with pytest.raises(SingularSystem, match="residual"):
        QuadraticSystem(np.eye(2)).solve(np.ones(2), np.array([np.nan, 1.0]))


def test_constrained_nan_residual_raises():
    # u's NaN passes the norm check (NaN <= 1e-24 is False) and reaches the KKT test
    system = QuadraticSystem(laplacian(random_graph(3, 14)), np.array([1.0, 2.0, np.nan]))
    with pytest.raises(SingularSystem, match="KKT residual"):
        system.solve(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_residual_tests_do_not_overflow_on_huge_weights_or_labels():
    # each residual test squared entries of c y, or of y, past the float
    # range (a RuntimeWarning) although the solve itself stays in range
    lap = laplacian(random_graph(6, 16))
    part = random_partition(6, 3, 16)
    y_s = np.array([0.5, -0.25, 1.0])
    y = part.on_sides(y_s)
    h = QuadraticSystem(lap, np.ones(6)).solve(part.on_sides(1e306), y, center_labels=True)
    assert np.allclose(h[part.train_idx], y_s)
    system = QuadraticSystem(lap)
    assert np.allclose(system.solve(np.ones(6), 1e200 * y) / 1e200,
                       system.solve(np.ones(6), y), rtol=1e-12, atol=0.0)
    kernel = KernelSystem(gaussian_kernel(np.arange(6.0)[:, None], 1.0))
    assert np.allclose(kernel.solve(part, 1e200 * y_s, np.zeros(0), 1.0, 0.0) / 1e200,
                       kernel.solve(part, y_s, np.zeros(0), 1.0, 0.0), rtol=1e-12, atol=0.0)


def test_stabilized_nan_weight_raises_in_the_solve_and_the_engine():
    # the solve rejects a NaN weight up front; the engine, which takes its
    # weights as two scalars, fails the KKT residual test on its home solve
    q = laplacian(random_graph(5, 15))
    system = QuadraticSystem(q, np.linalg.eigh(q)[1][:, 0])
    part = random_partition(5, 2, 15)
    sample = FullSample(points=np.zeros((5, 1)), targets=np.linspace(-1.0, 1.0, 5),
                        label_bound_M=1.0)
    c = np.where(np.isin(np.arange(5), part.train_idx), np.nan, 1.0)
    with pytest.raises(ValueError, match="finite"):
        system.solve(c, labels_to_full(sample.targets[part.train_idx], part))
    with pytest.raises(SingularSystem, match="KKT residual"):
        swaps.quadratic(system, sample, part, np.nan, 1.0)


def test_unconstrained_nan_matrix_is_rejected():
    q = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        solve_unconstrained(q, np.ones(2), np.ones(2))


def test_constrained_nan_matrix_is_rejected():
    lap = laplacian(random_graph(3, 14))
    lap[0, 1] = lap[1, 0] = np.nan
    part = Partition(train_idx=np.array([0]), test_idx=np.array([1, 2]))
    with pytest.raises(NonFiniteMatrix, match="non-finite"):
        solve_constrained(lap, part, np.array([1.0]), 1.0, u=np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# prepared systems: built once, solved for every partition


def _swapped_partitions(part):
    return [part, *(apply_swap(part, i, j)
                    for i, j in zip(*enumerate_swaps(part)))]


@pytest.mark.parametrize("family", ["cm", "llreg", "gmf"])
@pytest.mark.parametrize("stabilized", [False, True])
def test_quadratic_system_matches_the_public_solver_on_every_swap(family, stabilized):
    g = random_graph(7, 20)
    targets = np.random.default_rng(20).uniform(-1, 1, 7)
    home = random_partition(7, 3, 20)
    q = {"cm": normalized_laplacian(g), "llreg": _llreg(g), "gmf": laplacian(g)}[family]
    c_S, c_T = (0.7, 0.7) if family == "cm" else (2.0, 0.5)
    system = QuadraticSystem(q, np.linalg.eigh(q)[1][:, 0] if stabilized else None)
    public = stabilize if stabilized else solve_unconstrained
    for p in _swapped_partitions(home):
        c = np.full(7, c_T)
        c[p.train_idx] = c_S
        y = labels_to_full(targets[p.train_idx], p)
        assert np.array_equal(system.solve(c, y), public(q, c, y))


@pytest.mark.parametrize("center", [False, True])
def test_laplacian_system_matches_the_public_solver_on_every_swap(center):
    lap = laplacian(random_graph(7, 21))
    targets = np.random.default_rng(21).uniform(-1, 1, 7)
    home = random_partition(7, 3, 21)
    system = QuadraticSystem(lap, np.ones(7))
    for p in _swapped_partitions(home):
        y = targets[p.train_idx]
        c = labels_to_full(np.full(p.m, 2.0 / p.m), p)
        got = system.solve(c, labels_to_full(y, p), center_labels=center)
        want = solve_constrained(lap, p, y, 2.0, center_labels=center)
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
        got = system.solve(p, y, y_t, c_val, cp_val)
        assert np.array_equal(got, solve_ltr(kern, p, y, y_t, c_val, cp_val))
        if cp_val == 0:
            assert np.array_equal(got, solve_krr_induction(kern, p, y, c_val))


def _assert_engine_matches_the_system(u, c_S, c_T, center=False):
    lap = laplacian(random_graph(7, 24))
    sample = FullSample(points=np.zeros((7, 1)),
                        targets=np.random.default_rng(24).uniform(-1, 1, 7), label_bound_M=1.0)
    home = random_partition(7, 3, 24)
    system = QuadraticSystem(lap, np.linalg.eigh(lap)[1][:, 0] if isinstance(u, str) else u)

    def weights(p):
        c = np.full(p.n, c_T)
        c[p.train_idx] = c_S
        return c

    want = [system.solve(weights(p), labels_to_full(sample.targets[p.train_idx], p),
                         center) for p in _swapped_partitions(home)[1:]]
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
                         c_val, cp_val) for p in _swapped_partitions(home)[1:]]
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
                         1.3, 0.7) for p in _swapped_partitions(home)[1:]]
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
    bottom = np.linalg.eigh(lap)[1][:, 0].copy()
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
    lap.flags.writeable = False
    assert QuadraticSystem(lap).Q is lap
    assert QuadraticSystem(lap, np.ones(5)).Q is lap


def test_krr_at_zero_tradeoff_returns_zeros():
    rng = np.random.default_rng(25)
    kern = gaussian_kernel(rng.normal(size=(6, 2)), 1.0)
    part = random_partition(6, 3, 25)
    y = rng.uniform(-1, 1, 3)
    assert np.array_equal(KernelSystem(kern).solve(part, y, np.zeros(0), 0.0, 0.0),
                          np.zeros(6))
    assert np.array_equal(solve_krr_induction(kern, part, y, 0.0), np.zeros(6))


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
    bottom = np.linalg.eigh(q)[1][:, 0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(v - np.sign(v @ bottom) * bottom)) <= 1e-12
    assert np.linalg.norm(q @ v) <= 1e-12 * np.linalg.norm(q, 2)


def test_graph_quadratic_matches_the_builders():
    g = _ring_with_chords(9)
    for family, q in (("cm", normalized_laplacian(g)), ("llreg", _llreg(g)),
                      ("gmf", laplacian(g))):
        assert np.array_equal(graph_quadratic(family, g)[0], q), family
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
