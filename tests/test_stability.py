"""Closed-form stability coefficients, empirical sweeps, and the worst case."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import _kernels, regressors, swaps
from stabreg import (
    BoundDiverges,
    EmptyNeighborhood,
    FullSample,
    GraphDisconnected,
    GraphSpec,
    HypothesisScores,
    InvalidInstance,
    InvalidStabilityInput,
    KernelSystem,
    LocalEstimatorConfig,
    Partition,
    PseudoTargetUnavailable,
    QuadraticSystem,
    SingularSystem,
    SpectrumSummary,
    StabilityInputs,
    SwapPair,
    apply_swap,
    belkin_cost_stability,
    belkin_score_stability,
    beta_loc_bound,
    beta_loc_gaussian,
    beta_loc_invdist,
    build_cm,
    build_llreg,
    cm_lower_bound_demo,
    cm_lower_bound_instance,
    cm_score_bound,
    empirical_stability,
    enumerate_swaps,
    gaussian_kernel,
    laplacian,
    llreg_score_bound,
    llreg_score_bound_spectral,
    ltr_stability_bound,
    pseudo_targets,
    sample_partition,
    solve_unconstrained,
    unconstrained_score_bound,
)
from stabreg.regressors import labels_to_full
from stabreg.stability import SWAP_BUDGET, _default_swaps


# ---------------------------------------------------------------------------
# kernel least-squares coefficient


def test_ltr_bound_frozen_labeled_only():
    # C'=0: A = 2, bound = 2 (2M)^2 kappa^2 [C/m + sqrt((C/m)^2)] = 16/m
    si = StabilityInputs(m=10, u=10, C=1.0, C_prime=0.0, kappa=1.0, M=1.0)
    assert ltr_stability_bound(si) == pytest.approx(1.6, abs=1e-12)


def test_ltr_bound_frozen_with_pseudo_labels():
    si = StabilityInputs(m=10, u=10, C=1.0, C_prime=1.0, kappa=1.0, M=1.0, beta_loc=0.1)
    # hand-evaluated closed form
    a_fac = 1.0 + math.sqrt(2.0)
    inner = math.sqrt(0.2**2 + 2 * 0.1 / (a_fac * 10))
    expected = 2 * a_fac**2 * (0.2 + inner)
    assert ltr_stability_bound(si) == pytest.approx(expected, abs=1e-12)
    assert ltr_stability_bound(si) == pytest.approx(4.8928109652838785, abs=1e-10)


def test_ltr_bound_scales_with_m_squared_and_kappa():
    base = ltr_stability_bound(StabilityInputs(m=10, u=10, C=1.0, C_prime=0.0, kappa=1.0, M=1.0))
    doubled_m = ltr_stability_bound(
        StabilityInputs(m=10, u=10, C=1.0, C_prime=0.0, kappa=1.0, M=2.0)
    )
    assert doubled_m == pytest.approx(4 * base, rel=1e-12)


@given(
    st.integers(1, 500),
    st.integers(1, 500),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 5.0),
)
@settings(max_examples=60)
def test_ltr_bound_nonnegative_and_monotone_in_beta_loc(m, u, c_val, cp_val, b_loc):
    lo = ltr_stability_bound(
        StabilityInputs(m=m, u=u, C=c_val, C_prime=cp_val, kappa=1.0, M=1.0, beta_loc=b_loc)
    )
    hi = ltr_stability_bound(
        StabilityInputs(m=m, u=u, C=c_val, C_prime=cp_val, kappa=1.0, M=1.0, beta_loc=b_loc + 1)
    )
    assert 0.0 <= lo <= hi + 1e-12


def test_ltr_bound_shrinks_with_more_data():
    small = ltr_stability_bound(StabilityInputs(m=10, u=10, C=1.0, C_prime=1.0,
                                                kappa=1.0, M=1.0, beta_loc=0.1))
    large = ltr_stability_bound(StabilityInputs(m=1000, u=1000, C=1.0, C_prime=1.0,
                                                kappa=1.0, M=1.0, beta_loc=0.1))
    assert large < small


def test_stability_inputs_validation():
    with pytest.raises(InvalidStabilityInput):
        StabilityInputs(m=0, u=10)
    with pytest.raises(InvalidStabilityInput):
        StabilityInputs(m=10, u=10, C=-1.0)
    with pytest.raises(InvalidStabilityInput):
        ltr_stability_bound(StabilityInputs(m=10, u=10, kappa=0.0))


# ---------------------------------------------------------------------------
# unconstrained score perturbation


def flat_spectrum(lo, hi, lam2=None):
    return SpectrumSummary(
        lambda_min=lo, lambda_max=hi,
        lambda2=lam2 if lam2 is not None else lo,
        eigenvector_min=np.array([1.0]),
    )


def test_unconstrained_score_bound_reduces_to_cm_form():
    # Q has a zero eigenvalue, C = mu I unchanged: bound collapses to
    # ||delta y|| / (0/mu + 1) = sqrt(2) M
    m_label = 1.5
    got = unconstrained_score_bound(
        flat_spectrum(0.0, 2.0),
        flat_spectrum(1.0, 1.0),
        flat_spectrum(1.0, 1.0),
        math.sqrt(2.0) * m_label,
        10.0,
        0.0,
    )
    assert got == pytest.approx(cm_score_bound(m_label), abs=1e-12)


def test_unconstrained_score_bound_second_term():
    # pure trade-off change: delta_y = 0, ||C'^{-1} - C^{-1}|| = 0.5
    got = unconstrained_score_bound(
        flat_spectrum(1.0, 4.0),
        flat_spectrum(2.0, 2.0),
        flat_spectrum(2.0, 2.0),
        0.0,
        3.0,
        0.5,
    )
    # lambda_M(Q) ||...|| ||y'|| / ((lam_m/lam_M(C')+1)(lam_m/lam_M(C)+1))
    expected = 4.0 * 0.5 * 3.0 / ((1 / 2 + 1) * (1 / 2 + 1))
    assert got == pytest.approx(expected, abs=1e-12)


def test_cm_score_bound_frozen():
    assert cm_score_bound(1.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert cm_score_bound(2.5) == pytest.approx(2.5 * math.sqrt(2.0), abs=1e-12)


def test_llreg_score_bound_frozen():
    # M=1, m=2, C bounds (1, 2): sqrt(2) + 4 sqrt(4) (1/1 - 1/2) = sqrt(2) + 4
    assert llreg_score_bound(1.0, 2, 1.0, 2.0) == pytest.approx(math.sqrt(2.0) + 4.0, abs=1e-12)


def test_llreg_score_bound_equal_tradeoffs_collapse():
    assert llreg_score_bound(1.0, 50, 2.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_llreg_spectral_variant_formula():
    m_label, m, c_min, c_max = 1.0, 4, 1.0, 2.0
    lam_max = 4.0  # row-stochastic reconstruction penalty never exceeds 4
    expected = math.sqrt(2.0) * m_label + lam_max * math.sqrt(m) * m_label * (
        1.0 / c_min - 1.0 / c_max
    )
    assert llreg_score_bound_spectral(m_label, m, c_min, c_max) == pytest.approx(
        expected, abs=1e-12
    )


def test_score_bounds_reject_bad_inputs():
    with pytest.raises(InvalidStabilityInput):
        cm_score_bound(-1.0)
    with pytest.raises(InvalidStabilityInput):
        llreg_score_bound(1.0, 2, 0.0, 1.0)
    with pytest.raises(InvalidStabilityInput):
        llreg_score_bound(1.0, 2, 2.0, 1.0)  # min above max


# ---------------------------------------------------------------------------
# constrained coefficients


def test_belkin_score_stability_frozen():
    # M=1, m=100, C=1, lambda2=0.5: d = 49, value = 4 sqrt(2)/49 + 40 sqrt(2)/2401
    d = 100 * 0.5 / 1.0 - 1.0
    expected = 4 * math.sqrt(2.0) / d + 4 * math.sqrt(2.0 * 100) / (d * d)
    got = belkin_score_stability(1.0, 100, 1.0, 0.5)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.13900641429406516, abs=1e-10)


def test_belkin_score_stability_diverges_at_small_gap():
    with pytest.raises(BoundDiverges):
        belkin_score_stability(1.0, 10, 20.0, 0.1)  # m lambda2 / C = 0.05 <= 1


def test_belkin_cost_stability_formula():
    # (4 C M^2 / m) min(1/lambda2, rho)
    assert belkin_cost_stability(1.0, 1.0, 100, 0.5, 3) == pytest.approx(0.08, abs=1e-12)
    # diameter smaller than 1/lambda2: the hop bound wins
    assert belkin_cost_stability(1.0, 1.0, 100, 0.01, 5) == pytest.approx(
        4.0 / 100 * 5, abs=1e-12
    )


def test_belkin_cost_stability_validation():
    with pytest.raises(GraphDisconnected):
        belkin_cost_stability(1.0, 1.0, 10, 0.0, 3)
    with pytest.raises(InvalidStabilityInput):
        belkin_cost_stability(1.0, 1.0, 10, 0.5, 0)


# ---------------------------------------------------------------------------
# local-estimator coefficients


def test_beta_loc_gaussian_frozen():
    # M=1, m_r=10, r=sigma: 4 M e^{2} / 10
    assert beta_loc_gaussian(1.0, 10, 1.0, 1.0) == pytest.approx(
        0.4 * math.e**2, abs=1e-12
    )
    assert beta_loc_gaussian(1.0, 10, 1.0, 1.0) == pytest.approx(2.9556224395722603, abs=1e-10)


def test_beta_loc_gaussian_is_infinite_where_the_weight_ratio_overflows():
    # e^{2 r^2 / sigma^2} = e^{1800} is beyond the float range
    assert beta_loc_gaussian(1.0, 6, 1.5, 0.05) == math.inf


def test_beta_loc_invdist_frozen():
    # M=1, m_r=4, r=1: (2r+1) 2M / m_r = 6/4
    assert beta_loc_invdist(1.0, 4, 1.0) == pytest.approx(1.5, abs=1e-15)


def test_beta_loc_gaussian_is_generic_with_doubled_radius_ratio():
    # the gaussian form equals the generic one with the extreme weight ratio
    # taken over the doubled neighborhood, alpha_min = e^{-2 r^2 / sigma^2}
    m_label, m_r, r, sigma = 1.0, 7, 0.8, 0.5
    generic = beta_loc_bound(m_label, m_r, 1.0, math.exp(-2 * r * r / sigma**2))
    assert beta_loc_gaussian(m_label, m_r, r, sigma) == pytest.approx(generic, rel=1e-12)


def test_beta_loc_invdist_halves_the_generic_form():
    # inverse-distance weights admit a sharper telescoping: the closed form is
    # half the generic plug-in with alpha_min = 1/(1 + 2r)
    m_label, m_r, r = 1.0, 5, 1.3
    generic = beta_loc_bound(m_label, m_r, 1.0, 1.0 / (1.0 + 2 * r))
    assert beta_loc_invdist(m_label, m_r, r) == pytest.approx(generic / 2, rel=1e-12)


def test_beta_loc_empty_neighborhood():
    with pytest.raises(EmptyNeighborhood):
        beta_loc_gaussian(1.0, 0, 1.0, 1.0)
    with pytest.raises(EmptyNeighborhood):
        beta_loc_invdist(1.0, 0, 1.0)


def test_beta_loc_decreases_with_more_neighbors():
    values = [beta_loc_gaussian(1.0, k, 1.0, 1.0) for k in (1, 2, 5, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# empirical stability sweeps


def make_instance(n, m, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    sample = FullSample(points=pts, targets=rng.uniform(-1, 1, n), label_bound_M=1.0)
    part = sample_partition(sample, m, seed)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    w = np.exp(-d2)
    np.fill_diagonal(w, 0.0)
    w = np.minimum(w, w.T)
    return sample, part, GraphSpec(weights=w)


def test_empirical_stability_exhaustive_under_cm_bound():
    sample, part, g = make_instance(12, 6, 0)

    def solver(s, p):
        return solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))

    report = empirical_stability(solver, sample, part, B=2.0)
    assert report.mode == "exhaustive"
    assert report.swaps_evaluated == report.swaps_total == 36
    assert report.max_score_delta <= cm_score_bound(1.0) + 1e-9
    assert report.max_cost_delta >= 0.0
    assert report.worst_swap.removed in part.train_idx
    assert report.worst_swap.added in part.test_idx


def test_empirical_stability_llreg_under_bound():
    sample, part, g = make_instance(10, 5, 1)

    def solver(s, p):
        return solve_unconstrained(build_llreg(g.weights, 1.0, 2.0, s.targets[p.train_idx], p))

    report = empirical_stability(solver, sample, part, B=2.0)
    assert report.max_score_delta <= llreg_score_bound(1.0, part.m, 1.0, 2.0) + 1e-9


def test_empirical_stability_sampled_mode_kicks_in():
    sample, part, g = make_instance(60, 30, 2)

    def solver(s, p):
        return solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))

    report = empirical_stability(solver, sample, part, B=2.0, seed=3)
    assert report.mode == "sampled"
    assert report.swaps_evaluated == 400  # the sweep budget
    assert report.swaps_total == 900


@pytest.mark.parametrize("n, m", [(60, 30), (61, 17)])
def test_sampled_swaps_are_the_chosen_entries_of_the_full_enumeration(n, m):
    sample, part, _ = make_instance(n, m, 2)
    total = part.m * part.u
    keys = _kernels.partition_keys(5, total)
    chosen = np.sort(np.argpartition(keys, SWAP_BUDGET - 1)[:SWAP_BUDGET])
    all_removed, all_added = enumerate_swaps(part)
    (removed, added), mode = _default_swaps(part, 5)
    assert mode == "sampled"
    assert np.array_equal(removed, all_removed[chosen])
    assert np.array_equal(added, all_added[chosen])


def test_empirical_stability_custom_swaps():
    sample, part, g = make_instance(10, 5, 4)
    swaps = (part.train_idx[:1], part.test_idx[:1])

    def solver(s, p):
        return solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))

    report = empirical_stability(solver, sample, part, swaps=swaps, B=2.0)
    assert report.mode == "custom"
    assert report.swaps_evaluated == 1
    assert report.worst_swap == SwapPair(removed=part.train_idx[0], added=part.test_idx[0])
    with pytest.raises(InvalidStabilityInput, match="same length"):
        empirical_stability(solver, sample, part, swaps=(part.train_idx[:2], swaps[1]), B=2.0)
    with pytest.raises(InvalidStabilityInput, match="no swaps"):
        empirical_stability(solver, sample, part, swaps=([], []), B=2.0)


def test_empirical_stability_cost_delta_matches_direct_recomputation():
    sample, part, g = make_instance(8, 4, 5)

    def solver(s, p):
        return solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))

    swap = SwapPair(removed=int(part.train_idx[1]), added=int(part.test_idx[2]))
    report = empirical_stability(solver, sample, part, swaps=([swap.removed], [swap.added]),
                                 B=2.0)
    h_base = solver(sample, part).scores
    h_swap = solver(sample, apply_swap(part, swap)).scores
    assert report.max_score_delta == pytest.approx(
        float(np.max(np.abs(h_base - h_swap))), abs=1e-12
    )


def test_empirical_stability_matches_a_swap_by_swap_scan():
    sample, part, g = make_instance(30, 13, 8)  # 221 swaps: a full block of 128 and a partial one

    def solver(s, p):
        return solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))

    def scan(removed, added):
        base = solver(sample, part).scores
        max_score, max_cost, worst = -1.0, 0.0, None
        for i, j in zip(removed, added):
            h = solver(sample, apply_swap(part, SwapPair(removed=i, added=j))).scores
            cost = np.abs((h - sample.targets) ** 2 - (base - sample.targets) ** 2)
            if np.max(np.abs(h - base)) > max_score:
                max_score, worst = float(np.max(np.abs(h - base))), SwapPair(removed=i, added=j)
            max_cost = max(max_cost, float(np.max(cost)))
        return max_score, max_cost, worst

    removed, added = enumerate_swaps(part)
    want = scan(removed, added)
    k = int(np.flatnonzero((removed == want[2].removed) & (added == want[2].added))[0])
    # again with the worst swap last, in the partial block
    order = np.roll(np.arange(removed.size), -(k + 1))
    for r, a in ((removed, added), (removed[order], added[order])):
        report = empirical_stability(solver, sample, part, swaps=(r, a), B=2.0)
        assert (report.max_score_delta, report.max_cost_delta, report.worst_swap) == want


def test_empirical_stability_passes_over_a_swap_with_nan_scores():
    # as a swap-by-swap scan would: the NaN swap never wins, and the other
    # swaps of its block still count
    sample, part, g = make_instance(10, 5, 4)
    removed, added = enumerate_swaps(part)
    nan_part = apply_swap(part, SwapPair(removed=removed[3], added=added[3]))

    def solver(s, p):
        h = solve_unconstrained(build_cm(g, 1.0, s.targets[p.train_idx], p))
        return HypothesisScores(np.full(p.n, np.nan)) if np.array_equal(p.train_idx, nan_part.train_idx) else h

    report = empirical_stability(solver, sample, part, swaps=(removed, added), B=2.0)
    keep = np.arange(removed.size) != 3
    want = empirical_stability(solver, sample, part, swaps=(removed[keep], added[keep]), B=2.0)
    assert (report.max_score_delta, report.max_cost_delta, report.worst_swap) == (
        want.max_score_delta, want.max_cost_delta, want.worst_swap)
    assert want.max_score_delta > 0.0


# ---------------------------------------------------------------------------
# the batched swap engine raises what the per-swap solver raises


def _both_paths(solver, sample, part, batch, **kwargs):
    """What each of the two evaluation paths raises: closure per swap, then batched."""
    errors = []
    for path in (None, batch):
        with pytest.raises(Exception) as caught:
            empirical_stability(solver, sample, part, B=2.0, batch=path, **kwargs)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    return errors[0]


def _cm_system(n, m, seed):
    sample, part, g = make_instance(n, m, seed)
    problem = build_cm(g, 1.0, sample.targets[part.train_idx], part)
    system = QuadraticSystem(problem.Q)

    def solver(s, p):
        return system.solve(np.ones(p.n), labels_to_full(s.targets[p.train_idx], p))

    return sample, part, system, solver


def test_swap_engine_empty_neighbourhood_under_fallback_error():
    # each unlabeled point has one labeled neighbour within r = 0.5; the second
    # swap, 0 for 3, leaves points 0 and 1 with none
    points = np.array([0.0, 0.1, 5.0, 5.1, 10.0, 10.1])
    sample = FullSample(points=points, targets=np.linspace(-1.0, 1.0, 6), label_bound_M=1.0)
    part = Partition(train_idx=[0, 2, 4], test_idx=[1, 3, 5])
    system = KernelSystem(gaussian_kernel(points, 1.0))
    local = LocalEstimatorConfig(radius_r=0.5, sigma=1.0, fallback="error")

    def solver(s, p):
        return system.solve(p, s.targets[p.train_idx], pseudo_targets(s, p, local), 1.0, 1.0)

    batch = swaps.kernel(system, sample, part, 1.0, 1.0, local)
    kind, message = _both_paths(solver, sample, part, batch)
    assert kind is PseudoTargetUnavailable
    assert message.startswith("unlabeled point 0 has no labeled neighbor")


def test_swap_engine_invalid_custom_swap():
    sample, part, system, solver = _cm_system(10, 5, 4)
    custom = (np.array([part.train_idx[0], part.test_idx[1]]),
              np.array([part.test_idx[0], part.test_idx[0]]))
    batch = swaps.quadratic(system, sample, part, 1.0, 1.0)
    kind, message = _both_paths(solver, sample, part, batch, swaps=custom)
    assert kind is ValueError
    assert message == f"index {int(part.test_idx[1])} is not in the labeled set"


def test_swap_engine_applies_the_residual_test(monkeypatch):
    sample, part, system, home_solver = _cm_system(10, 5, 6)

    def solver(s, p):
        h = home_solver(s, p)
        monkeypatch.setattr(regressors, "_RESIDUAL_TOL", -1.0)  # every later solve fails it
        return h

    batch = swaps.quadratic(system, sample, part, 1.0, 1.0)
    for path in (None, batch):
        monkeypatch.setattr(regressors, "_RESIDUAL_TOL", 1e-10)
        with pytest.raises(SingularSystem, match="solution residual exceeds tolerance"):
            empirical_stability(solver, sample, part, B=2.0, batch=path)


def test_swap_engine_singular_swapped_system():
    # two components, {0, 1} and {2, 3}, weighted only on S: swapping 0 for 3
    # leaves {0, 1} unweighted, and the constraint direction cannot pin it
    q = laplacian(GraphSpec(weights=np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])))
    sample = FullSample(points=np.arange(4.0), targets=[0.5, -0.5, 0.25, 1.0],
                        label_bound_M=1.0)
    part = Partition(train_idx=[0, 2], test_idx=[1, 3])
    system = QuadraticSystem(q, constraint=np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0))
    c_home = np.array([1.0, 0.0, 1.0, 0.0])
    batch = swaps.quadratic(system, sample, part, 1.0, 0.0)
    assert np.isfinite(batch(np.array([0]), np.array([1]))).all()
    with pytest.raises(SingularSystem, match="swapped system is singular"):
        empirical_stability(
            lambda s, p: system.solve(c_home, labels_to_full(s.targets[p.train_idx], p)),
            sample, part, swaps=([0], [3]), batch=batch,
        )


def test_swap_engine_constraint_vanishing_on_the_swapped_labeled_set():
    sample, part, g = make_instance(8, 4, 7)
    removed = int(part.train_idx[0])
    u = np.zeros(8)
    u[removed] = 1.0  # the constraint lives on one labeled point
    system = QuadraticSystem(laplacian(g), u)

    def solver(s, p):
        c = labels_to_full(np.full(p.m, 1.0 / p.m), p)
        return system.solve(c, labels_to_full(s.targets[p.train_idx], p), center_labels=True)

    batch = swaps.quadratic(system, sample, part, 1.0 / part.m, 0.0, center_labels=True)
    kind, message = _both_paths(solver, sample, part, batch)
    assert kind.__name__ == "ZeroConstraintVector"
    assert message == "constraint vanishes on the labeled set"


# ---------------------------------------------------------------------------
# the worst-case instance


def predicted_a_oracle(m, c_val):
    """Independent recomputation from the resolvent diagonal."""
    n = 2 * m
    block = (m / (m - 1)) * (np.eye(m) - np.ones((m, m)) / m)
    q = np.zeros((n, n))
    q[:m, :m] = block
    q[m:, m:] = block
    resolvent = np.linalg.inv(q / c_val + np.eye(n))
    return float(resolvent[m, m])


@pytest.mark.parametrize("m", [2, 3, 5, 10])
@pytest.mark.parametrize("c_val", [0.5, 1.0, 10.0])
def test_lower_bound_prediction_matches_resolvent(m, c_val):
    _, _, predicted = cm_lower_bound_instance(m, c_val)
    assert predicted == pytest.approx(predicted_a_oracle(m, c_val), abs=1e-12)


@pytest.mark.parametrize("m", [2, 5, 10])
@pytest.mark.parametrize("c_val", [0.5, 1.0, 10.0])
def test_lower_bound_demo_measures_prediction(m, c_val):
    demo = cm_lower_bound_demo(m, c_val)
    assert demo["measured_delta"] == pytest.approx(demo["predicted_a"], abs=1e-9)
    assert demo["predicted_a"] >= demo["floor"] - 1e-12
    assert demo["floor"] == pytest.approx(c_val / (2 * (c_val + 1)), abs=1e-12)


def test_lower_bound_instance_shape_and_partition():
    problem, part, _ = cm_lower_bound_instance(4, 1.0)
    assert problem.n == 8
    assert list(part.train_idx) == [0, 1, 2, 3]
    assert np.allclose(problem.y, 0.0)  # all labeled targets zero
    # Q is block diagonal with two complete-graph blocks
    assert np.allclose(problem.Q[:4, 4:], 0.0)


def test_lower_bound_instance_validation():
    with pytest.raises(InvalidInstance):
        cm_lower_bound_instance(1, 1.0)
    with pytest.raises(InvalidInstance):
        cm_lower_bound_instance(3, 0.0)


def test_lower_bound_grows_with_tradeoff():
    values = [cm_lower_bound_instance(5, c)[2] for c in (0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # saturates below 1
    assert values[-1] < 1.0
