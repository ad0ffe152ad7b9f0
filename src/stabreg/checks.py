"""Self-checks: each closed form the library ships against an independent oracle.

Each check draws its inputs from its arguments (a seed, a count or a size) and
returns ``(passed, detail)``.  ``stabreg verify`` runs them all; acceptance
criteria 01-06 and 08 run the seven whose docstrings name them.  Library
functions are looked up here when a check runs, so a test can swap in a broken
one; ``alpha`` is read through ``stabreg.bounds`` for the same reason.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .bounds import concentration_harness
from .core import (
    FullSample,
    Partition,
    empirical_error,
    overall_error,
    sample_partition,
    test_error,
)
from .graph import GraphSpec, gaussian_affinity, is_connected, laplacian, pseudo_inverse, spectrum
from .regressors import (
    gaussian_kernel,
    graph_quadratic,
    solve_constrained,
    solve_ltr,
    solve_unconstrained,
)
from .stability import (
    belkin_score_stability,
    cm_lower_bound_demo,
    cm_score_bound,
    empirical_stability,
    llreg_score_bound,
)


def _random_partition(rng: np.random.Generator, n: int) -> Partition:
    m = int(rng.integers(1, n))
    idx = rng.permutation(n)
    return Partition(train_idx=np.sort(idx[:m]), test_idx=np.sort(idx[m:]))


def _random_laplacian_problem(rng: np.random.Generator):
    """A random connected graph's Laplacian (4 to 15 vertices), a partition and labels on S."""
    n = int(rng.integers(4, 16))
    while True:  # retried until connected
        w = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.2, 2.0, (n, n)), 0.0)
        w = np.triu(w, 1)
        g = GraphSpec(weights=w + w.T)
        if is_connected(g):
            break
    part = _random_partition(rng, n)
    return laplacian(g), part, rng.uniform(-1.0, 1.0, part.m)


def _descent_minimize(q, cmat, y, tol=1e-10, max_iter=500_000) -> np.ndarray | None:
    """Steepest descent, exact line search, on h^T Q h + (h-y)^T C (h-y); None if it stalls."""
    a_sys = 2.0 * (q + cmat)
    b = 2.0 * (cmat @ y)
    h = np.zeros_like(y)
    for _ in range(max_iter):
        g = a_sys @ h - b
        if np.max(np.abs(g)) <= tol:
            return h
        h = h - (float(g @ g) / float(g @ (a_sys @ g))) * g
    return None


def alpha_formula() -> tuple[bool, str]:
    """``bounds.alpha`` against the variance factor recomputed from its definition."""
    worst = 0.0
    for m in (1, 2, 3, 10, 100):
        for u in (1, 2, 7, 50):
            ref = (m * u / (m + u - 0.5)) / (1.0 - 1.0 / (2.0 * max(m, u)))
            worst = max(worst, abs(bounds.alpha(m, u) - ref))
    return worst <= 1e-12, f"max deviation {worst:.3e}"


def partition_uniformity(seed: int, draws: int) -> tuple[bool, str]:
    """The labeled point of a 1-of-4 partition is uniform: frequencies and chi-square."""
    sample = FullSample(points=np.arange(4.0)[:, None], targets=np.zeros(4), label_bound_M=1.0)
    counts = np.zeros(4)
    for t in range(draws):
        counts[sample_partition(sample, 1, seed * 1_000_003 + t).train_idx[0]] += 1
    freq_dev = float(np.max(np.abs(counts / draws - 0.25)))
    chi2 = float(np.sum((counts - draws / 4) ** 2 / (draws / 4)))
    # chi-square(3) at p=0.001; passing it also bounds each |freq - 1/4| by sqrt(4.07 / draws)
    return chi2 < 16.27, f"max |freq-1/4| {freq_dev:.4f}, chi2 {chi2:.2f} over {draws} draws"


def error_identity(seed: int, count: int) -> tuple[bool, str]:
    """Test error = (n/u) overall error - (m/u) empirical error, on random hypotheses."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(4, 40))
        sample = FullSample(points=rng.normal(size=(n, 2)), targets=rng.uniform(-1, 1, n),
                            label_bound_M=1.0)
        h = rng.uniform(-2, 2, n)
        part = sample_partition(sample, int(rng.integers(1, n)), int(rng.integers(1 << 30)))
        rhs = ((n / part.u) * overall_error(h, sample)
               - (part.m / part.u) * empirical_error(h, sample, part))
        worst = max(worst, abs(test_error(h, sample, part) - rhs))
    return worst <= 1e-12, f"{count} instances, max deviation {worst:.3e}"


def pseudo_inverse_conditions(seed: int) -> tuple[bool, str]:
    """The four Moore-Penrose conditions on a rank-deficient 8x8 PSD matrix."""
    b = np.random.default_rng(seed).normal(size=(8, 8))
    psd = b @ b.T
    psd[0] = psd[:, 0] = 0.0  # a zero row and column force rank deficiency
    pinv = pseudo_inverse(psd)
    mp = max(
        float(np.max(np.abs(psd @ pinv @ psd - psd))),
        float(np.max(np.abs(pinv @ psd @ pinv - pinv))),
        float(np.max(np.abs((psd @ pinv) - (psd @ pinv).T))),
        float(np.max(np.abs((pinv @ psd) - (pinv @ psd).T))),
    )
    return mp <= 1e-8, f"worst MP residual {mp:.3e}"


def unconstrained_oracle(seed: int, count: int) -> tuple[bool, str]:
    """Criterion 01: the closed-form unconstrained solve against steepest descent."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 21))
        b = rng.normal(size=(n, n))
        q = b.T @ b / n
        q = 0.5 * (q + q.T)
        c = rng.uniform(0.5, 3.0, n)
        y = rng.uniform(-1.0, 1.0, n)
        h = solve_unconstrained(q, c, y)
        h_ref = _descent_minimize(q, np.diag(c), y)
        worst = max(worst, math.inf if h_ref is None else float(np.max(np.abs(h - h_ref))))
    return worst <= 1e-8, f"{count} instances, max sup-norm gap {worst:.2e}"


def constrained_optimality(seed: int, count: int, C: float = 1.0) -> tuple[bool, str]:
    """Criterion 02: the constrained solve at C is feasible and beats 10,000 feasible points."""
    rng = np.random.default_rng(seed)
    worst_feas = 0.0
    worst_gap = -math.inf  # max over graphs of (our objective - best random)
    for _ in range(count):
        lap, part, y = _random_laplacian_problem(rng)
        h = solve_constrained(lap, part, y, C)
        worst_feas = max(worst_feas, abs(float(h.sum())) / max(float(np.linalg.norm(h)), 1e-300))
        cand = rng.normal(size=(10_000, part.n))
        cand -= cand.mean(axis=1, keepdims=True)  # project onto sum-zero
        pts = np.vstack([h, cand])  # row 0 is the solver's
        resid = pts[:, part.train_idx] - y
        obj = (np.einsum("ij,jk,ik->i", pts, lap, pts)
               + (C / part.m) * np.sum(resid * resid, axis=1))
        worst_gap = max(worst_gap, float(obj[0]) - float(obj[1:].min()))
    return (worst_feas <= 1e-10 and worst_gap <= 1e-12,
            f"{count} graphs, |h^T u|/||h|| max {worst_feas:.2e}, "
            f"objective gap vs 1e4 feasible points {worst_gap:.2e}")


def pinv_kernel_equivalence(seed: int, count: int) -> tuple[bool, str]:
    """Criterion 03: the constrained Laplacian solve equals the kernel solve with K = L^+."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        lap, part, y = _random_laplacian_problem(rng)
        C = float(rng.uniform(0.5, 4.0))
        h_con = solve_constrained(lap, part, y, C)
        h_ltr = solve_ltr(pseudo_inverse(lap), part, y, np.zeros(0), C, 0.0)
        worst = max(worst, float(np.max(np.abs(h_con - h_ltr))))
    return worst <= 1e-6, f"{count} graphs, max sup-norm gap {worst:.2e}"


def swap_stability(seed: int) -> tuple[bool, str]:
    """Criterion 04: all swaps of an n=28 partition keep cm, llreg, constrained in bound."""
    rng = np.random.default_rng(seed)
    n, m = 28, 14
    for _ in range(100):  # redrawn until m lambda2 / C > 1 (C = 1), the constrained bound's regime
        points = rng.normal(size=(n, 2))
        g = gaussian_affinity(points, sigma=1.0)
        lap = laplacian(g)
        lam2 = spectrum(lap).lambda2
        if m * lam2 > 1.0:
            break
    else:
        return False, f"100 draws of {n} points, none with m lambda2 / C > 1"
    targets = np.tanh(points[:, 0]) * 0.9
    M = float(np.max(np.abs(targets)))
    sample = FullSample(points=points, targets=targets, label_bound_M=M)
    part = sample_partition(sample, m, seed=7)
    q_cm, q_llreg = graph_quadratic("cm", g)[0], graph_quadratic("llreg", g)[0]

    def labels(s, p):
        return p.on_sides(s.targets[p.train_idx])

    cases = (
        ("cm", cm_score_bound(M),
         lambda s, p: solve_unconstrained(q_cm, np.ones(n), labels(s, p))),
        ("llreg", llreg_score_bound(M, m, 1.0, 2.0),
         # C_l = 2 on S, C_u = 1 on T
         lambda s, p: solve_unconstrained(q_llreg, p.on_sides(2.0, 1.0), labels(s, p))),
        ("constrained", belkin_score_stability(M, m, 1.0, lam2),
         lambda s, p: solve_constrained(lap, p, s.targets[p.train_idx], 1.0)),
    )
    ok = True
    details = []
    for name, limit, solver in cases:
        rep = empirical_stability(solver, sample, part)
        ok = ok and rep.mode == "exhaustive" and rep.max_score_delta <= limit + 1e-9
        details.append(f"{name} {rep.max_score_delta:.3e}<={limit:.3e}")
    return ok, ", ".join(details)


def lower_bound_holds(demo: dict) -> bool:
    """A ``cm_lower_bound_demo`` result moves by its prediction, which reaches the floor."""
    return (abs(demo["measured_delta"] - demo["predicted_a"]) <= 1e-9
            and demo["predicted_a"] >= demo["floor"] - 1e-9)


def lower_bound_instance() -> tuple[bool, str]:
    """Criterion 05: the worst-case instance at nine (m, C) pairs."""
    demos = [cm_lower_bound_demo(m, C) for m in (2, 5, 10) for C in (0.5, 1.0, 10.0)]
    gap = max(abs(d["measured_delta"] - d["predicted_a"]) for d in demos)
    margin = min(d["measured_delta"] - d["floor"] for d in demos)
    return (all(lower_bound_holds(d) for d in demos) and margin >= -1e-12,
            f"{len(demos)} (m, C) pairs, |measured - predicted| max {gap:.2e}, "
            f"margin above C/(2(C+1)) min {margin:.2e}")


def concentration_tails(seed: int, trials: int, half: int) -> tuple[bool, str]:
    """Criterion 06: tails of the mean of ``half`` of ``half`` 0s and 1s, to 3 s.e. of the bound."""
    population = np.repeat([0.0, 1.0], half)
    ok = True
    details = []
    for i, eps in enumerate((0.02, 0.05, 0.1)):
        result = concentration_harness(population, half, eps, trials, seed=seed + i)
        three_sigma = 3.0 * math.sqrt(result.bound * (1.0 - result.bound) / trials)
        ok = ok and result.empirical_tail <= result.bound + three_sigma
        details.append(f"eps={eps}: tail {result.empirical_tail:.4f} "
                       f"<= bound {result.bound:.2e} + {three_sigma:.1e}")
    return ok, "; ".join(details)


def ltr_output_bound(seed: int, count: int) -> tuple[bool, str]:
    """Criterion 08: kernel least-squares scores stay within ``kappa M sqrt(C + C')``."""
    rng = np.random.default_rng(seed)
    worst_excess = -math.inf
    for i in range(count + count // 10 + 1):  # the last count // 10 + 1 scale K by kappa^2 > 1
        n = int(rng.integers(2, 41))
        points = rng.normal(size=(n, int(rng.integers(1, 4))))
        kernel = gaussian_kernel(points, sigma=float(rng.uniform(0.3, 3.0)))
        kappa = 1.0 if i < count else math.sqrt(float(rng.uniform(1.0, 10.0)))
        part = _random_partition(rng, n)
        M = float(rng.uniform(0.1, 5.0))
        C = float(rng.uniform(0.0, 10.0))
        C_prime = float(rng.uniform(0.0, 10.0)) if rng.random() < 0.7 else 0.0
        y = rng.uniform(-M, M, part.m)
        y_tilde = rng.uniform(-M, M, part.u) if C_prime > 0 else np.zeros(0)
        h = solve_ltr(kappa * kappa * kernel, part, y, y_tilde, C, C_prime)
        bound = kappa * M * math.sqrt(C + C_prime)
        worst_excess = max(worst_excess, float(np.max(np.abs(h))) - bound)
    return (worst_excess <= 1e-8, f"{count} random problems and {count // 10 + 1} with "
            f"kappa > 1, worst excess {worst_excess:.2e}")
