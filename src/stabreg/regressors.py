"""Transductive regression solvers.

Two families of prepared systems.  Each system's matrix comes from the
kernel or graph alone, and a partition changes only the labels and diagonal
weights, so each system is checked once and then solved for any partition:

* ``QuadraticSystem(Q, constraint=None)``: graph regularizers minimizing
  ``h^T Q h + (h - y)^T diag(c) (h - y)``, optionally subject to
  ``u^T h = 0``, which borders the system into the KKT matrix
  ``[[Q + diag c, u], [u^T, 0]]``.  Unconstrained, with c > 0 and closed
  form ``h = (C^{-1} Q + I)^{-1} y``: consistency-method (CM) smoothing with
  the normalized Laplacian, local-linear regularization (LL-Reg) with
  ``Q = (I - A)^T (I - A)`` for a row-stochastic A, and Gaussian-field style
  smoothing (GMF) with the combinatorial Laplacian.  Constrained: their
  stabilized variants, with u Q's bottom eigenvector, and the
  norm-constrained Laplacian regularizer ``h^T L h + (C/m) ||(h - y)_S||^2``,
  with weight 0 on T; a constant u must pin L's null space.
* ``KernelSystem(K)``: kernel least squares over a symmetric PSD Gram
  matrix: labeled squared loss weighted by C/m plus unlabeled squared loss
  against local pseudo-targets weighted by C'/u (LTR), for one pseudo-target
  vector or a block of them.  With C' = 0 this is kernel ridge regression
  evaluated on the full sample.

A system shares a matrix the caller already holds read-only (a problem
dataclass does) and copies any other.  The public ``solve_*`` functions and
``stabilize`` prepare a system from their problem and solve it once.

Pseudo-targets for unlabeled points are radius-limited weighted averages of
labeled neighbors; weights are either a Gaussian kernel value or an inverse
feature-space distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FullSample, HypothesisScores, Partition, _readonly
from .errors import (
    ConstraintSpansNullSpace,
    NotInRange,
    NotPSDKernel,
    PseudoTargetUnavailable,
    SingularSystem,
    ZeroConstraintVector,
)
from .graph import (
    GraphSpec,
    SpectrumSummary,
    _check_symmetric,
    laplacian,
    normalized_laplacian,
    pseudo_inverse,
    row_normalize,
    spectrum,
    sq_distances,
)

__all__ = [
    "UnconstrainedProblem",
    "ConstrainedProblem",
    "LtrProblem",
    "LocalEstimatorConfig",
    "KernelSystem",
    "QuadraticSystem",
    "build_cm",
    "build_llreg",
    "build_gmf",
    "graph_quadratic",
    "labels_to_full",
    "solve_unconstrained",
    "stabilize",
    "solve_constrained",
    "laplacian_kernel_check",
    "gaussian_kernel",
    "pseudo_targets",
    "solve_ltr",
    "ltr_dual_coefficients",
    "ltr_objective",
    "solve_krr_induction",
]

_RESIDUAL_TOL = 1e-10
_KKT_TOL = 1e-8


@dataclass(frozen=True)
class UnconstrainedProblem:
    """min_h  h^T Q h + (h - y)^T Cmat (h - y)  with Q PSD, Cmat PD and diagonal."""

    Q: np.ndarray
    Cmat: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        q = _check_symmetric(self.Q)
        c = _check_symmetric(self.Cmat)
        y = np.asarray(self.y, dtype=np.float64).ravel()
        n = y.size
        if q.shape != (n, n) or c.shape != (n, n):
            raise ValueError("Q, Cmat and y disagree on dimension")
        if np.count_nonzero(c) != np.count_nonzero(np.diagonal(c)):  # NaN counts as nonzero
            raise ValueError("Cmat must be diagonal")
        d = np.diagonal(c)
        if not np.all(np.isfinite(d) & (d > 0)):
            raise ValueError("Cmat must be positive definite")
        object.__setattr__(self, "Q", _readonly(q))
        object.__setattr__(self, "Cmat", _readonly(c))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class ConstrainedProblem:
    """min_h  h^T L h + (C/m) ||(h - y)_S||^2  subject to  u^T h = 0.

    ``y_S`` may be given full-length (zeros off S, enforced) or length m
    aligned with the sorted labeled indices.  When ``center_labels`` is set,
    the component of the labels along the constraint direction is removed
    before solving and added back onto the returned scores.
    """

    L: np.ndarray
    C_tradeoff: float
    part: Partition
    y_S: np.ndarray
    u_vec: np.ndarray | None = None
    center_labels: bool = False

    def __post_init__(self):
        lap = _check_symmetric(self.L)
        n = self.part.n
        if lap.shape != (n, n):
            raise ValueError("L must be (m+u) x (m+u)")
        if not float(self.C_tradeoff) > 0:
            raise ValueError("C_tradeoff must be positive")
        y = np.asarray(self.y_S, dtype=np.float64).ravel()
        if y.size == self.part.m:
            full = np.zeros(n)
            full[self.part.train_idx] = y
            y = full
        elif y.size == n:
            if np.any(y[self.part.test_idx] != 0):
                raise ValueError("y_S must be zero off the labeled set")
        else:
            raise ValueError("y_S must have length m or m+u")
        u = self.u_vec
        u = np.ones(n) if u is None else np.asarray(u, dtype=np.float64).ravel()
        if u.size != n:
            raise ValueError("u_vec must have length m+u")
        if float(u @ u) <= 1e-24:
            raise ZeroConstraintVector("constraint vector has (near-)zero norm")
        object.__setattr__(self, "L", _readonly(lap))
        object.__setattr__(self, "C_tradeoff", float(self.C_tradeoff))
        object.__setattr__(self, "y_S", _readonly(y))
        object.__setattr__(self, "u_vec", _readonly(u))
        object.__setattr__(self, "center_labels", bool(self.center_labels))

    @property
    def n(self) -> int:
        return self.part.n


@dataclass(frozen=True)
class LtrProblem:
    """Kernel least squares with labeled and pseudo-labeled squared losses.

    Attributes:
        K: (n, n) Gram matrix over the full sample, diag(K) <= kappa^2.
        part: the S/T split; ``y`` has length m (labels, sorted-S order) and
            ``y_tilde`` length u (pseudo-targets, sorted-T order; may be
            empty when C_prime = 0).  A (u, k) ``y_tilde`` holds k
            pseudo-target vectors, one problem per column; only
            ``ltr_dual_coefficients`` accepts such a block.
        C: labeled trade-off (weight C/m per labeled point).
        C_prime: unlabeled trade-off (weight C'/u per unlabeled point).
        kappa: bound with K(x, x) <= kappa^2.
    """

    K: np.ndarray
    part: Partition
    y: np.ndarray
    y_tilde: np.ndarray
    C: float
    C_prime: float
    kappa: float

    def __post_init__(self):
        k = _check_symmetric(self.K)
        n = self.part.n
        if k.shape != (n, n):
            raise ValueError("K must be (m+u) x (m+u)")
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if y.size != self.part.m:
            raise ValueError("y must have length m")
        yt = np.asarray(self.y_tilde, dtype=np.float64)
        if yt.ndim != 2:
            yt = yt.ravel()
        if yt.shape[0] not in (0, self.part.u):
            raise ValueError("y_tilde must have length u (or 0 when C_prime = 0)")
        if float(self.C) < 0 or float(self.C_prime) < 0:
            raise ValueError("C and C_prime must be non-negative")
        if float(self.C_prime) > 0 and yt.size == 0:
            raise ValueError("C_prime > 0 requires pseudo-targets")
        if not float(self.kappa) > 0:
            raise ValueError("kappa must be positive")
        if np.max(np.diagonal(k), initial=0.0) > float(self.kappa) ** 2 + 1e-12:
            raise ValueError("diag(K) exceeds kappa^2")
        object.__setattr__(self, "K", _readonly(k))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "y_tilde", _readonly(yt))
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "C_prime", float(self.C_prime))
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def n(self) -> int:
        return self.part.n


@dataclass(frozen=True)
class LocalEstimatorConfig:
    """Radius-limited weighted-average pseudo-target estimator.

    ``weighting`` is "gaussian" (weight exp(-d^2 / (2 sigma^2))) or
    "inverse-distance" (weight 1 / (1 + d)); distances are Euclidean in the
    normalized feature space.  ``fallback`` decides what an empty
    neighborhood yields: "error" raises, "zero" emits pseudo-target 0.
    """

    radius_r: float
    weighting: str = "gaussian"
    sigma: float = 1.0
    fallback: str = "error"

    def __post_init__(self):
        if float(self.radius_r) < 0:
            raise ValueError("radius_r must be non-negative")
        if self.weighting not in ("gaussian", "inverse-distance"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.weighting == "gaussian" and not float(self.sigma) > 0:
            raise ValueError("sigma must be positive for gaussian weighting")
        if self.fallback not in ("error", "zero"):
            raise ValueError(f"unknown fallback {self.fallback!r}")
        object.__setattr__(self, "radius_r", float(self.radius_r))
        object.__setattr__(self, "sigma", float(self.sigma))


def labels_to_full(labels_on_S, part: Partition) -> np.ndarray:
    """Full-length labels: ``labels_on_S`` (sorted-S order) on S, zeros on T."""
    y = np.asarray(labels_on_S, dtype=np.float64).ravel()
    if y.size != part.m:
        raise ValueError("labels_on_S must have length m (sorted-S order)")
    full = np.zeros(part.n)
    full[part.train_idx] = y
    return full


def build_cm(g: GraphSpec, mu: float, labels_on_S, part: Partition) -> UnconstrainedProblem:
    """Consistency-method smoothing: normalized Laplacian, Cmat = mu * I."""
    if not float(mu) > 0:
        raise ValueError("mu must be positive")
    q = normalized_laplacian(g)
    y = labels_to_full(labels_on_S, part)
    return UnconstrainedProblem(Q=q, Cmat=float(mu) * np.eye(g.n), y=y)


def _split_diag(part: Partition, C_l: float, C_u: float) -> np.ndarray:
    if not (float(C_l) > 0 and float(C_u) > 0):
        raise ValueError("C_l and C_u must be positive")
    d = np.empty(part.n)
    d[part.train_idx] = float(C_l)
    d[part.test_idx] = float(C_u)
    return np.diag(d)


def _llreg_quadratic(A_raw: np.ndarray) -> np.ndarray:
    """Q = (I - A)^T (I - A) for the row-normalized A."""
    a = row_normalize(A_raw)
    m_mat = np.eye(a.shape[0]) - a
    q = m_mat.T @ m_mat
    return 0.5 * (q + q.T)


def build_llreg(
    A_raw: np.ndarray, C_l: float, C_u: float, labels_on_S, part: Partition
) -> UnconstrainedProblem:
    """Local-linear regularization: Q = (I - A)^T (I - A), A row-normalized."""
    y = labels_to_full(labels_on_S, part)
    return UnconstrainedProblem(Q=_llreg_quadratic(A_raw), Cmat=_split_diag(part, C_l, C_u), y=y)


def build_gmf(
    g: GraphSpec, C_l: float, C_u: float, labels_on_S, part: Partition
) -> UnconstrainedProblem:
    """Gaussian-field style smoothing with the combinatorial Laplacian."""
    y = labels_to_full(labels_on_S, part)
    return UnconstrainedProblem(Q=laplacian(g), Cmat=_split_diag(part, C_l, C_u), y=y)


def graph_quadratic(family: str, g: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """The unconstrained family's Q on g, and a unit vector v with Q v = 0.

    Each family's Q annihilates a known vector (Chung, Spectral Graph
    Theory, 1997), so Q's bottom eigenvector needs no eigendecomposition:

    * "cm", the normalized Laplacian I - D^{-1/2} W D^{-1/2}:
      v = D^{1/2} 1 / ||D^{1/2} 1||, since D^{-1/2} W 1 = D^{1/2} 1;
    * "llreg", (I - A)^T (I - A) for the row-normalized A: v = 1 / sqrt(n),
      since (I - A) 1 = 0;
    * "gmf", the combinatorial Laplacian D - W (``g.L``, kept with the
      graph): v = 1 / sqrt(n), since W 1 = D 1.

    On a connected graph v spans Q's null space, so it is the bottom
    eigenvector up to sign; on a disconnected one it is one of several.
    """
    if family == "cm":
        root = np.sqrt(g.weights.sum(axis=1))
        return normalized_laplacian(g), root / np.linalg.norm(root)
    flat = np.full(g.n, 1.0 / np.sqrt(g.n))
    if family == "llreg":
        return _llreg_quadratic(g.weights), flat
    if family == "gmf":
        return g.L, flat
    raise ValueError(f"unknown unconstrained family {family!r}")


def _solve(a_sys: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One LU solve; a (numerically) singular system raises SingularSystem."""
    try:
        return np.linalg.solve(a_sys, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None


@dataclass(frozen=True)
class QuadraticSystem:
    """A symmetric matrix Q and an optional constraint direction u, checked once.

    ``constraint`` is Q's bottom eigenvector for the stabilized variants and
    the direction u of the constrained Laplacian, else None.

    Raises:
        ZeroConstraintVector: u has (near-)zero norm.
    """

    Q: np.ndarray
    constraint: np.ndarray | None = None

    def __post_init__(self):
        q = _check_symmetric(self.Q)
        object.__setattr__(self, "Q", _readonly(q))
        if self.constraint is not None:
            u = np.asarray(self.constraint, dtype=np.float64).ravel()
            if u.size != q.shape[0]:
                raise ValueError("the constraint must have one entry per row of Q")
            if float(u @ u) <= 1e-24:
                raise ZeroConstraintVector("constraint vector has (near-)zero norm")
            object.__setattr__(self, "constraint", _readonly(u))

    def check_null_space(self, eigenvalues: SpectrumSummary | None = None) -> None:
        """Raise ConstraintSpansNullSpace when a constant constraint cannot pin Q's null space.

        For a Laplacian Q, a constant u with zero weights on T fixes the
        solution only on a connected graph, where Q's null space is
        one-dimensional (lambda2 > 0).  ``eigenvalues`` are Q's, computed
        here when not given.  Any other constraint passes.
        """
        u = self.constraint
        if u is not None and np.allclose(u, np.full(u.size, u[0]), rtol=1e-12, atol=0.0):
            eig = eigenvalues or spectrum(self.Q, eigenvector=False)
            if eig.lambda2 <= 1e-9 * max(abs(eig.lambda_max), 1.0):
                raise ConstraintSpansNullSpace(
                    "all-ones constraint cannot pin the null space of a disconnected Laplacian"
                )

    def matrix(self, c: np.ndarray) -> np.ndarray:
        """``Q + diag(c)``, bordered by the constraint when it has one: what ``solve`` factors."""
        n = self.Q.shape[0]
        a_sys = np.zeros((n, n) if self.constraint is None else (n + 1, n + 1))
        a_sys[:n, :n] = self.Q
        if self.constraint is not None:
            a_sys[:n, n] = a_sys[n, :n] = self.constraint
        a_sys[np.arange(n), np.arange(n)] += c
        return a_sys

    def residual_test(self, c, y, h, qh, multiplier) -> tuple[np.ndarray, str]:
        """Where ``solve``'s residual test fails, and the message it raises.

        ``h`` is one solution or one per row, for weights ``c`` and labels
        ``y`` (shaped alike), ``qh`` is ``Q h`` and ``multiplier`` the KKT
        multiplier (unused without a constraint).  Without a constraint the
        residual ``Q h / c + h - y`` must stay within 1e-10 of
        ``max(1, ||y||)``; with constraint u, both the stationarity residual
        ``Q h + c (h - y) + multiplier u`` and ``u . h`` within 1e-8 of
        ``max(1, ||c y||)``.  NaN fails.
        """
        u = self.constraint
        if u is None:
            resid = np.linalg.norm(qh / c + h - y, axis=-1)
            ok = resid <= _RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(y, axis=-1))
            return ~ok, "solution residual exceeds tolerance"
        rhs = c * y
        resid = np.linalg.norm(qh + c * h + multiplier * u - rhs, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(rhs, axis=-1))
        ok = (resid <= _KKT_TOL * scale) & (np.abs(h @ u) <= _KKT_TOL * scale)
        return ~ok, "KKT residual exceeds tolerance"

    def solve(self, c: np.ndarray, y: np.ndarray, center_labels: bool = False
              ) -> HypothesisScores:
        """Minimize ``h^T Q h + (h - y)^T diag(c) (h - y)`` for weights c.

        Without a constraint, c > 0 and ``(Q + diag(c)) h = c y`` is solved.
        With constraint u, c >= 0 and h is also held to ``u^T h = 0``: the
        KKT system bordered by u gives ``Q h + diag(c) (h - y) + beta u = 0``
        for a multiplier beta.  ``center_labels`` removes the labels'
        component along u on the labeled points (c > 0) before solving and
        adds it back onto the scores.  A failed ``residual_test`` raises
        SingularSystem.
        """
        n = self.Q.shape[0]
        u = self.constraint
        offset = 0.0
        if center_labels:
            if u is None:
                raise ValueError("center_labels needs a constraint")
            u_s = u * (c > 0)
            denom = float(u_s @ u_s)
            if denom <= 1e-24:
                raise ZeroConstraintVector("constraint vanishes on the labeled set")
            offset = float(u_s @ y) / denom
            y = y - offset * u_s
        rhs = c * y if u is None else np.append(c * y, 0.0)
        sol = _solve(self.matrix(c), rhs)
        h = sol[:n]
        failed, message = self.residual_test(c, y, h, self.Q @ h, sol[n:])
        if failed:
            raise SingularSystem(message)
        if center_labels:
            h = h + offset * u
        return HypothesisScores(scores=h)


def solve_unconstrained(p: UnconstrainedProblem) -> HypothesisScores:
    """Closed-form minimizer h = (Cmat^{-1} Q + I)^{-1} y.

    Solved as the equivalent symmetric system (Q + Cmat) h = Cmat y.
    """
    return QuadraticSystem(p.Q).solve(np.diagonal(p.Cmat), p.y)


def stabilize(p: UnconstrainedProblem) -> HypothesisScores:
    """Solve the problem restricted to the orthogonal complement of Q's bottom eigenvector.

    The feasible subspace's smallest Q-eigenvalue is the second-smallest
    eigenvalue of Q, which tightens the score-perturbation denominator.
    """
    bottom = spectrum(p.Q).eigenvector_min
    return QuadraticSystem(p.Q, bottom).solve(np.diagonal(p.Cmat), p.y)


def solve_constrained(p: ConstrainedProblem) -> HypothesisScores:
    """KKT solve of the constrained Laplacian problem: weight C/m on S, 0 on T.

    Raises ConstraintSpansNullSpace for a constant u on a disconnected
    graph, else as ``QuadraticSystem.solve``.
    """
    system = QuadraticSystem(p.L, p.u_vec)
    system.check_null_space()
    c = np.zeros(p.n)
    c[p.part.train_idx] = p.C_tradeoff / p.part.m
    return system.solve(c, p.y_S, p.center_labels)


def laplacian_kernel_check(L: np.ndarray, h) -> bool:
    """Check that L's pseudo-inverse behaves as a reproducing kernel for h.

    Requires h in range(L) (projection residual <= 1e-8 relative); verifies
    ``L^+ L h = h`` and ``h^T L h = h^T L L^+ L h`` to 1e-8.

    Raises:
        NotInRange: h has a component outside range(L).
    """
    lap = _check_symmetric(L)
    hv = np.asarray(getattr(h, "scores", h), dtype=np.float64).ravel()
    if hv.size != lap.shape[0]:
        raise ValueError("h and L disagree on dimension")
    k = pseudo_inverse(lap)
    proj = k @ (lap @ hv)
    scale = max(1.0, float(np.linalg.norm(hv)))
    resid = float(np.linalg.norm(proj - hv))
    if resid > 1e-8 * scale:
        raise NotInRange("h has a component outside range(L)")
    quad = float(hv @ lap @ hv)
    quad_k = float(hv @ lap @ k @ lap @ hv)
    ok_quad = abs(quad - quad_k) <= 1e-8 * max(1.0, abs(quad))
    return resid <= 1e-8 * scale and ok_quad


def gaussian_kernel(points: np.ndarray, sigma: float) -> np.ndarray:
    """Gram matrix K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)), unit diagonal."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    k = np.exp(-sq_distances(points) / (2.0 * sigma * sigma))
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 1.0)
    return k


def _neighbour_weights(xt: np.ndarray, xs: np.ndarray, cfg: LocalEstimatorConfig
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Row t, column s: whether ``xs[s]`` is ``xt[t]``'s neighbour, and its weight.

    A neighbour lies within Euclidean distance ``radius_r``; its weight is
    Gaussian or inverse-distance as ``cfg`` says, and any other point's is 0.
    """
    d2 = sq_distances(xt, xs)
    member = d2 <= cfg.radius_r * cfg.radius_r
    if cfg.weighting == "gaussian":
        weights = np.exp(-d2 / (2.0 * cfg.sigma * cfg.sigma))
    else:
        weights = 1.0 / (1.0 + np.sqrt(d2))
    return member, np.where(member, weights, 0.0)


def pseudo_targets(
    sample: FullSample, part: Partition, cfg: LocalEstimatorConfig
) -> np.ndarray:
    """Weighted-average pseudo-targets for every unlabeled point.

    For unlabeled x', the neighborhood is the labeled points within Euclidean
    distance ``radius_r``; the pseudo-target is the weight-normalized average
    of their labels, so it always stays within the label bound.

    Returns:
        Length-u array aligned with the sorted unlabeled indices.

    Raises:
        PseudoTargetUnavailable: an empty neighborhood with fallback="error".
    """
    ys = sample.targets[part.train_idx]
    member, weights = _neighbour_weights(sample.points[part.test_idx],
                                         sample.points[part.train_idx], cfg)
    totals = weights.sum(axis=1)
    counts = member.sum(axis=1)
    out = np.zeros(part.u)
    for row in range(part.u):
        if counts[row] == 0:
            if cfg.fallback == "error":
                raise PseudoTargetUnavailable(
                    f"unlabeled point {int(part.test_idx[row])} has no labeled "
                    f"neighbor within radius {cfg.radius_r}"
                )
            out[row] = 0.0
        elif totals[row] == 0.0:
            # all weights underflowed; fall back to the unweighted average
            out[row] = float(ys[member[row]].mean())
        else:
            out[row] = float(weights[row] @ ys) / totals[row]
    return out


@dataclass(frozen=True)
class KernelSystem:
    """A Gram matrix K, checked once: symmetric and PSD.

    NotPSDKernel when K + 1e-10 max(1, max diag K) I has no Cholesky factor.
    """

    K: np.ndarray

    def __post_init__(self):
        k = _check_symmetric(self.K)
        shift = 1e-10 * max(1.0, float(np.max(np.diagonal(k), initial=0.0)))
        shifted = k.copy()  # the shift goes onto the diagonal in place: one n x n temporary
        shifted.flat[:: k.shape[0] + 1] += shift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise NotPSDKernel("Gram matrix is not positive semidefinite") from None
        object.__setattr__(self, "K", _readonly(k))

    def dual(self, part: Partition, y: np.ndarray, y_tilde: np.ndarray,
             C: float, C_prime: float) -> tuple[np.ndarray, np.ndarray]:
        """Expansion ``(alpha, kept)`` of the LTR minimizer, ``kept`` indexing 0..n-1.

        The minimizer expands over the points with a positive loss weight;
        with Lambda the diagonal of those weights, ``(K_kk + Lambda^{-1})
        alpha = [y_S; y_tilde]`` on the kept indices.  A (u, k) ``y_tilde``
        block shares one factorization and gives a (|kept|, k) ``alpha``;
        ``y_tilde`` may be empty when C' = 0.
        """
        if C < 0 or C_prime < 0:
            raise ValueError("C and C_prime must be non-negative")
        cols = y_tilde.shape[1:]  # () for one problem, (k,) for a block
        kept_parts = []
        inv_weights = []
        targets = []
        if C > 0:
            kept_parts.append(part.train_idx)
            inv_weights.append(np.full(part.m, part.m / C))
            targets.append(np.tile(y[:, None], cols) if cols else y)
        if C_prime > 0:
            kept_parts.append(part.test_idx)
            inv_weights.append(np.full(part.u, part.u / C_prime))
            targets.append(y_tilde)
        if not kept_parts:
            return np.zeros((0, *cols)), np.zeros(0, dtype=np.int64)
        kept = np.concatenate(kept_parts)
        order = np.argsort(kept)
        kept = kept[order]
        inv_w = np.concatenate(inv_weights)[order]
        y_all = np.concatenate(targets)[order]
        sub = self.K[np.ix_(kept, kept)] + np.diag(inv_w)
        return _solve(sub, y_all), kept

    def scores(self, alpha: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """``f = sum_kept alpha_i K(., x_i)`` on every point (zero when nothing is kept)."""
        return self.K[:, kept] @ alpha

    def solve(self, part: Partition, y: np.ndarray, y_tilde: np.ndarray,
              C: float, C_prime: float) -> HypothesisScores:
        """Scores of the LTR minimizer for one pseudo-target vector."""
        return HypothesisScores(scores=self.scores(*self.dual(part, y, y_tilde, C, C_prime)))


def ltr_dual_coefficients(p: LtrProblem) -> tuple[np.ndarray, np.ndarray]:
    """Expansion ``(alpha, kept)`` of the LTR minimizer; see ``KernelSystem.dual``."""
    return KernelSystem(p.K).dual(p.part, p.y, p.y_tilde, p.C, p.C_prime)


def solve_ltr(p: LtrProblem) -> HypothesisScores:
    """Minimize ``||f||_K^2 + (C/m) sum_S (f - y)^2 + (C'/u) sum_T (f - y_tilde)^2``."""
    if p.y_tilde.ndim == 2:
        raise ValueError("a y_tilde block is solved by ltr_dual_coefficients")
    return KernelSystem(p.K).solve(p.part, p.y, p.y_tilde, p.C, p.C_prime)


def ltr_objective(p: LtrProblem, alpha: np.ndarray, kept: np.ndarray) -> float:
    """Objective value of the expansion ``f = sum_kept alpha_i K(., x_i)``."""
    if p.y_tilde.ndim == 2:
        raise ValueError("ltr_objective takes one pseudo-target vector, not a block")
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    kept = np.asarray(kept, dtype=np.int64).ravel()
    scores = p.K[:, kept] @ alpha  # zeros when nothing is kept
    total = float(alpha @ p.K[np.ix_(kept, kept)] @ alpha)
    if p.C > 0:
        d = scores[p.part.train_idx] - p.y
        total += (p.C / p.part.m) * float(d @ d)
    if p.C_prime > 0:
        d = scores[p.part.test_idx] - p.y_tilde
        total += (p.C_prime / p.part.u) * float(d @ d)
    return total


def solve_krr_induction(p: LtrProblem) -> HypothesisScores:
    """Kernel ridge regression on the labeled points, evaluated everywhere.

    Requires C_prime = 0; with C = 0 the solution is identically zero and K
    is not checked.
    """
    if p.C_prime != 0:
        raise ValueError("solve_krr_induction requires C_prime = 0")
    if p.C == 0:
        return HypothesisScores(scores=np.zeros(p.n))
    return KernelSystem(p.K).solve(p.part, p.y, np.zeros(0), p.C, 0.0)
