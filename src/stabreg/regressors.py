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
  smoothing (GMF) with the combinatorial Laplacian; ``graph_quadratic``
  gives each family's Q.  Constrained: their stabilized variants, with u
  Q's bottom eigenvector, and the norm-constrained Laplacian regularizer
  ``h^T L h + (C/m) ||(h - y)_S||^2``, with weight 0 on T; a constant u
  must pin L's null space.
* ``KernelSystem(K)``: kernel least squares over a symmetric PSD Gram
  matrix: labeled squared loss weighted by C/m plus unlabeled squared loss
  against local pseudo-targets weighted by C'/u (LTR), for one pseudo-target
  vector or a block of them.  With C' = 0 this is kernel ridge regression
  evaluated on the full sample.

A system shares a matrix the caller already holds read-only and copies any
other.  Each ``solve`` checks its weights and labels against the system.
``solve_unconstrained``, ``stabilize``, ``solve_constrained``, ``solve_ltr``
and ``solve_krr_induction`` prepare a system from arrays and solve it once.

Pseudo-targets for unlabeled points are radius-limited weighted averages of
labeled neighbors; weights are either a Gaussian kernel value or an inverse
feature-space distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FullSample, Partition, _readonly
from .errors import (
    ConstraintSpansNullSpace,
    NotPSDKernel,
    PseudoTargetUnavailable,
    SingularSystem,
    ZeroConstraintVector,
)
from .graph import (
    GraphSpec,
    SpectrumSummary,
    _check_symmetric,
    _gaussian_weights,
    normalized_laplacian,
    row_normalize,
    spectrum,
    sq_distances,
)

__all__ = [
    "LocalEstimatorConfig",
    "KernelSystem",
    "QuadraticSystem",
    "graph_quadratic",
    "labels_to_full",
    "solve_unconstrained",
    "stabilize",
    "solve_constrained",
    "gaussian_kernel",
    "pseudo_targets",
    "pseudo_targets_by_radius",
    "solve_ltr",
    "solve_krr_induction",
]

_RESIDUAL_TOL = 1e-10
_KKT_TOL = 1e-8


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
    return part.on_sides(y)


def _llreg_quadratic(A_raw: np.ndarray) -> np.ndarray:
    """Q = (I - A)^T (I - A) for the row-normalized A."""
    a = row_normalize(A_raw)
    m_mat = np.eye(a.shape[0]) - a
    q = m_mat.T @ m_mat
    return 0.5 * (q + q.T)


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


def _norm(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` without overflow: each row is divided by its largest
    finite magnitude before it is squared, and its norm scaled back (inf past the float range)."""
    top = np.max(np.abs(x), axis=-1, keepdims=True)
    top = np.where(np.isfinite(top) & (top > 0), top, 1.0)
    with np.errstate(over="ignore"):
        return np.linalg.norm(x / top, axis=-1) * top[..., 0]


def _weighted_labels(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``c * y``; SingularSystem where a product overflows, before a solve sees it."""
    with np.errstate(over="ignore"):
        cy = c * y
    if np.isinf(cy).any():
        raise SingularSystem("weighted labels c * y exceed the float range")
    return cy


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
            eig = eigenvalues or spectrum(self.Q)
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
            resid = _norm(qh / c + h - y)
            ok = resid <= _RESIDUAL_TOL * np.maximum(1.0, _norm(y))
            return ~ok, "solution residual exceeds tolerance"
        rhs = c * y
        resid = _norm(qh + c * h + multiplier * u - rhs)
        scale = np.maximum(1.0, _norm(rhs))
        ok = (resid <= _KKT_TOL * scale) & (np.abs(h @ u) <= _KKT_TOL * scale)
        return ~ok, "KKT residual exceeds tolerance"

    def solve(self, c: np.ndarray, y: np.ndarray, center_labels: bool = False
              ) -> np.ndarray:
        """Minimize ``h^T Q h + (h - y)^T diag(c) (h - y)`` for weights c.

        Without a constraint, c > 0 and ``(Q + diag(c)) h = c y`` is solved.
        With constraint u, c >= 0 and h is also held to ``u^T h = 0``: the
        KKT system bordered by u gives ``Q h + diag(c) (h - y) + beta u = 0``
        for a multiplier beta.  ``center_labels`` removes the labels'
        component along u on the labeled points (c > 0) before solving and
        adds it back onto the scores.  c and y need one entry per row of Q
        and c must be finite, else ValueError; weighted labels ``c y``
        beyond the float range, or a failed ``residual_test``, raise
        SingularSystem.  Returns the (n,) scores.
        """
        n = self.Q.shape[0]
        u = self.constraint
        c = np.asarray(c, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if c.shape != (n,) or y.shape != (n,):
            raise ValueError("c and y must have one entry per row of Q")
        if not np.all(np.isfinite(c) & ((c > 0) if u is None else (c >= 0))):
            raise ValueError("weights c must be finite, and positive without a constraint "
                             "or non-negative with one")
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
        cy = _weighted_labels(c, y)
        rhs = cy if u is None else np.append(cy, 0.0)
        sol = _solve(self.matrix(c), rhs)
        h = sol[:n]
        failed, message = self.residual_test(c, y, h, self.Q @ h, sol[n:])
        if failed:
            raise SingularSystem(message)
        if center_labels:
            h = h + offset * u
        return h


def solve_unconstrained(Q: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form minimizer ``h = (C^{-1} Q + I)^{-1} y`` for C = diag(c), c > 0."""
    return QuadraticSystem(Q).solve(c, y)


def stabilize(Q: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The unconstrained problem restricted to the orthogonal complement of Q's bottom eigenvector.

    The feasible subspace's smallest Q-eigenvalue is the second-smallest
    eigenvalue of Q, which tightens the score-perturbation denominator.
    The eigenvector comes from eigh, not ``graph_quadratic``.
    """
    return QuadraticSystem(Q, np.linalg.eigh(_check_symmetric(Q))[1][:, 0]).solve(c, y)


def solve_constrained(L: np.ndarray, part: Partition, y_S: np.ndarray, C: float,
                      u: np.ndarray | None = None, center_labels: bool = False
                      ) -> np.ndarray:
    """KKT solve of the constrained Laplacian problem: weight C/m on S, 0 on T.

    ``y_S`` holds the m labels in sorted-S order and ``u`` defaults to the
    all-ones direction.  Raises ConstraintSpansNullSpace for a constant u on
    a disconnected graph, else as ``QuadraticSystem.solve``.
    """
    system = QuadraticSystem(L, np.ones(part.n) if u is None else u)
    system.check_null_space()
    return system.solve(part.on_sides(float(C) / part.m), labels_to_full(y_S, part),
                        center_labels)


def gaussian_kernel(points: np.ndarray, sigma: float) -> np.ndarray:
    """Gram matrix K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)), unit diagonal.

    Exactly symmetric, as its squared distances are.
    """
    k = _gaussian_weights(points, sigma)
    np.fill_diagonal(k, 1.0)
    return k


def _distance_weights(xt: np.ndarray, xs: np.ndarray, cfg: LocalEstimatorConfig
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Row t, column s: the squared distance from ``xt[t]`` to ``xs[s]``, and its weight.

    The weight is Gaussian or inverse-distance as ``cfg`` says, whatever the
    radius; ``_ball_means`` keeps the pairs within it.
    """
    d2 = sq_distances(xt, xs)
    if cfg.weighting == "gaussian":
        weights = np.exp(d2 / (-2.0 * cfg.sigma * cfg.sigma))
    else:
        weights = 1.0 / (1.0 + np.sqrt(d2))
    return d2, weights


def _ball_means(num: np.ndarray, den: np.ndarray, count: np.ndarray, label_sums,
                where=True) -> tuple[np.ndarray, np.ndarray]:
    """The local estimator's rule, applied to the sums over each ball of labeled neighbours.

    ``num`` is a ball's weighted label sum, ``den`` its weight sum and
    ``count`` its number of points.  A ball's pseudo-target is
    ``num / den``; when every weight in it underflowed (``den == 0 <
    count``) it is the plain average of its labels, ``label_sums(*index)``
    giving the plain sums of the balls at an ``np.nonzero`` index; an empty
    ball (``count == 0``) gives 0.  Only the balls marked by ``where`` are
    examined.  Overwrites ``num`` and ``den`` at the underflowed balls.
    Returns the pseudo-targets and the mask of the examined empty balls.
    """
    under = np.nonzero((den == 0.0) & (count > 0) & where)
    if under[0].size:
        num[under] = label_sums(*under)
        den[under] = count[under]
    empty = (count == 0) & where
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0), empty


def pseudo_targets_by_radius(sample: FullSample, part: Partition, cfg: LocalEstimatorConfig):
    """``at(r)``: ``pseudo_targets`` at radius r, for every r, from one distance computation.

    The distances and weights between the unlabeled and the labeled points
    do not depend on the radius (``cfg.radius_r`` is not read), so a sweep
    over a radius grid computes them once.
    """
    ys = sample.targets[part.train_idx]
    d2, weights = _distance_weights(sample.points[part.test_idx],
                                    sample.points[part.train_idx], cfg)

    def at(r: float) -> np.ndarray:
        member = d2 <= r * r
        kept = np.where(member, weights, 0.0)
        out, empty = _ball_means(kept @ ys, kept.sum(axis=1), member.sum(axis=1),
                                 lambda rows: member[rows] @ ys)
        if cfg.fallback == "error" and empty.any():
            raise PseudoTargetUnavailable(
                f"unlabeled point {int(part.test_idx[np.argmax(empty)])} has no labeled "
                f"neighbor within radius {r}"
            )
        return out

    return at


def pseudo_targets(
    sample: FullSample, part: Partition, cfg: LocalEstimatorConfig
) -> np.ndarray:
    """Weighted-average pseudo-targets for every unlabeled point.

    For unlabeled x', the neighborhood is the labeled points within Euclidean
    distance ``radius_r``; the pseudo-target is the weight-normalized average
    of their labels, so it always stays within the label bound.  Where every
    weight underflows it is the plain average of their labels.

    Returns:
        Length-u array aligned with the sorted unlabeled indices.

    Raises:
        PseudoTargetUnavailable: an empty neighborhood with fallback="error".
    """
    return pseudo_targets_by_radius(sample, part, cfg)(cfg.radius_r)


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
        ``y_tilde`` may be empty when C' = 0.  The residual ``K_kk alpha +
        Lambda^{-1} alpha - [y_S; y_tilde]`` of each column must stay within
        1e-10 of ``max(1, ||[y_S; y_tilde]||)``, as in ``QuadraticSystem``'s
        unbordered solves, else SingularSystem; NaN fails.  ValueError when
        the partition does not cover K, y is not of length m, y_tilde is not
        of length u (or 0 with C' = 0), or C or C' is negative or not finite.
        """
        y = np.asarray(y, dtype=np.float64)
        y_tilde = np.asarray(y_tilde, dtype=np.float64)
        if part.n != self.K.shape[0]:
            raise ValueError("the partition must have one index per row of K")
        if y.shape != (part.m,):
            raise ValueError("y must have length m")
        if not (0 <= C < math.inf and 0 <= C_prime < math.inf):
            raise ValueError("C and C_prime must be finite and non-negative")
        if C_prime > 0 and y_tilde.shape[0] == 0:
            raise ValueError("C_prime > 0 requires pseudo-targets")
        if y_tilde.shape[0] not in (0, part.u):
            raise ValueError("y_tilde must have length u (or 0 when C_prime = 0)")
        cols = y_tilde.shape[1:]  # () for one problem, (k,) for a block
        # Lambda^{-1} on the kept points, 0 on the others
        inv_w = part.on_sides(part.m / C if C > 0 else 0.0,
                              part.u / C_prime if C_prime > 0 else 0.0)
        kept = np.flatnonzero(inv_w)
        if not kept.size:
            return np.zeros((0, *cols)), kept
        y_all = part.on_sides(y[:, None] if cols else y,
                              y_tilde if y_tilde.shape[0] else np.zeros((part.u, *cols)))[kept]
        # with every point kept, kept is 0..n-1 and a copy of K is the sub-matrix
        sub = self.K.copy() if kept.size == part.n else self.K[np.ix_(kept, kept)]
        sub.flat[:: kept.size + 1] += inv_w[kept]
        alpha = _solve(sub, y_all)
        resid = _norm((sub @ alpha - y_all).T)
        if not np.all(resid <= _RESIDUAL_TOL * np.maximum(1.0, _norm(y_all.T))):
            raise SingularSystem("solution residual exceeds tolerance")
        return alpha, kept

    def scores(self, alpha: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """``f = sum_kept alpha_i K(., x_i)`` on every point (zero when nothing is kept)."""
        every = kept.size == self.K.shape[0]  # then kept is 0..n-1: K itself, not a copy
        return (self.K if every else self.K[:, kept]) @ alpha

    def solve(self, part: Partition, y: np.ndarray, y_tilde: np.ndarray,
              C: float, C_prime: float) -> np.ndarray:
        """Scores of the LTR minimizer for one pseudo-target vector."""
        if np.ndim(y_tilde) != 1:
            raise ValueError("a block of pseudo-targets is solved by dual")
        return self.scores(*self.dual(part, y, y_tilde, C, C_prime))


def solve_ltr(K: np.ndarray, part: Partition, y: np.ndarray, y_tilde: np.ndarray,
              C: float, C_prime: float) -> np.ndarray:
    """Minimize ``||f||_K^2 + (C/m) sum_S (f - y)^2 + (C'/u) sum_T (f - y_tilde)^2``."""
    return KernelSystem(K).solve(part, y, y_tilde, C, C_prime)


def solve_krr_induction(K: np.ndarray, part: Partition, y: np.ndarray, C: float
                        ) -> np.ndarray:
    """Kernel ridge regression on the labeled points, evaluated everywhere: LTR with C' = 0."""
    return KernelSystem(K).solve(part, y, np.zeros(0), C, 0.0)
