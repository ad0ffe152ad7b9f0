"""Swap engines: the scores of every partition one S/T exchange away.

A swap moves one point i from the labeled set S to the unlabeled set T and
one point j the other way.  For every solver family that changes the home
system in two diagonal entries and its right-hand side, so the home system
is factored once and each swapped solution is a rank-2 (Woodbury) update of
its inverse (Hager, "Updating the inverse of a matrix", SIAM Review 31,
1989), with a closed-form 2x2 capacitance solve per swap:

* ``quadratic``: ``(Q + diag c)^{-1}``, bordered by the system's
  constraint when it has one (the stabilized variants and the constrained
  Laplacian); a swap moves c at i and j, and centered labels' offset is a
  rank-1 change of the right-hand side;
* ``kernel``: ``F = K - K_k (K_kk + Lambda_k^{-1})^{-1} K_k^T`` with the
  scores ``F Lambda z``; a swap moves Lambda at i and j, and the
  pseudo-targets come from per-point sums updated per swap.

Each engine is ``evaluate(removed, added)``: index arrays of k swaps in, the
(k, n) swapped scores out, one row per swap, checked in batch: ``quadratic``
makes every check of ``QuadraticSystem.solve``; ``kernel`` checks each swap's
2x2 capacitance, pseudo-targets and finite scores, but runs no residual test,
which ``KernelSystem`` runs on the home partition's solve only.  A block
raises the error of its earliest failing swap.  The CLI imports this module
on first use, so fitting never loads it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import FullSample, Partition
from . import regressors
from .errors import PseudoTargetUnavailable, SingularSystem, ZeroConstraintVector
from .regressors import (
    KernelSystem,
    LocalEstimatorConfig,
    QuadraticSystem,
    _solve,
    _weighted_labels,
)

__all__ = ["quadratic", "kernel"]

# a swap's 2x2 capacitance counts as singular when its determinant keeps
# fewer than ~4 of the 16 digits its two products carry
_CAPACITANCE_TOL = 1e-12
# a pseudo-target sum updated by subtraction is recomputed directly when the
# removed term carried more than 999/1000 of it (cancellation)
_CANCELLATION = 1e-3


def _swapped_rows(home: np.ndarray, i: np.ndarray, j: np.ndarray, at_i, at_j) -> np.ndarray:
    """One row per swap k: ``home`` with entry i[k] set to at_i and j[k] to at_j."""
    out = np.repeat(home[None, :], i.size, axis=0)
    rows = np.arange(i.size)
    out[rows, i] = at_i
    out[rows, j] = at_j
    return out


def _rank2(inv: np.ndarray, base_i, base_j, c_i, c_j, i: np.ndarray, j: np.ndarray,
           d_i: float, d_j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Woodbury coefficients of a swap's solution on the columns i and j of ``inv``.

    ``inv`` is A^{-1}.  Swap k moves the right-hand side so that, before A
    itself moves, the solution is ``base_k + c_i[k] inv[:, i] + c_j[k]
    inv[:, j]``, where ``base_i``, ``base_j`` are base_k's entries i and j.
    A then moves to ``A + d_i e_i e_i^T + d_j e_j e_j^T``; with U = [e_i, e_j]
    the Woodbury identity needs the 2x2 capacitance ``I + diag(d_i, d_j)
    U^T inv U``, solved in closed form.  Returns ``(a_i, a_j, singular)``:
    the swapped solution is ``base_k + a_i[k] inv[:, i] + a_j[k] inv[:, j]``,
    and ``singular`` marks the swaps whose capacitance is singular to working
    precision.
    """
    p_ii, p_ij, p_ji, p_jj = inv[i, i], inv[i, j], inv[j, i], inv[j, j]
    r_i = d_i * (base_i + c_i * p_ii + c_j * p_ij)
    r_j = d_j * (base_j + c_i * p_ji + c_j * p_jj)
    s00 = 1.0 + d_i * p_ii
    s01 = d_i * p_ij
    s10 = d_j * p_ji
    s11 = 1.0 + d_j * p_jj
    det = s00 * s11 - s01 * s10
    singular = ~(np.abs(det) > _CAPACITANCE_TOL * (np.abs(s00 * s11) + np.abs(s01 * s10)))
    det = np.where(singular, 1.0, det)
    return c_i - (s11 * r_i - s01 * r_j) / det, c_j - (s00 * r_j - s10 * r_i) / det, singular


def _combine(base: np.ndarray, a_i: np.ndarray, rows_i: np.ndarray, a_j: np.ndarray,
             rows_j: np.ndarray) -> np.ndarray:
    """Rows ``base + a_i[k] rows_i[k] + a_j[k] rows_j[k]``; ``base`` one row or one per swap.

    ``rows_i`` and ``rows_j`` are fresh gathers, scaled in place.
    """
    rows_i *= a_i[:, None]
    rows_j *= a_j[:, None]
    rows_i += rows_j
    rows_i += base
    return rows_i


def _raise_first(checks) -> None:
    """Raise the error of the earliest failing swap of a block.

    ``checks`` lists ``(failed, error)`` pairs, a mask over the block's swaps
    and a function of the swap's position returning its exception, in the
    order a single solve makes them: a swap failing several raises the first.
    """
    first = None
    for failed, error in checks:
        hits = np.flatnonzero(failed)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), error)
    if first is not None:
        raise first[1](first[0])


def _singular(k: int) -> SingularSystem:
    return SingularSystem("swapped system is singular")


def _not_finite(scores: np.ndarray) -> tuple[np.ndarray, Callable]:
    return ~np.isfinite(scores).all(axis=1), lambda k: SingularSystem(
        "swapped scores are not finite")


def _pseudo_target_swaps(sample: FullSample, part: Partition, cfg: LocalEstimatorConfig):
    """``pseudo_targets`` of every swapped partition from per-point sums over S.

    Every point keeps the weighted sum of its labeled neighbours' labels, the
    sum of their weights and their count; a swap (i, j) subtracts i's
    contributions and adds j's.  A weight sum that the subtraction nearly
    cancels, or whose weights all underflow (then the plain average of the
    neighbours' labels is the pseudo-target), is summed again directly.

    Returns ``update(i, j, masks)`` with ``masks`` the (k, n) indicators of
    each swapped S; it gives the (k, n) pseudo-targets (meaningful on each
    swapped T) and the mask of entries with an empty neighbourhood there.
    """
    targets = sample.targets
    member, weights = regressors._neighbour_weights(sample.points, sample.points, cfg)
    # row s, column t: the weight (membership) of s as t's neighbour
    weights_t = np.ascontiguousarray(weights.T)
    member_t = np.ascontiguousarray(member.T, dtype=np.float64)
    del member, weights
    in_s = part.on_sides(1.0)
    num, den, cnt = (targets * in_s) @ weights_t, in_s @ weights_t, in_s @ member_t

    def update(i: np.ndarray, j: np.ndarray, masks: np.ndarray):
        w_i, w_j = weights_t[i], weights_t[j]
        num_k = num + w_j * targets[j][:, None] - w_i * targets[i][:, None]
        den_k = den + w_j - w_i
        cnt_k = cnt + member_t[j] - member_t[i]
        unlabeled = masks == 0.0
        direct = (den_k <= _CANCELLATION * (den + w_j)) & (cnt_k > 0.0) & unlabeled
        if direct.any():
            rows, cols = np.nonzero(direct)
            kept = weights_t[:, cols].T * masks[rows]
            num_k[rows, cols] = kept @ targets
            den_k[rows, cols] = kept.sum(axis=1)
            under = den_k[rows, cols] == 0.0
            rows, cols = rows[under], cols[under]
            num_k[rows, cols] = (member_t[:, cols].T * masks[rows]) @ targets
            den_k[rows, cols] = cnt_k[rows, cols]
        empty = (cnt_k == 0.0) & unlabeled
        return np.divide(num_k, den_k, out=np.zeros_like(num_k), where=den_k > 0.0), empty

    return update


def quadratic(system: QuadraticSystem, sample: FullSample, part: Partition, c_S: float,
              c_T: float, center_labels: bool = False,
              ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Swapped scores from one inverse of the home system.

    The home problem weights S by ``c_S`` and T by ``c_T`` and labels S
    with the sample's targets, as ``system.solve(c, y, center_labels)``
    would be called on ``part``.  The returned ``evaluate(removed, added)``
    gives the scores ``system.solve`` returns on each swapped partition: a
    swap moves two weights and two labels, and with ``center_labels`` the
    labels' offset along the constraint, a rank-1 change of the right-hand
    side.  Each row gets ``solve``'s checks (Q h from the rows of the inverse
    times Q): ZeroConstraintVector when the constraint vanishes on the
    swapped S, ``residual_test``, and SingularSystem for a singular 2x2
    capacitance or non-finite scores.  The home solution gets the residual
    test first, so a home system without a finite inverse raises as
    ``solve`` does.
    """
    n = system.Q.shape[0]
    u = system.constraint
    targets = sample.targets
    c = part.on_sides(c_S, c_T)
    mask = part.on_sides(1.0)
    y = part.on_sides(targets[part.train_idx])
    a_sys = system.matrix(c)
    inv = _solve(a_sys, np.eye(a_sys.shape[0]))
    inv += inv.T  # symmetric: row i is column i
    inv *= 0.5
    q_inv = inv[:, :n] @ system.Q  # row i is Q times column i of the inverse
    x_home = inv[:, :n] @ _weighted_labels(c, y)
    q_home = system.Q @ x_home[:n]
    failed, message = system.residual_test(c, y, x_home[:n], q_home, x_home[n:])
    if failed:
        raise SingularSystem(message)
    if center_labels:
        direction_home = inv[:, :n] @ (c * u * mask)
        q_direction = system.Q @ direction_home[:n]

    def evaluate(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        t_i, t_j = targets[i], targets[j]
        ys = _swapped_rows(y, i, j, 0.0, t_j)
        base, q_base, c_i, c_j = x_home, q_home, -c_S * t_i, c_S * t_j
        base_i, base_j = x_home[i], x_home[j]
        checks = []
        if center_labels:
            masks = _swapped_rows(mask, i, j, 0.0, 1.0)
            denom = masks @ (u * u)
            vanished = ~(denom > 1e-24)
            checks.append((vanished, lambda k: ZeroConstraintVector(
                "constraint vanishes on the labeled set")))
            offset = (ys @ u) / np.where(vanished, 1.0, denom)
            # before the update: the home solution for the offset labels,
            # plus the two moved entries of the labels and of u on S
            base = x_home - offset[:, None] * direction_home
            base_i = base_i - offset * direction_home[i]
            base_j = base_j - offset * direction_home[j]
            q_base = q_home - offset[:, None] * q_direction
            c_i = c_S * (offset * u[i] - t_i)
            c_j = c_S * (t_j - offset * u[j])
            ys = ys - offset[:, None] * (masks * u)
        a_i, a_j, singular = _rank2(inv, base_i, base_j, c_i, c_j, i, j, c_T - c_S, c_S - c_T)
        sol = _combine(base, a_i, inv[i], a_j, inv[j])
        h = sol[:, :n]
        qh = _combine(q_base, a_i, q_inv[i], a_j, q_inv[j])
        failed, message = system.residual_test(_swapped_rows(c, i, j, c_T, c_S), ys, h, qh,
                                               sol[:, n:])
        _raise_first([*checks, (singular, _singular),
                      (failed, lambda k: SingularSystem(message)), _not_finite(h)])
        return h + offset[:, None] * u if center_labels else h

    return evaluate


def kernel(system: KernelSystem, sample: FullSample, part: Partition, C: float,
           C_prime: float, local: LocalEstimatorConfig | None = None,
           ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Swapped LTR scores from one factorization of the home problem.

    With Lambda the diagonal loss weights (C/m on S, C'/u on T) and z the
    targets (labels on S, pseudo-targets on T), the scores are
    ``F Lambda z`` for ``F = K - K_k (K_kk + Lambda_k^{-1})^{-1} K_k^T``,
    k the indices of positive weight.  A swap moves Lambda in two
    diagonal entries, a rank-2 update of F.  ``local`` gives the
    pseudo-targets (its per-point sums are updated per swap, not
    recomputed); without it C' must be 0 (kernel ridge regression).

    ``evaluate(removed, added)`` gives the scores ``system.solve`` returns
    on each swapped partition.  Raises PseudoTargetUnavailable as
    ``pseudo_targets`` does, and SingularSystem for a singular 2x2
    capacitance or non-finite scores.
    """
    if C < 0 or C_prime < 0:
        raise ValueError("C and C_prime must be non-negative")
    if local is None and C_prime > 0:
        raise ValueError("C_prime > 0 requires pseudo-targets")
    targets = sample.targets
    lam_s, lam_t = C / part.m, C_prime / part.u
    lam = part.on_sides(lam_s, lam_t)
    kept = np.flatnonzero(lam > 0)
    k_kept = system.K[:, kept]
    f_mat = system.K - k_kept @ _solve(k_kept[kept] + np.diag(1.0 / lam[kept]), k_kept.T)
    if not np.isfinite(f_mat).all():
        raise SingularSystem("the home system has no finite inverse")
    f_mat += f_mat.T  # symmetric: row i is column i
    f_mat *= 0.5
    x_home = f_mat @ (lam * part.on_sides(targets[part.train_idx]))
    update = None if local is None else _pseudo_target_swaps(sample, part, local)
    in_s = part.on_sides(1.0)

    def evaluate(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        checks = []
        t_i, t_j = targets[i], targets[j]
        if update is None:  # only the labels of i and j move
            base, base_i, base_j = x_home, x_home[i], x_home[j]
            c_i, c_j = -lam_s * t_i, lam_s * t_j
        else:  # every pseudo-target may move
            masks = _swapped_rows(in_s, i, j, 0.0, 1.0)
            y_tilde, empty = update(i, j, masks)
            if local.fallback == "error":
                checks.append((empty.any(axis=1), lambda k: PseudoTargetUnavailable(
                    f"unlabeled point {int(np.flatnonzero(empty[k])[0])} has no "
                    f"labeled neighbor within radius {local.radius_r}")))
            z = np.where(masks > 0.0, targets, y_tilde)
            base = (_swapped_rows(lam, i, j, lam_t, lam_s) * z) @ f_mat
            rows = np.arange(i.size)
            base_i, base_j = base[rows, i], base[rows, j]
            c_i = c_j = np.zeros(i.size)
        a_i, a_j, singular = _rank2(f_mat, base_i, base_j, c_i, c_j, i, j,
                                    lam_t - lam_s, lam_s - lam_t)
        scores = _combine(base, a_i, f_mat[i], a_j, f_mat[j])
        _raise_first([*checks, (singular, _singular), _not_finite(scores)])
        return scores

    return evaluate
