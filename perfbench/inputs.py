"""Seeded input generators for the partition-protocol benchmark.

The program under test only ever sees the files written here: a headered
CSV (features then target) and a 1-based ``i j w`` edge list.  Every file is
a pure function of its seed and size.
"""

from __future__ import annotations

import csv

import numpy as np


def housing_like_csv(path, n: int, seed: int) -> np.ndarray:
    """Write an n x 13 housing-like fixture to ``path``; return its features.

    A size-parametric copy of the acceptance suite's fixture (criterion 09),
    which is 506 rows on seed 20.  It is copied, not imported, so the
    benchmark does not depend on the test tree.
    """
    rng = np.random.default_rng(seed)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(x.shape[1])] + ["target"])
        for row, t in zip(x, y):
            writer.writerow([f"{v:.10f}" for v in row] + [f"{t:.10f}"])
    return x


def knn_edge_list(path, features: np.ndarray, k: int = 10) -> None:
    """Write the symmetric k-nearest-neighbour graph of ``features``.

    Distances are taken on the features normalized the way the CLI
    normalizes them (zero mean, unit population variance), so the graph
    matches the points the solvers see.  An edge joins i and j when either
    is among the other's k nearest; its weight is the Gaussian
    ``exp(-d^2 / (2 s^2))`` with s the median k-NN distance.

    Raises:
        RuntimeError: the graph is disconnected, so the Laplacian workloads
            would fail on it.
    """
    from stabreg.graph import GraphSpec, is_connected

    pts = (features - features.mean(axis=0)) / features.std(axis=0)
    sq = np.sum(pts * pts, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    n = pts.shape[0]
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    adj = np.zeros((n, n), dtype=bool)
    adj[np.repeat(np.arange(n), k), nearest.ravel()] = True
    adj |= adj.T
    scale2 = float(np.median(d2[np.arange(n)[:, None], nearest]))
    weights = np.where(adj, np.exp(-d2 / (2.0 * scale2)), 0.0)
    if not is_connected(GraphSpec(weights=weights)):
        raise RuntimeError(f"the {k}-NN graph on {n} points is disconnected")
    rows, cols = np.nonzero(np.triu(adj, k=1))
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(weights[i, j])!r}\n")
