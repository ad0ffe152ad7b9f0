"""Weighted graphs, Laplacians, spectra and related linear algebra.

Graphs are dense symmetric weight matrices with zero diagonal and
non-negative entries.  The module provides the combinatorial and normalized
Laplacians, a spectrum summary (extremal eigenvalues, the second-smallest
eigenvalue, and the bottom eigenvector), Moore-Penrose pseudo-inversion with
a PSD clamping rule, orthogonal projectors, BFS connectivity/diameter, and
row normalization.

Edge-list files use one ``i j w`` triple per line with 1-based indices and
each undirected edge listed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _readonly
from .errors import (
    GraphDisconnected,
    NonFiniteMatrix,
    NotSymmetric,
    ParseError,
    ZeroDegreeVertex,
    ZeroRowSum,
)

__all__ = [
    "GraphSpec",
    "SpectrumSummary",
    "laplacian",
    "normalized_laplacian",
    "spectrum",
    "pseudo_inverse",
    "is_connected",
    "diameter",
    "row_normalize",
    "gaussian_affinity",
    "sq_distances",
    "load_edge_list",
    "save_edge_list",
]

# Eigenvalues in [-PSD_CLAMP * lambda_max, 0) are treated as exact zeros
# before pseudo-inversion; smaller magnitudes than ZERO_CUTOFF * lambda_max
# are treated as zero as well.
PSD_CLAMP = 1e-9
ZERO_CUTOFF = 1e-12


@dataclass(frozen=True)
class GraphSpec:
    """Symmetric non-negative weight matrix with zero diagonal.

    ``L``, ``L_eigenvalues`` and ``hop_diameter`` depend on the weights
    alone, so each is computed on first use and then kept with the graph:
    a graph fixed for a whole run (an edge list) pays for them once, not
    once per partition.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if w.shape[0] == 0:
            raise ValueError("a graph needs at least one vertex")
        # before the symmetry test, which a NaN fails with a misleading message
        if not (np.isfinite(w.max()) and np.isfinite(w.min())):
            raise NonFiniteMatrix("weights have non-finite (NaN or infinite) entries")
        if not np.array_equal(w, w.T):
            raise NotSymmetric("weights[i][j] must equal weights[j][i] exactly")
        if np.any(w < 0):
            raise ValueError("edge weights must be non-negative")
        if np.any(np.diagonal(w) != 0):
            raise ValueError("the diagonal must be zero (no self-loops)")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def L(self) -> np.ndarray:
        """The combinatorial Laplacian ``laplacian(self)``, read-only."""
        lap = laplacian(self)
        lap.flags.writeable = False
        return lap

    @cached_property
    def L_eigenvalues(self) -> SpectrumSummary:
        """Eigenvalue summary of ``L`` (eigenvalues only)."""
        return spectrum(self.L, eigenvector=False)

    @cached_property
    def hop_diameter(self) -> int:
        """``diameter(self)``; raises GraphDisconnected on a disconnected graph."""
        return diameter(self)


@dataclass(frozen=True)
class SpectrumSummary:
    """Extremal eigenvalues and the bottom eigenvector of a symmetric matrix.

    ``lambda2`` is the second-smallest eigenvalue (counted with multiplicity);
    for a 1x1 matrix it coincides with ``lambda_min``.  ``eigenvector_min``
    is None when only the eigenvalues were computed.
    """

    lambda_min: float
    lambda_max: float
    lambda2: float
    eigenvector_min: np.ndarray | None = None

    def __post_init__(self):
        if self.eigenvector_min is not None:
            object.__setattr__(
                self, "eigenvector_min", _readonly(np.asarray(self.eigenvector_min, float))
            )


def laplacian(g: GraphSpec) -> np.ndarray:
    """Combinatorial Laplacian D - W."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def normalized_laplacian(g: GraphSpec) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Raises:
        ZeroDegreeVertex: if some vertex has zero weighted degree.
    """
    w = g.weights
    deg = w.sum(axis=1)
    if np.any(deg <= 0):
        bad = int(np.argmax(deg <= 0))
        raise ZeroDegreeVertex(f"vertex {bad} has zero weighted degree")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = -(inv_sqrt[:, None] * w * inv_sqrt[None, :])
    np.fill_diagonal(lap, 1.0)
    # exact symmetry regardless of float rounding in the scaling
    return 0.5 * (lap + lap.T)


def _check_symmetric(mat: np.ndarray) -> np.ndarray:
    """``mat`` as a float64 symmetric matrix.

    Asymmetry up to 1e-12 relative to the largest entry is averaged away,
    ``0.5 * (mat + mat.T)``.  An exactly symmetric input, which that average
    would reproduce bit for bit, is returned as is: no copy when it already
    is a float64 array, so the result may be the caller's own array and
    must not be written to.

    Raises:
        NonFiniteMatrix: if an entry is NaN or infinite.
        NotSymmetric: if the asymmetry exceeds the tolerance.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    # NaN would pass the tolerance test below; max and min find it (and any
    # infinity) without an n x n temporary
    if mat.size and not (np.isfinite(mat.max()) and np.isfinite(mat.min())):
        raise NonFiniteMatrix("matrix has non-finite (NaN or infinite) entries")
    if np.array_equal(mat, mat.T):
        return mat
    scale = np.max(np.abs(mat), initial=0.0)
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12 * max(scale, 1.0):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative tolerance")
    return 0.5 * (mat + mat.T)


def spectrum(mat: np.ndarray, eigenvector: bool = True) -> SpectrumSummary:
    """Eigenvalue summary of a symmetric matrix (ascending eigh order).

    With ``eigenvector=False`` only the eigenvalues are computed (eigvalsh,
    16 ms against 41 ms for eigh at n=506 on one Xeon core) and
    ``eigenvector_min`` is None.
    """
    sym = _check_symmetric(mat)
    if eigenvector:
        vals, vecs = np.linalg.eigh(sym)
    else:
        vals, vecs = np.linalg.eigvalsh(sym), None
    lam2 = vals[1] if vals.size > 1 else vals[0]
    return SpectrumSummary(
        lambda_min=float(vals[0]),
        lambda_max=float(vals[-1]),
        lambda2=float(lam2),
        eigenvector_min=None if vecs is None else vecs[:, 0],
    )


def pseudo_inverse(mat: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix via eigh.

    Eigenvalues in [-PSD_CLAMP * lambda_max, 0) are clamped to zero before
    inversion, and magnitudes below ZERO_CUTOFF * lambda_max count as zero.
    """
    sym = _check_symmetric(mat)
    vals, vecs = np.linalg.eigh(sym)
    scale = np.max(np.abs(vals), initial=0.0)
    if scale == 0.0:
        return np.zeros_like(sym)
    zero = (np.abs(vals) <= ZERO_CUTOFF * scale) | (
        (vals < 0) & (vals >= -PSD_CLAMP * scale)
    )
    inv = np.where(zero, 0.0, np.divide(1.0, np.where(zero, 1.0, vals)))
    out = (vecs * inv) @ vecs.T
    return 0.5 * (out + out.T)


def _bfs_levels(adj: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from ``source`` over a boolean adjacency; -1 = unreachable."""
    n = adj.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    level = 0
    while frontier.any():
        level += 1
        reach = adj[frontier].any(axis=0)
        new = reach & (dist < 0)
        if not new.any():
            break
        dist[new] = level
        frontier = new
    return dist


def is_connected(g: GraphSpec) -> bool:
    """True when every vertex is reachable through positive-weight edges."""
    if g.n == 1:
        return True
    adj = g.weights > 0
    return bool((_bfs_levels(adj, 0) >= 0).all())


def diameter(g: GraphSpec) -> int:
    """Largest hop distance between any two vertices (unweighted BFS).

    This is the hop diameter of the positive-weight edge set; edge weights do
    not enter the distance.  A complete graph (every off-diagonal weight
    positive, as in a dense Gaussian affinity) has diameter 1 without a BFS.

    Otherwise all n breadth-first searches run at once, one level per step:
    row v of ``reach`` is the bitset (n bits packed into ceil(n/64) uint64
    words) of the vertices within k hops of v, and one step replaces it by
    the OR of the rows of v and of its neighbours, the vertices within
    k + 1 hops.  The diameter is the number of steps until every row is
    full; a step that changes no row before then means the graph is
    disconnected, and so does a vertex of degree zero.  A step gathers the
    neighbour rows in row chunks of about n edges, so no temporary exceeds
    the size of ``reach`` itself, n * ceil(n/64) words (0.5 MB at n = 2000),
    however dense the graph.

    Raises:
        GraphDisconnected: if some pair of vertices is not connected.
    """
    n = g.n
    if n == 1:
        return 0
    adj = g.weights > 0
    deg = np.count_nonzero(adj, axis=1)
    if not deg.all():
        raise GraphDisconnected("diameter undefined: graph is disconnected")
    if deg.sum() == n * (n - 1):  # the diagonal is zero
        return 1
    np.fill_diagonal(adj, True)  # v is its own neighbour: k + 1 hops covers k
    rows_start = np.concatenate(([0], np.cumsum(deg + 1)))  # row v's first edge, row-major
    chunks = []  # (first row, end row) with about n edges each
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(rows_start, rows_start[lo] + n, side="right")) - 1)
        chunks.append((lo, hi))
        lo = hi

    def bitsets(bits: np.ndarray) -> np.ndarray:
        packed = np.packbits(bits, axis=-1, bitorder="little")
        out = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
        out[..., : packed.shape[-1]] = packed
        return out.view(np.uint64)

    reach = bitsets(adj)  # within one hop
    full = bitsets(np.ones(n, dtype=bool))
    hops = 1
    while not (reach == full).all():
        grown = np.empty_like(reach)
        for lo, hi in chunks:
            cols = np.flatnonzero(adj[lo:hi]) % n
            grown[lo:hi] = np.bitwise_or.reduceat(
                reach[cols], rows_start[lo:hi] - rows_start[lo], axis=0
            )
        if np.array_equal(grown, reach):
            raise GraphDisconnected("diameter undefined: graph is disconnected")
        reach = grown
        hops += 1
    return hops


def row_normalize(mat: np.ndarray) -> np.ndarray:
    """Scale each row to sum to one.

    Raises:
        ZeroRowSum: if some row sums to zero.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    sums = mat.sum(axis=1)
    if np.any(sums == 0):
        bad = int(np.argmax(sums == 0))
        raise ZeroRowSum(f"row {bad} sums to zero")
    return mat / sums[:, None]


def sq_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances ``||a_i - b_j||^2``, clamped at 0.

    Computed as ``||a_i||^2 + ||b_j||^2 - 2 a_i . b_j``.  Without ``b`` the
    distances are among the rows of ``a``, with an exact zero diagonal.
    """
    other = a if b is None else b
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(other * other, axis=1)[None, :]
    d2 -= 2.0 * (a @ other.T)
    np.maximum(d2, 0.0, out=d2)
    if b is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def gaussian_affinity(points: np.ndarray, sigma: float) -> GraphSpec:
    """Dense Gaussian affinity W_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)), zero diagonal."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    w = np.exp(-sq_distances(points) / (2.0 * sigma * sigma))
    np.fill_diagonal(w, 0.0)
    w = np.minimum(w, w.T)  # exact symmetry
    return GraphSpec(weights=w)


def load_edge_list(path, n: int | None = None) -> GraphSpec:
    """Read an ``i j w`` edge list (1-based indices, one line per edge).

    Blank lines are skipped.  ``n`` fixes the vertex count; when omitted it is
    the largest index seen.

    Raises:
        ParseError: on malformed lines, with 1-based row/column positions: a
            weight that is negative or not finite (column 3), or an edge
            listed a second time in either orientation (column 0).
    """
    edges: dict[tuple[int, int], tuple[int, float]] = {}  # (i, j), i < j: (row, w)
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(row, 0, "expected 'i j w'")
            try:
                i = int(parts[0])
            except ValueError:
                raise ParseError(row, 1, f"bad vertex index {parts[0]!r}") from None
            try:
                j = int(parts[1])
            except ValueError:
                raise ParseError(row, 2, f"bad vertex index {parts[1]!r}") from None
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(row, 3, f"bad weight {parts[2]!r}") from None
            if i < 1 or j < 1:
                raise ParseError(row, 1, "vertex indices are 1-based")
            if n is not None:
                if i > n:
                    raise ParseError(row, 1, f"vertex {i} exceeds n={n}")
                if j > n:
                    raise ParseError(row, 2, f"vertex {j} exceeds n={n}")
            if i == j:
                raise ParseError(row, 1, "self-loops are not allowed")
            if not math.isfinite(w):
                raise ParseError(row, 3, f"non-finite weight {parts[2]!r}")
            if w < 0:
                raise ParseError(row, 3, "weights must be non-negative")
            edge = (min(i, j), max(i, j))
            if edge in edges:
                raise ParseError(row, 0, f"edge {edge[0]}-{edge[1]} already listed "
                                         f"at row {edges[edge][0]}")
            edges[edge] = (row, w)
            max_idx = max(max_idx, i, j)
    size = max_idx if n is None else int(n)
    if size < max_idx:
        raise ValueError(f"n={size} smaller than largest index {max_idx}")
    weights = np.zeros((size, size))
    for (i, j), (_, w) in edges.items():
        weights[i - 1, j - 1] = weights[j - 1, i - 1] = w
    return GraphSpec(weights=weights)


def save_edge_list(g: GraphSpec, path) -> None:
    """Write the positive-weight edges as 1-based ``i j w`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = np.nonzero(np.triu(g.weights, k=1))
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(g.weights[i, j])!r}\n")
