"""Weighted graphs, Laplacians, spectra and related linear algebra.

Graphs are dense symmetric weight matrices with zero diagonal and
non-negative entries.  The module provides the combinatorial and normalized
Laplacians, a spectrum summary (extremal eigenvalues and the second-smallest
eigenvalue), Moore-Penrose pseudo-inversion with a PSD clamping rule,
BFS connectivity/diameter, row normalization, and Gaussian affinities from
squared distances.

Edge-list files use one ``i j w`` triple per line with 1-based indices and
each undirected edge listed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice

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
        lowest = w.min()
        # before the symmetry test, which a NaN fails with a misleading message
        if not (np.isfinite(w.max()) and np.isfinite(lowest)):
            raise NonFiniteMatrix("weights have non-finite (NaN or infinite) entries")
        if not np.array_equal(w, w.T):
            raise NotSymmetric("weights[i][j] must equal weights[j][i] exactly")
        if lowest < 0:
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
        """Eigenvalue summary of ``L``."""
        return spectrum(self.L)

    @cached_property
    def hop_diameter(self) -> int:
        """``diameter(self)``; raises GraphDisconnected on a disconnected graph."""
        return diameter(self)


@dataclass(frozen=True)
class SpectrumSummary:
    """Extremal eigenvalues of a symmetric matrix.

    ``lambda2`` is the second-smallest eigenvalue (counted with multiplicity);
    for a 1x1 matrix it coincides with ``lambda_min``.
    """

    lambda_min: float
    lambda_max: float
    lambda2: float


def laplacian(g: GraphSpec) -> np.ndarray:
    """Combinatorial Laplacian D - W, in one n x n array.

    Off the diagonal it holds ``0.0 - w_ij``: +0.0 where there is no edge,
    as ``diag(d) - W`` gives, where ``-w`` would give -0.0.
    """
    w = g.weights
    lap = np.subtract(0.0, w)
    np.fill_diagonal(lap, w.sum(axis=1) - np.diagonal(w))
    return lap


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


def spectrum(mat: np.ndarray) -> SpectrumSummary:
    """Eigenvalue summary of a symmetric matrix, from ``eigvalsh`` (ascending order)."""
    vals = np.linalg.eigvalsh(_check_symmetric(mat))
    lam2 = vals[1] if vals.size > 1 else vals[0]
    return SpectrumSummary(
        lambda_min=float(vals[0]),
        lambda_max=float(vals[-1]),
        lambda2=float(lam2),
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


# elements of one row block of sq_distances: 256 KB, which stays in a core's cache
_BLOCK = 1 << 15


def sq_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances ``||a_i - b_j||^2``, clamped at 0.

    Each entry is ``(||a_i||^2 + ||b_j||^2) - 2 a_i . b_j``, rounded in that
    order.  The result is the one n x n array the product ``a @ b.T`` is
    computed into; the rest is done in place, a block of rows at a time.

    Without ``b`` the distances are among the rows of ``a``, and the result
    is exactly symmetric with an exact zero diagonal, for any layout of
    ``a``: the entries above the diagonal are computed and each one below is
    a copy of its mirror image.
    """
    own = b is None
    other = a if own else b
    norms_a = np.sum(a * a, axis=1)
    norms_b = norms_a if own else np.sum(other * other, axis=1)
    d2 = a @ other.T
    rows, cols = d2.shape
    step = max(1, _BLOCK // max(cols, 1))
    norms = np.empty((min(step, rows), cols))
    lower = np.tri(min(step, rows), k=-1, dtype=bool)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        first = lo if own else 0  # columns left of the diagonal block are mirrored below
        block = d2[lo:hi, first:]
        block *= -2.0  # exact, so the sum below rounds as (|a|^2 + |b|^2) - 2 a.b
        block += np.add(norms_a[lo:hi, None], norms_b[first:], out=norms[: hi - lo, : cols - first])
        np.maximum(block, 0.0, out=block)
        if own:
            d2[lo:hi, :lo] = d2[:lo, lo:hi].T
            square = d2[lo:hi, lo:hi]
            np.copyto(square, square.T, where=lower[: hi - lo, : hi - lo])
    if own:
        np.fill_diagonal(d2, 0.0)
    return d2


def _gaussian_weights(points: np.ndarray, sigma: float) -> np.ndarray:
    """``exp(-||x_i - x_j||^2 / (2 sigma^2))`` over the rows of ``points`` (1-d: one feature).

    Computed in place in ``sq_distances``'s array: dividing by
    ``-(2 sigma^2)`` rounds exactly as negating and dividing by ``2 sigma^2``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    w = sq_distances(points)
    w /= -2.0 * sigma * sigma
    return np.exp(w, out=w)


def gaussian_affinity(points: np.ndarray, sigma: float) -> GraphSpec:
    """Dense Gaussian affinity W_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)), zero diagonal.

    Exactly symmetric, as its squared distances are; the graph keeps the
    array itself, read-only.
    """
    w = _gaussian_weights(points, sigma)
    np.fill_diagonal(w, 0.0)
    w.flags.writeable = False
    return GraphSpec(weights=w)


# lines of an edge list converted at once: the strings of a whole 10-NN list
# at n = 506, held together, raised the protocol benchmark's peak RSS by 1 MB
_EDGE_LINES = 1024


def load_edge_list(path, n: int | None = None) -> GraphSpec:
    """Read an ``i j w`` edge list (1-based indices, one line per edge).

    Blank lines are skipped.  ``n`` fixes the vertex count; when omitted it is
    the largest index seen.  The lines are read a block at a time; each
    block's tokens are converted in one pass and every check runs on all of
    its rows at once, the repeated-edge check on all the edges read.  A bad
    file raises at its first bad row, and there at the first check it
    fails, in the order listed below.

    Raises:
        ParseError: on malformed lines, with 1-based row/column positions: a
            line without three fields (column 0); a token that is not an
            integer index or a float weight (its column); an index below 1
            (column 1) or above n (its column); a self-loop (column 1); a
            weight that is not finite or negative (column 3); an edge listed
            a second time in either orientation (column 0).
    """
    blocks = []  # (rows, i, j, w) of the good lines of each block
    with open(path, "r", encoding="utf-8") as fh:
        for start in count(1, _EDGE_LINES):
            lines = list(islice(fh, _EDGE_LINES))
            *block, error = _edge_block(lines, start, n)
            blocks.append(block)
            if error is not None or len(lines) < _EDGE_LINES:
                break  # a file is read no further than its first bad line
    rows, i, j, w = (np.concatenate(parts) for parts in zip(*blocks))
    _, listed, pair = np.unique(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1), axis=0,
                                return_index=True, return_inverse=True)
    listed = listed[pair.ravel()]  # the edge that first lists each edge's vertex pair
    repeated = np.flatnonzero(listed != np.arange(i.size))
    if repeated.size:  # every edge read lies before the bad line, if there is one
        k = repeated[0]
        error = ParseError(int(rows[k]), 0, f"edge {min(i[k], j[k])}-{max(i[k], j[k])} "
                                            f"already listed at row {rows[listed[k]]}")
    if error is not None:
        raise error
    size = int(max(i.max(initial=0), j.max(initial=0))) if n is None else int(n)
    weights = np.zeros((size, size))
    weights[i - 1, j - 1] = weights[j - 1, i - 1] = w
    weights.flags.writeable = False  # the graph keeps it
    return GraphSpec(weights=weights)


def _edge_block(lines: list[str], start: int, n: int | None):
    """``(rows, i, j, w, error)``: the edges of the lines before the block's first bad one.

    ``start`` is the row of the block's first line.  ``error`` is the bad
    line's ParseError, None when every line passes every check but the
    repeated-edge one, which ``load_edge_list`` runs over all blocks.
    """
    fields = [line.split() for line in lines]
    width = np.fromiter(map(len, fields), np.int64, len(fields))
    misshapen = np.flatnonzero((width != 3) & (width != 0))
    stop = int(misshapen[0]) if misshapen.size else len(fields)  # lines read as edges
    rows = np.flatnonzero(width[:stop]) + start  # the row of each edge
    tokens = list(chain.from_iterable(fields[:stop]))
    columns = [parse_tokens(tokens[col::3], kind) for col, kind in enumerate((int, int, float))]
    edges = min(parsed for _, parsed in columns)  # the edges before the first bad token
    i, j, w = (values[:edges] for values, _ in columns)
    checks = [  # (failed, column, message for edge k), in the order one line is checked
        ((i < 1) | (j < 1), 1, lambda k: "vertex indices are 1-based"),
        *([] if n is None else [
            (i > n, 1, lambda k: f"vertex {int(tokens[3 * k])} exceeds n={n}"),
            (j > n, 2, lambda k: f"vertex {int(tokens[3 * k + 1])} exceeds n={n}"),
        ]),
        (i == j, 1, lambda k: "self-loops are not allowed"),
        (~np.isfinite(w), 3, lambda k: f"non-finite weight {tokens[3 * k + 2]!r}"),
        (w < 0, 3, lambda k: "weights must be non-negative"),
    ]
    failures = [(int(np.argmax(failed)), col, message) for failed, col, message in checks
                if failed.any()]
    if failures:
        k, col, message = min(failures, key=lambda f: f[0])  # the first check on a tie
        return rows[:k], i[:k], j[:k], w[:k], ParseError(int(rows[k]), col, message(k))
    error = None
    if edges < rows.size:
        col = 1 + [parsed for _, parsed in columns].index(edges)
        token = tokens[3 * edges + col - 1]
        error = ParseError(int(rows[edges]), col, f"bad weight {token!r}" if col == 3
                           else f"bad vertex index {token!r}")
    elif stop < len(fields):
        error = ParseError(start + stop, 0, "expected 'i j w'")
    return rows[:edges], i, j, w, error


def parse_tokens(tokens: list[str], kind: type) -> tuple[np.ndarray, int]:
    """``kind`` (int or float) of each token up to the first it rejects, and that token's index.

    The index is ``len(tokens)`` when every token parses.  Integers are
    stored as int64, clipped to +-2^62: the loaders only compare them.
    Both data loaders, this module's edge lists and the CLI's CSV files,
    convert their fields here.
    """
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, tokens), dtype, len(tokens)), len(tokens)
    except (ValueError, OverflowError):
        pass
    values = []
    for tok in tokens:
        try:
            value = kind(tok)
        except ValueError:
            break
        values.append(min(max(value, -(1 << 62)), 1 << 62) if kind is int else value)
    return np.array(values, dtype=dtype), len(values)


def save_edge_list(g: GraphSpec, path) -> None:
    """Write the positive-weight edges as 1-based ``i j w`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = np.nonzero(np.triu(g.weights, k=1))
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(g.weights[i, j])!r}\n")
