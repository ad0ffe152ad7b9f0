"""Weighted graphs, Laplacians, spectra and related linear algebra.

A graph is given by a dense symmetric weight matrix with zero diagonal and
non-negative entries, and kept as its combinatorial Laplacian.  The module
provides the combinatorial and normalized Laplacians, a spectrum summary
(extremal eigenvalues and the second-smallest eigenvalue), Moore-Penrose
pseudo-inversion with a PSD clamping rule, BFS connectivity/diameter, row
normalization, and Gaussian affinities from squared distances.

Edge-list files use one ``i j w`` triple per line with 1-based indices and
each undirected edge listed once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice

import numpy as np

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


@dataclass(frozen=True, init=False)
class GraphSpec:
    """A weighted graph on n vertices, stored as its combinatorial Laplacian.

    ``GraphSpec(weights=W)`` takes a symmetric non-negative weight matrix
    with zero diagonal and keeps only ``L = D - W``, read-only, with
    ``L_ij = 0.0 - w_ij`` off the diagonal.  Negation is exact, so
    ``weights`` rebuilds W from L bit for bit (a weight of -0.0 reads back
    as +0.0), and an edge is an off-diagonal ``L_ij < 0``.

    ``L_eigenvalues`` and ``hop_diameter`` depend on the graph alone, so
    each is computed on first use and then kept with the graph: a graph
    fixed for a whole run (an edge list) pays for them once, not once per
    partition.
    """

    L: np.ndarray

    def __init__(self, weights):
        object.__setattr__(self, "L", _laplacian_of(np.asarray(weights, dtype=np.float64)))

    @classmethod
    def _own(cls, w: np.ndarray) -> GraphSpec:
        """The graph of a fresh weight matrix ``w`` that nobody else holds.

        L is formed in ``w``'s buffer, so the graph costs one n x n array,
        not two; ``w`` must not be used afterwards.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "L", _laplacian_of(w, out=w))
        return g

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """W, rebuilt from ``L`` on each call as a new read-only n x n array."""
        w = _weights(self.L)
        w.flags.writeable = False
        return w

    @cached_property
    def L_eigenvalues(self) -> SpectrumSummary:
        """Eigenvalue summary of ``L``."""
        return spectrum(self)

    @cached_property
    def hop_diameter(self) -> int:
        """``diameter(self)``; raises GraphDisconnected on a disconnected graph."""
        return diameter(self)


def _laplacian_of(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The read-only Laplacian of the float64 weight matrix ``w``, formed in ``out``.

    ``out`` is ``w`` itself or None, for a new array.
    """
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
    with np.errstate(over="ignore"):  # a degree past the float range is inf; solvers reject it
        degrees = w.sum(axis=1) - np.diagonal(w)
    # +0.0 where there is no edge, as diag(d) - W gives, where -w would give -0.0
    lap = np.subtract(0.0, w, out=out)
    np.fill_diagonal(lap, degrees)
    lap.flags.writeable = False
    return lap


def _checked_laplacian(g: GraphSpec) -> np.ndarray:
    """``g.L`` for a solver: NonFiniteMatrix if a degree overflowed to infinity.

    ``GraphSpec`` built L exactly symmetric from finite weights, so only its
    diagonal, the degrees, can hold a non-finite entry: this O(n) check
    stands in for ``_check_symmetric``'s O(n^2) one.
    """
    _check_finite(np.diagonal(g.L))
    return g.L


def _weights(lap: np.ndarray) -> np.ndarray:
    """The weight matrix ``0.0 - L`` with a zero diagonal, as a new writeable C-ordered array."""
    w = np.subtract(0.0, lap, order="C")
    np.fill_diagonal(w, 0.0)
    return w


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
    """Combinatorial Laplacian D - W: a new writeable copy of ``g.L``.

    Off the diagonal it holds ``0.0 - w_ij``: +0.0 where there is no edge,
    as ``diag(d) - W`` gives, where ``-w`` would give -0.0.
    """
    return g.L.copy()


def normalized_laplacian(g: GraphSpec) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Raises:
        ZeroDegreeVertex: if some vertex has zero weighted degree.
    """
    deg = np.diagonal(g.L)  # the row sums of W
    if np.any(deg <= 0):
        bad = int(np.argmax(deg <= 0))
        raise ZeroDegreeVertex(f"vertex {bad} has zero weighted degree")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = _weights(g.L)  # scaled and negated in place, as -(inv_sqrt_i * w_ij * inv_sqrt_j)
    lap *= inv_sqrt[:, None]
    lap *= inv_sqrt[None, :]
    np.negative(lap, out=lap)
    np.fill_diagonal(lap, 1.0)
    # exact symmetry regardless of float rounding in the scaling
    sym = np.add(lap, lap.T)
    sym *= 0.5
    return sym


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
    # NaN would pass the tolerance test below
    _check_finite(mat)
    if np.array_equal(mat, mat.T):
        return mat
    scale = np.max(np.abs(mat), initial=0.0)
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12 * max(scale, 1.0):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative tolerance")
    return 0.5 * (mat + mat.T)


def _check_finite(mat: np.ndarray) -> np.ndarray:
    """``mat`` (an array of any shape); NonFiniteMatrix if an entry is NaN or infinite.

    max and min find such an entry without an n x n temporary.
    """
    if mat.size and not (np.isfinite(mat.max()) and np.isfinite(mat.min())):
        raise NonFiniteMatrix("matrix has non-finite (NaN or infinite) entries")
    return mat


def spectrum(mat: np.ndarray | GraphSpec) -> SpectrumSummary:
    """Eigenvalue summary of a symmetric matrix, from ``eigvalsh`` (ascending order).

    A GraphSpec stands for its Laplacian, whose symmetry the graph checked
    when it was built: only its diagonal is checked (``_checked_laplacian``).
    """
    if isinstance(mat, GraphSpec):
        vals = np.linalg.eigvalsh(_checked_laplacian(mat))
    else:
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
    adj = g.L < 0  # the edges: 0.0 - w_ij < 0 exactly when w_ij > 0
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
    adj = g.L < 0  # the edges, and False on the diagonal, where L holds the degrees
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
    return mat / _nonzero_rows(mat.sum(axis=1))[:, None]


def _nonzero_rows(sums: np.ndarray) -> np.ndarray:
    """``sums``, the row sums of a matrix; ZeroRowSum if one of them is zero."""
    if np.any(sums == 0):
        bad = int(np.argmax(sums == 0))
        raise ZeroRowSum(f"row {bad} sums to zero")
    return sums


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

    Exactly symmetric, as its squared distances are.
    """
    w = _gaussian_weights(points, sigma)
    np.fill_diagonal(w, 0.0)
    return GraphSpec._own(w)


# lines of an edge list converted at once: the strings of a whole 10-NN list
# at n = 506, held together, raised the protocol benchmark's peak RSS by 1 MB
_EDGE_LINES = 1024


def load_edge_list(path, n: int | None = None) -> GraphSpec:
    """Read an ``i j w`` edge list (1-based indices, one line per edge).

    Blank lines are skipped, and so is a UTF-8 byte-order mark.  ``n``
    fixes the vertex count; when omitted it is the largest index seen.
    numpy's C reader (``parse_text``) reads the file first.  A file it
    rejects, or whose edges fail a check, is read again a block of lines at
    a time: each block's tokens are converted in one pass by
    ``parse_tokens`` and every check runs on all of its rows at once, the
    repeated-edge check on all the edges read.  A bad file raises at its
    first bad row, and there at the first check it fails, in the order
    listed below.

    Raises:
        ParseError: on malformed lines, with 1-based row/column positions: a
            line without three fields (column 0); a token that is not an
            integer index or a float weight (its column); an index below 1
            (column 1) or above n (its column); a self-loop (column 1); a
            weight that is not finite or negative (column 3); an edge listed
            a second time in either orientation (column 0).
    """
    i, j, w = _edges_by_c_reader(path, n) or _edges_by_block(path, n)
    size = int(max(i.max(initial=0), j.max(initial=0))) if n is None else int(n)
    weights = np.zeros((size, size))
    weights[i - 1, j - 1] = weights[j - 1, i - 1] = w
    return GraphSpec._own(weights)


_EDGE_FIELDS = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _edges_by_c_reader(path, n: int | None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(i, j, w)`` of every edge, read by ``parse_text``; None if it rejects the file
    or an edge fails a check of ``_edges_by_block``, the repeat check included.

    A repeated edge is a repeated int64 key: the flat index of the edge's
    entry above the diagonal of the weight matrix.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        edges = parse_text(fh, _EDGE_FIELDS)
    if edges is None:
        return None
    i, j, w = (edges[name].ravel() for name in _EDGE_FIELDS.names)
    size = int(max(i.max(), j.max()) if n is None else n)
    if size * size >= 1 << 63:  # no such weight matrix; the checks by block say so
        return None
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if not ((lo >= 1) & (hi <= size) & (lo != hi) & (w >= 0) & (w < np.inf)).all():
        return None
    key = (lo - 1) * size + (hi - 1)
    key.sort()
    return None if (key[1:] == key[:-1]).any() else (i, j, w)


def _edges_by_block(path, n: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, w)`` of every edge, read a block of lines at a time; ParseError on a bad file."""
    blocks = []  # (rows, i, j, w) of the good lines of each block
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    return i, j, w


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


def parse_text(fh, dtype, delimiter: str | None = None) -> np.ndarray | None:
    """The rest of the text file ``fh`` as read by numpy's C reader; None if it rejects it.

    ``np.loadtxt`` reads ``fh`` in chunks, one row per line that is not
    blank, into a 2-d array; ``delimiter`` None splits fields on whitespace.
    A text with no such line gives None as well: loadtxt warns about it,
    and any warning it gives is turned into that None.  The C reader
    accepts a subset of what ``parse_tokens`` accepts: not ``1_0``, quoted
    cells, non-ASCII digits or a float token for an integer; where both
    accept a token they convert it alike.  So a loader reads the file again
    with ``parse_tokens`` when this gives None, and then either loads it or
    says where it is bad.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(fh, dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None


def parse_tokens(tokens: list[str], kind: type) -> tuple[np.ndarray, int]:
    """``kind`` (int or float) of each token up to the first it rejects, and that token's index.

    The index is ``len(tokens)`` when every token parses.  Integers are
    stored as int64, clipped to +-2^62: the loaders only compare them.
    Both data loaders, this module's edge lists and the CLI's CSV files,
    convert their fields here when ``parse_text`` rejects a file.
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
    w = g.weights
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = np.nonzero(np.triu(w, k=1))
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(w[i, j])!r}\n")
