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


def load_edge_list(path, n: int | None = None) -> GraphSpec:
    """Read an ``i j w`` edge list (1-based indices, one line per edge).

    Blank lines are skipped, and so is a UTF-8 byte-order mark.  ``n``
    fixes the vertex count; when omitted it is the largest index seen.  An
    empty file with ``n`` given is an edgeless graph.  numpy's C reader
    (``parse_text``) is the one grammar: an index is a decimal int64, a
    weight a float64.  A file it rejects, or whose edges fail a check, is
    walked line by line to name its first bad row, and there the first
    check it fails, in the order listed below.

    Raises:
        ParseError: on malformed lines, with 1-based row/column positions: a
            line without three fields (column 0); a token that is not an
            int64 index or a float weight (its column); an index below 1
            (column 1) or above n (its column); a self-loop (column 1); a
            weight that is not finite or negative (column 3); an edge listed
            a second time in either orientation (column 0).
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        edges = parse_text(fh, _EDGE_FIELDS)
    if edges is None:
        raise _edge_list_error(path, n)
    i, j, w = (edges[name].ravel() for name in _EDGE_FIELDS.names)
    size = int(max(i.max(initial=0), j.max(initial=0))) if n is None else int(n)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    bad = not ((lo >= 1) & (hi <= size) & (lo != hi) & (w >= 0) & (w < np.inf)).all()
    if not bad and size * size < 1 << 63:  # else np.zeros below says no such matrix exists
        key = (lo - 1) * size + (hi - 1)  # the flat index of the edge above the diagonal
        key.sort()
        bad = (key[1:] == key[:-1]).any()
    if bad:
        raise _edge_list_error(path, n)
    weights = np.zeros((size, size))
    weights[i - 1, j - 1] = weights[j - 1, i - 1] = w
    return GraphSpec._own(weights)


_EDGE_FIELDS = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _edge_list_error(path, n: int | None) -> ParseError:
    """The ParseError of the first bad row of an edge list that ``load_edge_list`` rejects.

    Each line is read by ``parse_text`` on its own and checked in row order;
    a repeated edge is a vertex pair already in ``seen``.
    """
    seen = {}  # (lo, hi) -> the row that first lists it
    with open(path, "r", encoding="utf-8-sig") as fh:
        for row, line in enumerate(fh, 1):
            edge = parse_text([line], _EDGE_FIELDS)
            if edge is None:
                return _bad_edge_line(row, line)
            for i, j, w in edge.ravel().tolist():  # none on a blank line
                pair = (min(i, j), max(i, j))
                for failed, col, message in (
                        (pair[0] < 1, 1, "vertex indices are 1-based"),
                        (n is not None and i > n, 1, f"vertex {i} exceeds n={n}"),
                        (n is not None and j > n, 2, f"vertex {j} exceeds n={n}"),
                        (i == j, 1, "self-loops are not allowed"),
                        (not np.isfinite(w), 3, f"non-finite weight {line.split()[2]!r}"),
                        (w < 0, 3, "weights must be non-negative"),
                        (pair in seen, 0, f"edge {pair[0]}-{pair[1]} already listed at row "
                                          f"{seen.get(pair)}")):
                    if failed:
                        return ParseError(row, col, message)
                seen[pair] = row


def _bad_edge_line(row: int, line: str) -> ParseError:
    """The ParseError of a line that ``parse_text`` does not read as one edge."""
    tokens = line.split()
    if len(tokens) == 3:
        for col, token in enumerate(tokens, 1):
            if parse_text([token], _EDGE_FIELDS[col - 1]) is None:
                return ParseError(row, col, f"bad weight {token!r}" if col == 3
                                  else f"bad vertex index {token!r}")
    return ParseError(row, 0, "expected 'i j w'")


def parse_text(lines, dtype, delimiter: str | None = None,
               quotechar: str | None = None) -> np.ndarray | None:
    """``lines`` (a text file or a list of lines) read by numpy's C reader; None if rejected.

    One row per line that is not blank, ``delimiter`` None splitting on
    whitespace; no such line gives an empty array.  This is the loaders' one
    grammar: fields may carry surrounding whitespace (a no-break space too),
    quotes (``quotechar``), a sign and leading zeros, and floats an exponent
    or ``inf``/``nan``; not ``_`` separators, non-ASCII digits, or a float
    token for an integer.  Any other warning of loadtxt is a rejection.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                              ndmin=2, quotechar=quotechar)
        except (ValueError, Warning):
            return None


def save_edge_list(g: GraphSpec, path) -> None:
    """Write the positive-weight edges as 1-based ``i j w`` lines."""
    w = g.weights
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = np.nonzero(np.triu(w, k=1))
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(w[i, j])!r}\n")
