"""Graph containers, Laplacians, spectra, pseudo-inverse, and edge-list IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabreg import (
    GraphDisconnected,
    GraphSpec,
    NonFiniteMatrix,
    NotSymmetric,
    ParseError,
    ZeroDegreeVertex,
    ZeroRowSum,
    diameter,
    gaussian_affinity,
    is_connected,
    laplacian,
    load_edge_list,
    normalized_laplacian,
    pseudo_inverse,
    row_normalize,
    save_edge_list,
    spectrum,
)
from stabreg.graph import _bfs_levels, _check_symmetric, sq_distances


def path_graph(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return GraphSpec(weights=w)


def complete_graph(n):
    return GraphSpec(weights=np.ones((n, n)) - np.eye(n))


def random_connected(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = np.triu(w, 1)
    w = w + w.T
    return GraphSpec(weights=w)


# ---------------------------------------------------------------------------
# GraphSpec validation


def test_graph_spec_rejects_asymmetry():
    w = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NotSymmetric):
        GraphSpec(weights=w)


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_graph_spec_rejects_non_finite_weights(weight):
    # a NaN used to fail the symmetry test instead, and an infinity passed
    with pytest.raises(NonFiniteMatrix):
        GraphSpec(weights=np.array([[0.0, weight], [weight, 0.0]]))


def test_graph_spec_rejects_negative_weights():
    w = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        GraphSpec(weights=w)


def test_graph_spec_rejects_self_loops():
    w = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        GraphSpec(weights=w)


def test_graph_spec_rejects_empty_graph():
    with pytest.raises(ValueError, match="at least one vertex"):
        GraphSpec(weights=np.zeros((0, 0)))


def test_graph_spec_is_read_only():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


# ---------------------------------------------------------------------------
# Laplacians: frozen spectra from hand computation


def test_path3_laplacian_matrix_and_spectrum():
    lap = laplacian(path_graph(3))
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(lap, expected)
    # eigenvalues of the 3-path Laplacian are exactly {0, 1, 3}
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 1.0, 3.0], atol=1e-12)


def test_complete4_laplacian_spectrum():
    lap = laplacian(complete_graph(4))
    # K_n has eigenvalues {0, n, ..., n}
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 4.0, 4.0, 4.0], atol=1e-12)


def test_complete4_normalized_laplacian_spectrum():
    norm = normalized_laplacian(complete_graph(4))
    # normalized K_n has eigenvalues {0, n/(n-1), ...}
    assert np.allclose(np.linalg.eigvalsh(norm), [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)


def test_normalized_laplacian_rejects_isolated_vertex():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(ZeroDegreeVertex):
        normalized_laplacian(GraphSpec(weights=w))


@given(st.integers(2, 12), st.integers(0, 1000))
@settings(max_examples=40)
def test_laplacian_is_psd_with_ones_null_vector(n, seed):
    rng = np.random.default_rng(seed)
    lap = laplacian(random_connected(n, rng))
    eig = np.linalg.eigvalsh(lap)
    assert eig[0] >= -1e-9
    assert np.allclose(lap @ np.ones(n), 0.0, atol=1e-10)


def test_laplacian_quadratic_form_is_edge_sum():
    rng = np.random.default_rng(7)
    g = random_connected(6, rng)
    lap = laplacian(g)
    h = rng.normal(size=6)
    direct = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            direct += g.weights[i, j] * (h[i] - h[j]) ** 2
    assert h @ lap @ h == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# spectrum summary


def test_spectrum_fields_on_path3():
    summary = spectrum(laplacian(path_graph(3)))
    assert summary.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert summary.lambda2 == pytest.approx(1.0, abs=1e-12)
    assert summary.lambda_max == pytest.approx(3.0, abs=1e-12)


def test_spectrum_without_eigenvector_matches_eigh_eigenvalues():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(30, 30))
    full = np.linalg.eigh(b + b.T)[0]
    values = spectrum(b + b.T)
    for name, want in (("lambda_min", full[0]), ("lambda2", full[1]), ("lambda_max", full[-1])):
        assert getattr(values, name) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# pseudo-inverse


def test_pseudo_inverse_single_edge_frozen():
    lap = laplacian(path_graph(2))
    pinv = pseudo_inverse(lap)
    assert np.allclose(pinv, np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-12)


@given(st.integers(2, 10), st.integers(0, 500))
@settings(max_examples=40)
def test_pseudo_inverse_moore_penrose(n, seed):
    rng = np.random.default_rng(seed)
    lap = laplacian(random_connected(n, rng))
    pinv = pseudo_inverse(lap)
    assert np.allclose(lap @ pinv @ lap, lap, atol=1e-8)
    assert np.allclose(pinv @ lap @ pinv, pinv, atol=1e-8)
    assert np.allclose(lap @ pinv, (lap @ pinv).T, atol=1e-8)
    assert np.allclose(pinv @ lap, (pinv @ lap).T, atol=1e-8)


def test_pseudo_inverse_matches_numpy_on_laplacians():
    rng = np.random.default_rng(11)
    lap = laplacian(random_connected(7, rng))
    assert np.allclose(pseudo_inverse(lap), np.linalg.pinv(lap), atol=1e-9)


def test_pseudo_inverse_of_zero_matrix_is_zero():
    assert np.allclose(pseudo_inverse(np.zeros((3, 3))), 0.0)


def test_pseudo_inverse_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        pseudo_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# connectivity and diameter


def test_path_graph_diameter_and_connectivity():
    g = path_graph(5)
    assert is_connected(g)
    assert diameter(g) == 4


def test_complete_graph_diameter_is_one():
    assert diameter(complete_graph(6)) == 1


def test_complete_graph_minus_one_edge_has_diameter_two():
    # one missing edge is the boundary of the all-positive-weights shortcut
    w = np.ones((6, 6)) - np.eye(6)
    w[1, 4] = w[4, 1] = 0.0
    assert diameter(GraphSpec(weights=w)) == 2


def test_disconnected_graph_detected():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = GraphSpec(weights=w)
    assert not is_connected(g)
    with pytest.raises(GraphDisconnected):
        diameter(g)


def test_diameter_ignores_edge_weights():
    # hop metric: heavy edges count the same as light ones
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 100.0
    w[1, 2] = w[2, 1] = 0.001
    assert diameter(GraphSpec(weights=w)) == 2


def _per_source_diameter(g):
    """Reference: one BFS per source, the worst eccentricity."""
    if g.n == 1:
        return 0
    adj = g.weights > 0
    worst = 0
    for source in range(g.n):
        dist = _bfs_levels(adj, source)
        if (dist < 0).any():
            raise GraphDisconnected("disconnected")
        worst = max(worst, int(dist.max()))
    return worst


def _diameter_or_disconnected(fn, g):
    try:
        return fn(g)
    except GraphDisconnected:
        return "disconnected"


def _random_graph(n, seed):
    # edge density around the connectivity threshold log(n)/n, so that both
    # connected graphs of several hops and disconnected ones come up
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 3.0) * np.log(n + 1) / n
    w = np.triu(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < p), 1)
    return GraphSpec(weights=w + w.T)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 33, 63, 64, 65, 100, 127, 128, 129, 130])
def test_diameter_matches_per_source_bfs_on_random_graphs(n):
    for seed in range(6):
        g = _random_graph(n, 1000 * n + seed)
        assert _diameter_or_disconnected(diameter, g) == _diameter_or_disconnected(
            _per_source_diameter, g
        ), seed


def _star(n):
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0
    return w


def _near_complete(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.random((n, n)) > 0.01, 1).astype(float)
    return w + w.T


def _complete_minus_one_edge(n):
    w = np.ones((n, n)) - np.eye(n)
    w[0, n - 1] = w[n - 1, 0] = 0.0
    return w


def _isolated_vertex(n):
    w = path_graph(n).weights.copy()
    w[n - 1, n - 2] = w[n - 2, n - 1] = 0.0
    return w


@pytest.mark.parametrize(
    "weights, expected",
    [
        (np.zeros((2, 2)), "disconnected"),
        (_isolated_vertex(70), "disconnected"),
        (path_graph(70).weights, 69),
        (path_graph(129).weights, 128),
        (_star(65), 2),
        (_complete_minus_one_edge(64), 2),
        (_near_complete(600, 0), 2),
    ],
    ids=["two-isolated", "isolated-vertex", "path-70", "path-129", "star-65",
         "complete-minus-edge-64", "near-complete-600"],
)
def test_diameter_matches_per_source_bfs_on_shaped_graphs(weights, expected):
    g = GraphSpec(weights=weights)
    assert _diameter_or_disconnected(diameter, g) == expected
    assert _diameter_or_disconnected(_per_source_diameter, g) == expected


# ---------------------------------------------------------------------------
# the symmetric-matrix check


def _symmetrized_by_averaging(mat):
    """Reference: the check without its exact-symmetry shortcut."""
    mat = np.asarray(mat, dtype=np.float64)
    scale = np.max(np.abs(mat), initial=0.0)
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12 * max(scale, 1.0):
        raise NotSymmetric("not symmetric")
    return 0.5 * (mat + mat.T)


def _symmetric(n, seed):
    a = np.random.default_rng(seed).normal(scale=1e3, size=(n, n))
    return a + a.T


@pytest.mark.parametrize("mat", [_symmetric(40, 0), _symmetric(1, 1), np.zeros((0, 0)),
                                 np.array([[2, 1], [1, -0.0]]), np.array([[1, 2], [2, 5]])])
def test_check_symmetric_keeps_exactly_symmetric_input_bit_for_bit(mat):
    out = _check_symmetric(mat)
    assert out.dtype == np.float64
    assert out.tobytes() == _symmetrized_by_averaging(mat).tobytes()


def test_check_symmetric_averages_asymmetry_within_tolerance():
    mat = _symmetric(30, 2)
    mat[3, 7] += 1e-13 * np.max(np.abs(mat))
    out = _check_symmetric(mat)
    assert np.array_equal(out, out.T)
    assert out.tobytes() == _symmetrized_by_averaging(mat).tobytes()


def test_check_symmetric_rejects_asymmetry_beyond_tolerance():
    mat = _symmetric(30, 3)
    mat[3, 7] += 1e-11 * np.max(np.abs(mat))
    with pytest.raises(NotSymmetric):
        _check_symmetric(mat)


# ---------------------------------------------------------------------------
# row normalization and affinities


def test_row_normalize_rows_sum_to_one():
    w = np.array([[0.0, 2.0, 2.0], [1.0, 0.0, 3.0], [5.0, 5.0, 0.0]])
    a = row_normalize(w)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(a[0], [0.0, 0.5, 0.5])


def test_row_normalize_rejects_zero_row():
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    w[1, 0] = 1.0
    with pytest.raises(ZeroRowSum):
        row_normalize(w)


def test_gaussian_affinity_values_and_shape():
    pts = np.array([[0.0], [1.0], [3.0]])
    g = gaussian_affinity(pts, sigma=1.0)
    assert g.weights[0, 1] == pytest.approx(np.exp(-0.5))
    assert g.weights[0, 2] == pytest.approx(np.exp(-4.5))
    assert np.all(np.diagonal(g.weights) == 0.0)
    assert np.array_equal(g.weights, g.weights.T)


def _sq_distances_formula(a, b=None):
    """The expression sq_distances rounds like: (|a_i|^2 + |b_j|^2) - 2 a_i . b_j, clamped."""
    other = a if b is None else b
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(other * other, axis=1)[None, :]
    d2 -= 2.0 * (a @ other.T)
    np.maximum(d2, 0.0, out=d2)
    if b is None:
        np.fill_diagonal(d2, 0.0)
    return d2


_LAYOUTS = {  # a (rows, 13) view of a (2 rows, 26) array
    "c-ordered": lambda base, rows: np.ascontiguousarray(base[:rows, :13]),
    "fortran-ordered": lambda base, rows: np.asfortranarray(base[:rows, :13]),
    "row-strided": lambda base, rows: base[::2, :13][:rows],
    "column-strided": lambda base, rows: base[:rows, ::2],
}


@pytest.mark.parametrize("rows", [1, 7, 300])  # 300 rows span three row blocks
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_sq_distances_is_exactly_symmetric_and_rounds_as_the_formula(layout, rows):
    base = np.random.default_rng(rows).normal(size=(2 * rows, 26)) * 3.0
    a = _LAYOUTS[layout](base, rows)
    d2 = sq_distances(a)
    assert np.array_equal(d2, d2.T)  # GraphSpec requires this of an affinity
    assert np.all(np.diagonal(d2) == 0.0) and np.all(d2 >= 0.0)
    want = _sq_distances_formula(a)
    upper = np.triu_indices(rows, 1)
    # BLAS forms a column-strided a @ a.T with a general product, whose two
    # triangles can differ in the last bit; sq_distances mirrors the upper one
    assert np.array_equal(d2[upper], want[upper])
    if layout != "column-strided":
        assert np.array_equal(d2, want)
    other = _LAYOUTS[layout](base[::-1], max(rows // 2, 1))
    assert np.array_equal(sq_distances(other, a), _sq_distances_formula(other, a))


def test_gaussian_affinity_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_affinity(np.zeros((3, 2)), sigma=0.0)


# ---------------------------------------------------------------------------
# edge-list IO


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = random_connected(6, rng)
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert np.allclose(back.weights, g.weights, atol=1e-12)


def test_load_edge_list_parses_one_based_indices(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 0.5\n2 3 1.5\n")
    g = load_edge_list(path)
    assert g.weights.shape == (3, 3)
    assert g.weights[0, 1] == 0.5
    assert g.weights[1, 2] == 1.5


def test_load_edge_list_skips_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 1.0\n\n\n2 3 2.0\n")
    g = load_edge_list(path)
    assert g.weights[1, 2] == 2.0


def test_load_edge_list_honours_explicit_n(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 1.0\n")
    g = load_edge_list(path, n=5)
    assert g.weights.shape == (5, 5)


def test_load_edge_list_reports_bad_token_position(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 1.0\n1 oops 2.0\n")
    with pytest.raises(ParseError) as exc_info:
        load_edge_list(path)
    assert exc_info.value.row == 2
    assert exc_info.value.column == 2


_EDGE_LIST_ERRORS = {  # id: (text, n, (row, column), message)
    "two-fields": ("1 2 1.0\n1 2\n", None, (2, 0), "expected 'i j w'"),
    "four-fields": ("1 2 1.0\n\n1 2 3 4\n", None, (3, 0), "expected 'i j w'"),
    "bad-i": ("x 2 1.0\n", None, (1, 1), "bad vertex index 'x'"),
    "bad-j": ("1 2.5 1.0\n", None, (1, 2), "bad vertex index '2.5'"),
    "bad-w": ("1 2 w\n", None, (1, 3), "bad weight 'w'"),
    "zero-i": ("0 2 1.0\n", None, (1, 1), "vertex indices are 1-based"),
    "zero-j": ("2 0 1.0\n", None, (1, 1), "vertex indices are 1-based"),
    "i-above-n": ("1 2 1.0\n7 1 1.0\n", 3, (2, 1), "vertex 7 exceeds n=3"),
    "j-above-n": ("1 7 1.0\n", 3, (1, 2), "vertex 7 exceeds n=3"),
    "self-loop": ("1 1 1.0\n", None, (1, 1), "self-loops are not allowed"),
    "non-finite-weight": ("1 2 inf\n", None, (1, 3), "non-finite weight 'inf'"),
    "negative-weight": ("1 2 -1.0\n", None, (1, 3), "weights must be non-negative"),
    "repeated-edge": ("1 2 1.0\n2 3 1.0\n1 2 5.0\n", None, (3, 0),
                      "edge 1-2 already listed at row 1"),
    "repeated-reversed-edge": ("1 2 1.0\n2 3 1.0\n3 2 5.0\n", None, (3, 0),
                               "edge 2-3 already listed at row 2"),
    # the first bad row decides, and within it the first check in line order
    "first-check-of-first-bad-row": ("1 2 1.0\n1 1 -1.0\n0 x\n", None, (2, 1),
                                     "self-loops are not allowed"),
    "earlier-row-first": ("1 2 -1.0\n3 x 1.0\n", None, (1, 3), "weights must be non-negative"),
    "token-before-later-rows": ("1 2 1.0\n3 x y\n0 2 1.0\n", None, (2, 2),
                                "bad vertex index 'x'"),
    "field-count-before-later-rows": ("1 2 1.0\n0 2\n1 1 1.0\n", None, (2, 0),
                                      "expected 'i j w'"),
    "range-before-self-loop": ("2 3 1.0\n9 9 nan\n", 4, (2, 1), "vertex 9 exceeds n=4"),
    "repeat-before-later-bad-row": ("1 2 1.0\n\n2 3 1.0\n2 1 1.0\n1 1 1.0\n", None, (4, 0),
                                    "edge 1-2 already listed at row 1"),
    "bad-row-before-later-repeat": ("1 2 1.0\n\n1 1 1.0\n2 1 1.0\n", None, (3, 1),
                                    "self-loops are not allowed"),
}


@pytest.mark.parametrize("text, n, where, message", list(_EDGE_LIST_ERRORS.values()),
                         ids=list(_EDGE_LIST_ERRORS))
def test_load_edge_list_parse_errors(tmp_path, text, n, where, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as exc_info:
        load_edge_list(path, n=n)
    assert (exc_info.value.row, exc_info.value.column) == where
    assert str(exc_info.value) == f"row {where[0]}, column {where[1]}: {message}"


def test_load_edge_list_skips_a_byte_order_mark(tmp_path):
    # the mark used to be read as part of the first index: "bad vertex index '\ufeff1'"
    path = tmp_path / "g.txt"
    path.write_bytes("1 2 0.5\n2 3 1.5\n".encode("utf-8-sig"))
    g = load_edge_list(path)
    assert g.weights[0, 1] == 0.5 and g.weights[1, 2] == 1.5


def _weights(size, *edges):
    """The (size, size) weight matrix of 1-based ``(i, j, w)`` edges."""
    w = np.zeros((size, size))
    for i, j, x in edges:
        w[i - 1, j - 1] = w[j - 1, i - 1] = x
    return w


def count_reads(monkeypatch, module):
    """A list that records each file ``module`` opens and each ``np.loadtxt`` call, in order."""
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: reads.append("loadtxt") or loadtxt(*a, **k))
    monkeypatch.setattr(module, "open", lambda *a, **k: reads.append("open") or open(*a, **k),
                        raising=False)
    return reads


_PATH3 = _weights(3, (1, 2, 0.5), (2, 3, 1.5))
_EDGE_TOKENIZER_CASES = {  # id: (text, n, the weights it loads, or its error)
    "plain": ("1 2 0.5\n2 3 1.5\n", None, _PATH3),
    "explicit-n": ("1 2 0.5\n2 3 1.5\n", 5, _weights(5, (1, 2, 0.5), (2, 3, 1.5))),
    "crlf": ("1 2 0.5\r\n2 3 1.5\r\n", None, _PATH3),
    "tabs": ("1\t2\t0.5\n2 \t3\t 1.5\n", None, _PATH3),
    "whitespace-only-lines": ("1 2 0.5\n   \n\t\n\n2 3 1.5\n", None, _PATH3),
    "plus-sign": ("+2 1 0.5\n2 3 1.5\n", None, _PATH3),
    "leading-zero": ("01 2 0.5\n2 3 1.5\n", None, _PATH3),
    "zero-weight-exponent": ("1 2 0\n2 3 1.5e-3\n", None, _weights(3, (2, 3, 1.5e-3))),
    "byte-order-mark": ("\ufeff1 2 0.5\n2 3 1.5\n", None, _PATH3),
    "empty": ("", 3, _weights(3)),
    "blank-only": ("\n  \n", 3, _weights(3)),
    # spellings only Python's int and float accept; they loaded before numpy's
    # grammar was the only one
    "underscore": ("1_0 2 0.5\n2 3 1.5\n", None, (1, 1, "bad vertex index '1_0'")),
    "arabic-digit": ("\u0663 2 0.5\n2 1 1.5\n", None, (1, 1, "bad vertex index '\u0663'")),
    "byte-order-mark-underscore": ("\ufeff1 2 0.5\n2 3 1_5\n", None, (2, 3, "bad weight '1_5'")),
    "float-index": ("2.0 1 0.5\n", None, (1, 1, "bad vertex index '2.0'")),
    "two-fields": ("1 2 0.5\n2 3\n", None, (2, 0, "expected 'i j w'")),
    "comma-separated": ("1,2,0.5\n", None, (1, 0, "expected 'i j w'")),
    "index-above-n": ("1 2 0.5\n2 7 1.5\n", 3, (2, 2, "vertex 7 exceeds n=3")),
    # read "vertex 99999999999999999999 exceeds n=3" while Python's int read indices
    "index-past-int64": ("99999999999999999999 2 0.5\n", 3,
                         (1, 1, "bad vertex index '99999999999999999999'")),
    "zero-index": ("0 2 0.5\n", None, (1, 1, "vertex indices are 1-based")),
    "self-loop": ("1 2 0.5\n2 2 1.5\n", None, (2, 1, "self-loops are not allowed")),
    "negative-weight": ("1 2 -0.5\n", None, (1, 3, "weights must be non-negative")),
    "nan-weight": ("1 2 nan\n", None, (1, 3, "non-finite weight 'nan'")),
    "overflowing-weight": ("1 2 1e999\n", None, (1, 3, "non-finite weight '1e999'")),
    "repeated-edge": ("1 2 0.5\n\n2 3 1.5\n2 1 0.5\n", None,
                      (4, 0, "edge 1-2 already listed at row 1")),
    "empty-without-n": ("", None, "a graph needs at least one vertex"),  # a ValueError
}


@pytest.mark.parametrize("text, n, outcome", list(_EDGE_TOKENIZER_CASES.values()),
                         ids=list(_EDGE_TOKENIZER_CASES))
def test_load_edge_list_reads_alike_with_either_tokenizer(tmp_path, monkeypatch, text, n, outcome):
    # numpy's C reader is the one tokenizer: a file loads its graph, read by one
    # np.loadtxt call and opened once, or raises at its first bad row
    from stabreg import graph as graph_module

    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{outcome}$"):
            load_edge_list(path, n=n)
    elif isinstance(outcome, tuple):
        with pytest.raises(ParseError) as exc_info:
            load_edge_list(path, n=n)
        row, column, message = outcome
        assert (exc_info.value.row, exc_info.value.column) == (row, column)
        assert str(exc_info.value) == f"row {row}, column {column}: {message}"
    else:
        reads = count_reads(monkeypatch, graph_module)
        assert np.array_equal(load_edge_list(path, n=n).weights, outcome)
        assert reads == ["open", "loadtxt"]


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_load_edge_list_rejects_non_finite_weight(tmp_path, weight):
    path = tmp_path / "g.txt"
    path.write_text(f"2 3 1.0\n1 2 {weight}\n")
    with pytest.raises(ParseError) as exc_info:
        load_edge_list(path)
    assert (exc_info.value.row, exc_info.value.column) == (2, 3)


@pytest.mark.parametrize("repeat", ["1 2 5.0", "2 1 5.0", "2 1 1.0"])
def test_load_edge_list_rejects_repeated_edge(tmp_path, repeat):
    path = tmp_path / "g.txt"
    path.write_text(f"1 2 1.0\n2 3 1.0\n\n{repeat}\n")
    with pytest.raises(ParseError, match="already listed at row 1") as exc_info:
        load_edge_list(path)
    assert (exc_info.value.row, exc_info.value.column) == (4, 0)


def test_graph_keeps_its_laplacian_eigenvalues_and_diameter(monkeypatch):
    from stabreg import graph as graph_module

    calls = []

    def counted(name):
        original = getattr(graph_module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("laplacian", "spectrum", "diameter"):
        monkeypatch.setattr(graph_module, name, counted(name))
    g = path_graph(6)
    lap = g.L  # built with the graph, which stores nothing else
    for _ in range(2):
        assert g.L is lap
        assert np.array_equal(g.L, laplacian(path_graph(6)))
        assert g.L_eigenvalues == spectrum(laplacian(path_graph(6)))
        assert g.hop_diameter == 5
    assert sorted(calls) == ["diameter", "spectrum"]
    assert not g.L.flags.writeable


# ---------------------------------------------------------------------------
# a graph stores only its Laplacian, and gives the rest back bit for bit


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _laplacian_of_weights(w):
    """Reference: D - W computed from the weights, as the graph did when it kept them."""
    lap = np.subtract(0.0, w)
    with np.errstate(over="ignore"):
        np.fill_diagonal(lap, w.sum(axis=1) - np.diagonal(w))
    return lap


def _per_source_levels(w):
    """Reference: (connected, diameter or "disconnected") from one BFS per source over w > 0."""
    n = w.shape[0]
    levels = [_bfs_levels(w > 0, source) for source in range(n)]
    connected = bool((levels[0] >= 0).all())
    if n == 1:
        return connected, 0
    if any((dist < 0).any() for dist in levels):
        return connected, "disconnected"
    return connected, max(int(dist.max()) for dist in levels)


_WEIGHT = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300),  # subnormal and tiny
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e300, max_value=1.7976931348623157e308),  # degrees may overflow
)


@st.composite
def _symmetric_weights(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = n * (n - 1) // 2
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = draw(st.lists(_WEIGHT, min_size=pairs, max_size=pairs))
    w = upper + upper.T  # x + 0.0 is x, and 0.0 + 0.0 is +0.0
    return w


@given(_symmetric_weights())
@settings(max_examples=200, deadline=None)
def test_graph_gives_its_weights_and_laplacian_back_bit_for_bit(w):
    g = GraphSpec(weights=w)
    assert np.array_equal(_bits(g.weights), _bits(w))
    assert np.array_equal(_bits(g.L), _bits(_laplacian_of_weights(w)))
    assert not (g.weights.flags.writeable or g.L.flags.writeable)


@given(_symmetric_weights())
@settings(max_examples=200, deadline=None)
def test_connectivity_and_diameter_read_the_same_edges_from_the_laplacian(w):
    g = GraphSpec(weights=w)
    connected, hops = _per_source_levels(w)
    assert is_connected(g) == connected
    assert _diameter_or_disconnected(diameter, g) == hops


@pytest.mark.parametrize("weights", [
    np.zeros((1, 1)),
    np.zeros((3, 3)),
    path_graph(5).weights,
    _isolated_vertex(6),  # a vertex of degree zero
    np.kron(np.eye(2), np.ones((3, 3)) - np.eye(3)),  # two triangles
    _star(6),
    _complete_minus_one_edge(5),
], ids=["one-vertex", "no-edges", "path", "zero-degree", "two-components", "star",
        "complete-minus-edge"])
def test_laplacian_storage_keeps_connectivity_and_diameter(weights):
    g = GraphSpec(weights=weights)
    connected, hops = _per_source_levels(weights)
    assert np.array_equal(_bits(g.L), _bits(_laplacian_of_weights(weights)))
    assert np.array_equal(_bits(laplacian(g)), _bits(g.L)) and laplacian(g).flags.writeable
    assert is_connected(g) == connected
    assert _diameter_or_disconnected(diameter, g) == hops


def test_a_negative_zero_weight_reads_back_as_positive_zero():
    w = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, 2.0], [1.0, 2.0, 0.0]])
    back = GraphSpec(weights=w).weights
    assert np.array_equal(back, w)
    assert not np.signbit(back).any()
