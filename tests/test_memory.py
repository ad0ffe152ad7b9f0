"""Memory budgets of the protocol's fits, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of one
``run`` counts the n x n matrices a fit holds at once (LAPACK's own
workspace is not traced).  The budget is 2.5 such matrices: the kernel or
graph matrix and one system matrix, with room for vectors and the u x m
pseudo-target tables, but not for a third n x n array.  A graph built from
a Gaussian affinity or an edge list forms its Laplacian in the buffer of
its weights, so building it holds one n x n array; its solvers check that
Laplacian's diagonal alone, where an overflowing degree still shows.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from stabreg import NonFiniteMatrix, QuadraticSystem, gaussian_affinity, load_edge_list
from stabreg.cli import main
from stabreg.graph import GraphSpec, is_connected, save_edge_list

N = 506  # the protocol benchmark's size


@pytest.fixture(scope="module")
def protocol_inputs(tmp_path_factory):
    """A housing-like CSV of N rows and the symmetric 10-NN edge list of its points."""
    root = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(20)
    x = rng.normal(size=(N, 13))
    y = 22.0 + 6.0 * np.tanh(x[:, 0]) - 4.0 * x[:, 1] + rng.normal(scale=1.5, size=N)
    data = root / "data.csv"
    rows = [",".join([f"f{i}" for i in range(13)] + ["target"])]
    rows += [",".join(f"{v:.10f}" for v in (*row, t)) for row, t in zip(x, y)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    pts = (x - x.mean(axis=0)) / x.std(axis=0)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros((N, N), dtype=bool)
    adj[np.repeat(np.arange(N), 10), np.argsort(d2, axis=1)[:, :10].ravel()] = True
    adj |= adj.T
    graph = GraphSpec(weights=np.where(adj, np.exp(-d2 / (2.0 * np.median(d2[adj]))), 0.0))
    assert is_connected(graph)
    edges = root / "knn10.txt"
    save_edge_list(graph, edges)
    return str(data), str(edges)


def _traced_peak(argv: list[str]) -> int:
    """Bytes of the traced peak of one ``stabreg`` call, after an untraced warm-up call."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # imports and first-use work stay out of the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("algorithm, extra, on_graph", [
    ("krr", [], False),
    ("ltr", ["--radius", "1,2,3,4,5,6", "--C-prime", "1", "--weighting", "inverse-distance"],
     False),
    ("gmf", [], True),
    ("laplacian", [], True),
])
def test_a_run_holds_at_most_two_and_a_half_n_by_n_matrices(protocol_inputs, algorithm, extra,
                                                             on_graph):
    data, edges = protocol_inputs
    argv = ["run", "--data", data, "--target-scale", "0.02", "--partitions", "2",
            "--algorithm", algorithm, *extra, *(["--graph", edges] if on_graph else [])]
    peak = _traced_peak(argv)
    assert peak <= 2.5 * N * N * 8, f"{peak / (N * N * 8):.2f} n x n matrices"


def test_a_graph_from_an_affinity_or_an_edge_list_holds_one_n_by_n_array(protocol_inputs):
    # the Laplacian is formed in the buffer of the weights, not next to them
    _, edges = protocol_inputs
    points = np.random.default_rng(20).normal(size=(N, 13))
    for build in (lambda: gaussian_affinity(points, 3.0), lambda: load_edge_list(edges, n=N)):
        build()  # first-use work stays out of the trace
        tracemalloc.start()
        try:
            graph = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n == N
        assert peak <= 1.5 * N * N * 8, f"{peak / (N * N * 8):.2f} n x n matrices"


def test_an_overflowing_degree_still_fails_every_graph_solver(tmp_path):
    # only the Laplacian's diagonal is checked, and the degrees live there
    path = tmp_path / "huge.txt"
    path.write_text("1 2 1e308\n1 3 1e308\n2 3 1.0\n")
    g = load_edge_list(path)
    assert np.isinf(g.L[0, 0]) and np.isfinite(g.L[1:, 1:]).all()
    with pytest.raises(NonFiniteMatrix):
        QuadraticSystem(g, np.ones(3))
    with pytest.raises(NonFiniteMatrix):
        QuadraticSystem(g)
    with pytest.raises(NonFiniteMatrix):
        g.L_eigenvalues
