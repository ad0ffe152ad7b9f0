"""Span tracing of stabreg's layers from outside the library.

stabreg binds names at import (``from .graph import spectrum``), so a
public function is wrapped by rebinding it in every stabreg module that
holds it: ``stabreg.graph.spectrum``, ``stabreg.regressors.spectrum`` and
``stabreg.cli.spectrum`` all point at one wrapper.  ``numpy.linalg`` is
patched at module level, so its calls are seen from every caller (the
cross-validation solves in ``cli`` included).

Each wrapped call appends one span ``[name, start, end, parent, op_id]``
to an in-memory list; spans are written out only at the end of the run.
A span's self time is its duration minus the durations of its direct
children, and the layer of a span is the first component of its name.

Metrics are per op (averaged over the traced ops) unless the unit says
otherwise; ``cli.fit.<kind>.s`` is the median per partition.  The
``<layer>.self_share`` values sum to 1: with one caller and nothing
contending, a faster layer saves at most its share of an op.  ``bench`` is
the benchmark's own time inside an op.  Which end-to-end metric each layer
should move, and where it does (mostly on / about none on), by workload
and op kind:

    cli          ops_per_s, op_s.p50    protocol (krr, ltr) / bound-check (mc-*)
    regressors   ops_per_s, op_s.p50    protocol (krr, ltr), bound-check
                                        (swap-*) / bound-check (mc-*)
    linalg       ops_per_s, op_s.p50    protocol, bound-check (swap-*) /
                                        bound-check (mc-*)
    graph        ops_per_s, peak_rss_mb protocol (laplacian, gmf, *-knn),
                                        bound-check (swap-laplacian) /
                                        protocol (krr, ltr)
    core         ops_per_s              bound-check (swap-*) / protocol
    stability    ops_per_s, op_s.p50    bound-check (swap-*) / protocol
    bounds       ops_per_s              bound-check (mc-*) / protocol
    kernels      ops_per_s              bound-check (mc-*) / protocol

``linalg.flops`` is computed from argument shapes with textbook counts,
not measured.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("bench", "cli", "regressors", "linalg", "graph", "core",
          "stability", "bounds", "kernels")

FIT_KINDS = ("krr", "ltr", "laplacian", "gmf", "stabilized-gmf",
             "laplacian-knn", "gmf-knn")

# (module, function, span name); the cli.fit span is named per algorithm.
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_and_normalize", "cli.load_and_normalize"),
    ("cli", "_resolve_sigma", "cli.resolve_sigma"),
    ("cli", "select_radius", "cli.select_radius"),
    ("cli", "_fit_one", None),
    ("regressors", "gaussian_kernel", "regressors.gaussian_kernel"),
    ("regressors", "pseudo_targets", "regressors.pseudo_targets"),
    ("regressors", "solve_ltr", "regressors.solve_ltr"),
    ("regressors", "solve_krr_induction", "regressors.solve_krr_induction"),
    ("regressors", "solve_unconstrained", "regressors.solve_unconstrained"),
    ("regressors", "stabilize", "regressors.stabilize"),
    ("regressors", "solve_constrained", "regressors.solve_constrained"),
    ("graph", "gaussian_affinity", "graph.gaussian_affinity"),
    ("graph", "load_edge_list", "graph.load_edge_list"),
    ("graph", "laplacian", "graph.laplacian"),
    ("graph", "spectrum", "graph.spectrum"),
    ("graph", "diameter", "graph.diameter"),
    ("graph", "_bfs_levels", "graph.bfs_levels"),
    ("core", "sample_partition", "core.sample_partition"),
    ("core", "enumerate_swaps", "core.enumerate_swaps"),
    ("core", "apply_swap", "core.apply_swap"),
    ("core", "empirical_error", "core.error"),
    ("core", "test_error", "core.error"),
    ("stability", "empirical_stability", "stability.empirical_stability"),
    ("bounds", "concentration_harness", "bounds.concentration_harness"),
    ("bounds", "generalization_bound", "bounds.generalization_bound"),
    ("_kernels", "sample_means_without_replacement", "kernels.sample_means"),
    ("_kernels", "partition_keys", "kernels.partition_keys"),
)

_LINALG = ("solve", "cholesky", "eigh", "eigvalsh")


def _linalg_flops(fn: str, args) -> float:
    """Textbook flop count of one LAPACK call, computed from the shapes."""
    a = np.asarray(args[0])
    n = float(a.shape[-1])
    if fn == "solve":
        b = np.asarray(args[1])
        k = 1.0 if b.ndim == 1 else float(b.shape[-1])
        return 2.0 / 3.0 * n**3 + 2.0 * n * n * k
    if fn == "cholesky":
        return n**3 / 3.0
    if fn == "eigh":
        return 9.0 * n**3
    return 4.0 / 3.0 * n**3  # eigvalsh


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def op(self, op_id: int, fn, *args, **kwargs):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        return self.call("bench.op", fn, *args, **kwargs)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        if name is None:  # cli._fit_one(sample, part, cfg)
            def wrapper(sample, part, cfg):
                kind = cfg.algorithm + ("-knn" if cfg.graph_path else "")
                return self.call(f"cli.fit.{kind}", fn, sample, part, cfg)
        elif name == "stability.empirical_stability":
            def wrapper(solver, sample, part, *args, **kwargs):
                def traced_solver(s, p):
                    return self.call("cli.stability_solver", solver, s, p)
                rep = self.call(name, fn, traced_solver, sample, part, *args, **kwargs)
                self.counters["stability.swaps_evaluated"] += rep.swaps_evaluated
                self.counters["stability.swaps_total"] += part.m * part.u
                return rep
        elif name == "kernels.sample_means":
            def wrapper(values, m, trials, seed):
                self.counters["kernels.sample_means.trials"] += int(trials)
                return self.call(name, fn, values, m, trials, seed)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_linalg(self, fn_name, fn):
        def wrapper(*args, **kwargs):
            self.counters["linalg.flops"] += _linalg_flops(fn_name, args)
            return self.call(f"linalg.{fn_name}", fn, *args, **kwargs)
        return wrapper

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import stabreg
        from stabreg import _kernels, bounds, cli, core, graph, regressors, stability

        by_name = {"cli": cli, "regressors": regressors, "graph": graph, "core": core,
                   "stability": stability, "bounds": bounds, "_kernels": _kernels}
        modules = [stabreg, *by_name.values()]
        for mod_name, fn_name, span_name in _TARGETS:
            original = getattr(by_name[mod_name], fn_name)
            self._rebind(modules, original, self._wrap(span_name, original))
        for fn_name in _LINALG:
            original = getattr(np.linalg, fn_name)
            self._rebind([np.linalg], original, self._wrap_linalg(fn_name, original))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, extra_counts: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each averaged over the traced ops."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        fit_times: dict[str, list[float]] = defaultdict(list)
        op_times = []
        for (name, start, end, _, _), kids in zip(spans, child_time):
            dur = end - start
            own = dur - kids
            calls[name] += 1
            incl[name] += dur
            self_by_name[name] += own
            self_by_layer[name.split(".", 1)[0]] += own
            if name.startswith("cli.fit."):
                fit_times[name[len("cli.fit."):]].append(dur)
            if name == "bench.op":
                op_times.append(dur)
        ops = max(len(op_times), 1)
        total = sum(op_times) or 1.0
        counts = defaultdict(float, {**self.counters, **extra_counts})

        def per_op(value):
            return value / ops

        out: dict[str, tuple[float, str]] = {}

        def timed(name, with_calls=True):
            if with_calls:
                out[f"{name}.calls"] = (per_op(calls[name]), "calls/op")
            out[f"{name}.s"] = (per_op(incl[name]), "s/op")

        timed("cli.load_and_normalize", with_calls=False)
        timed("cli.resolve_sigma")
        timed("cli.select_radius", with_calls=False)
        for kind in FIT_KINDS:
            times = fit_times.get(kind)
            out[f"cli.fit.{kind}.s"] = (statistics.median(times) if times else 0.0, "s/partition")
        for fn in ("gaussian_kernel", "pseudo_targets", "solve_ltr", "solve_krr_induction",
                   "solve_unconstrained", "stabilize", "solve_constrained"):
            timed(f"regressors.{fn}")
        for fn in _LINALG:
            out[f"linalg.{fn}.calls"] = (per_op(calls[f"linalg.{fn}"]), "calls/op")
        out["linalg.flops"] = (per_op(counts["linalg.flops"]) / 1e9, "Gflop_calc/op")
        timed("graph.gaussian_affinity", with_calls=False)
        timed("graph.load_edge_list")
        timed("graph.laplacian")
        timed("graph.spectrum")
        timed("graph.diameter", with_calls=False)
        out["graph.bfs_sweeps"] = (per_op(calls["graph.bfs_levels"]), "calls/op")
        timed("core.sample_partition")
        timed("core.enumerate_swaps", with_calls=False)
        timed("core.apply_swap")
        timed("core.error", with_calls=False)
        out["stability.empirical_stability.self_s"] = (
            per_op(self_by_name["stability.empirical_stability"]), "s/op")
        out["stability.solver_calls"] = (per_op(calls["cli.stability_solver"]), "calls/op")
        evaluated = counts["stability.swaps_evaluated"]
        swaps_total = counts["stability.swaps_total"]
        out["stability.swaps_evaluated"] = (per_op(evaluated), "swaps/op")
        out["stability.swaps_total"] = (per_op(swaps_total), "swaps/op")
        out["stability.swap_coverage"] = (evaluated / swaps_total if swaps_total else 0.0, "ratio")
        out["stability.bound_violation_rate"] = (per_op(counts["bound_violations"]), "ratio")
        out["bounds.concentration_harness.self_s"] = (
            per_op(self_by_name["bounds.concentration_harness"]), "s/op")
        out["bounds.generalization_bound.calls"] = (
            per_op(calls["bounds.generalization_bound"]), "calls/op")
        out["kernels.sample_means.s"] = (per_op(incl["kernels.sample_means"]), "s/op")
        out["kernels.sample_means.trials"] = (
            per_op(counts["kernels.sample_means.trials"]), "trials/op")
        timed("kernels.partition_keys")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per_op(self_by_layer[layer]), "s/op")
            out[f"{layer}.self_share"] = (self_by_layer[layer] / total, "ratio")
        out["trace.ops"] = (float(len(op_times)), "count")
        return out
