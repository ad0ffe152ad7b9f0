"""Partition-protocol benchmark for stabreg.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 56 --trace 0

Each invocation runs one workload in this fresh process as a closed loop
with a single caller: an op starts when the previous one returns.  stabreg
is driven from outside, through ``stabreg.cli.main([...])`` in-process for
``run`` and ``stability --empirical`` and through
``stabreg.bounds.concentration_harness`` for the Monte-Carlo harness.  The
inputs are generated from ``--seed``; the program sees only the generated
CSV and edge-list files.  Every op's output is checked.

Phases: set-up (``setup_reps`` repetitions of a cold start, input
generation and one warm-up op; ``setup_s`` is the median repetition), for
the protocol workload a check of every op kind against
``reference.json`` (which also warms every kind up), then complete cycles of
the workload's ops until ``--seconds`` have passed.  With ``--trace 1`` the
window is split: the first half runs untraced, the second half under
``tracing.Tracer``, and the per-layer metrics come from the traced half; the
difference between the two halves' median op time is the tracing overhead.

Stdout carries one ``env`` line, one ``metric <name> <value> <unit>`` line
per metric, and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).

``--size`` picks the problem sizes: ``bench`` (the default, sized so that
every op finishes well inside a run), ``tiny`` (the smoke test) and
``paper`` (n=2000 protocol inputs, n=300 swap inputs, 100,000 Monte-Carlo
trials; minutes per run, for reproducing the single-run profile numbers).
"""

from __future__ import annotations

import os
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

NPROC = len(os.sched_getaffinity(0))
# Fixed before numpy loads: OpenBLAS reads it once, at library load time.
# One thread keeps each run a single-threaded chain: no BLAS worker spins on
# the other core, so a busy neighbour on the host slows one thread, not a
# barrier that waits for two.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

REF_SEED = 20  # fixture seed of the acceptance suite's housing-like data
REF_RTOL = 1e-10

SIZES = {
    "bench": dict(protocol_n=506, partitions=2, swap_n=80, mc_trials=20_000,
                  median_trials=2_000, setup_reps=5),
    "tiny": dict(protocol_n=40, partitions=2, swap_n=30, mc_trials=500,
                 median_trials=50, setup_reps=1),
    "paper": dict(protocol_n=2000, partitions=2, swap_n=300, mc_trials=100_000,
                  median_trials=2_000, setup_reps=1),
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class OpKind:
    """One kind of op in a workload's cycle.

    ``call(op_seed)`` is the timed part; ``check(raw)`` validates its output
    and returns (work units done, 1 if the op's printed bound was violated).
    ``unit`` names the work unit, which names the rate metric
    (``<unit>_per_s``).
    """

    label: str
    call: Callable[[int], object]
    check: Callable[[object], tuple[int, int]]
    unit: str


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _alpha(m: int, u: int) -> float:
    """alpha(m, u), written out here so the harness's bound is checked independently."""
    return (m * u) / (m + u - 0.5) / (1.0 - 1.0 / (2.0 * max(m, u)))


# ---------------------------------------------------------------------------
# stabreg entry points


def cli_call(argv: list[str]) -> str:
    """Run ``stabreg.cli.main(argv)`` in-process and return what it printed."""
    from stabreg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)  # looked up per call, so a traced wrapper is seen
    if rc != 0:
        raise CheckFailed(f"stabreg {argv[0]} exited with {rc}")
    return buf.getvalue()


def check_protocol(partitions: int):
    def check(text: str) -> tuple[int, int]:
        records = json.loads(text)["records"]
        if len(records) != partitions:
            raise CheckFailed(f"{len(records)} records, expected {partitions}")
        for rec in records:
            for key in ("train_mse", "test_mse", "sigma"):
                if not _finite(rec.get(key)):
                    raise CheckFailed(f"record {rec.get('seed')}: {key}={rec.get(key)!r}")
        return partitions, 0
    return check


def check_stability(text: str) -> tuple[int, int]:
    out = json.loads(text)
    emp = out["empirical"]
    total = out["m"] * out["u"]
    evaluated = emp["swaps_evaluated"]
    consistent = (
        (emp["mode"] == "exhaustive" and evaluated == total)
        or (emp["mode"] == "sampled" and 0 < evaluated < total)
    )
    if not consistent:
        raise CheckFailed(f"{evaluated} of {total} swaps in mode {emp['mode']!r}")
    for key in ("max_score_delta", "max_cost_delta"):
        if not (_finite(emp[key]) and emp[key] >= 0):
            raise CheckFailed(f"{key}={emp[key]!r}")
    bound = out.get("cost_bound")
    bound = math.inf if bound is None else bound
    return evaluated, int(emp["max_cost_delta"] > bound)


# ---------------------------------------------------------------------------
# workloads
#
# Each workload function writes its inputs for one seed and returns its op
# cycle.  Measurement always runs whole cycles, so every kind is equally
# represented in the op-time distribution.  There are two workloads, each
# with long runs: on a shared host the CPU speed can drift by tens of percent
# over tens of seconds, and a run must span several such stretches to be
# repeatable.
# Within a workload the op kinds keep the contrasts that matter (kernel vs
# graph fits, dense vs k-NN graph, swap enumeration vs Monte-Carlo tails);
# the traced run reports each kind's layers separately.


def _protocol_base(csv_path) -> list[str]:
    return ["run", "--data", str(csv_path), "--target-scale", "0.02", "--sigma", "cv"]


def protocol(seed: int, workdir: Path, size: dict) -> list[OpKind]:
    """The partition protocol: fit over partitions, kernel and graph algorithms.

    Chosen because the protocol's own stages do all the work and the swap,
    bound and ``_kernels`` layers do none of it.  Two groups of op kinds:

    * krr and ltr (6-radius sweep): CV sigma, the Gaussian kernel,
      pseudo-targets and the dense kernel solves (ROADMAP item 4: factor
      once, CV sigma once, PSD check once).
    * laplacian, gmf and stabilized-gmf on the dense affinity, laplacian and
      gmf on a fixed 10-NN edge list: graph build, Laplacian, spectrum, BFS
      diameter and the unconstrained, stabilized and KKT solvers.  The dense
      affinity depends on the partition and has diameter 1; the k-NN graph
      is the same for every partition and has a diameter above 1, so a
      diameter shortcut or a cross-partition graph cache shows on one group
      of kinds and not on the other.
    """
    data = workdir / "data.csv"
    features = inputs.housing_like_csv(data, size["protocol_n"], seed)
    edges = workdir / "knn10.txt"
    inputs.knn_edge_list(edges, features, k=10)
    parts = size["partitions"]
    base = _protocol_base(data) + ["--partitions", str(parts)]
    knn = ["--graph", str(edges)]
    variants = {
        "krr": ["--algorithm", "krr"],
        "ltr": ["--algorithm", "ltr", "--radius", "1,2,3,4,5,6", "--C-prime", "1",
                "--weighting", "inverse-distance"],
        "laplacian": ["--algorithm", "laplacian"],
        "gmf": ["--algorithm", "gmf"],
        "stabilized-gmf": ["--algorithm", "stabilized-gmf"],
        "laplacian-knn": ["--algorithm", "laplacian", *knn],
        "gmf-knn": ["--algorithm", "gmf", *knn],
    }
    check = check_protocol(parts)
    return [
        OpKind(label, lambda s, extra=extra: cli_call(base + extra + ["--seed", str(s)]), check,
               "partitions")
        for label, extra in variants.items()
    ]


def bound_check(seed: int, workdir: Path, size: dict) -> list[OpKind]:
    """Checking the bounds: sampled swap stability and Monte-Carlo tails.

    Chosen because it uses stabreg the opposite way from the protocol.  The
    swap kinds (``stability --empirical`` for cm, krr, ltr and laplacian)
    solve hundreds of small systems one swap apart, so per-call overhead,
    factorization count and ``enumerate_swaps``/``apply_swap`` set the time,
    not matrix size (ROADMAP item 5, rank-2 updates).  Their laplacian kind
    measures a cost movement above the printed bound (ROADMAP item 1); that
    shows up as ``bound_violations`` and must not be hidden by the choice
    of inputs.  The Monte-Carlo kinds are the only ops where ``bounds`` and
    ``_kernels`` do the work: the mean statistic uses the vectorized
    subset-mean kernel (criterion 06's binary population, m=500 of 1000),
    the median statistic the per-trial ``partition_keys`` loop.
    """
    from stabreg import bounds  # harness looked up per call, so a traced wrapper is seen

    data = workdir / "data.csv"
    inputs.housing_like_csv(data, size["swap_n"], seed)
    base = ["stability", "--empirical", "--data", str(data), "--target-scale", "0.02"]
    variants = {
        "swap-cm": ["--algorithm", "cm"],
        "swap-krr": ["--algorithm", "krr"],
        "swap-ltr": ["--algorithm", "ltr", "--radius", "4", "--C-prime", "1",
                     "--weighting", "inverse-distance"],
        "swap-laplacian": ["--algorithm", "laplacian"],
    }
    kinds = [
        OpKind(label, lambda s, extra=extra: cli_call(base + extra + ["--seed", str(s)]),
               check_stability, "swaps")
        for label, extra in variants.items()
    ]

    binary = np.repeat([0.0, 1.0], 500)
    uniform = np.random.default_rng(seed).uniform(size=200)
    trials, median_trials = size["mc_trials"], size["median_trials"]

    def check_tail(pop, m, eps, c, n_trials, three_sigma):
        def check(result) -> tuple[int, int]:
            tail, bound = result
            if not 0.0 <= tail <= 1.0:
                raise CheckFailed(f"tail {tail} outside [0, 1]")
            expected = math.exp(-2.0 * eps * eps / (_alpha(m, pop.size - m) * c * c))
            if not math.isclose(bound, expected, rel_tol=1e-12, abs_tol=0.0):
                raise CheckFailed(f"bound {bound!r} != recomputed {expected!r}")
            if three_sigma and tail > bound + 3.0 * math.sqrt(bound * (1.0 - bound) / n_trials):
                raise CheckFailed(f"tail {tail} above bound {bound} + 3 sigma")
            return n_trials, 0
        return check

    for eps in (0.02, 0.05, 0.1):
        c = float(binary.max() - binary.min()) / 500
        kinds.append(OpKind(
            f"mc-mean-eps{eps}",
            lambda s, eps=eps: bounds.concentration_harness(binary, 500, eps, trials, seed=s),
            check_tail(binary, 500, eps, c, trials, three_sigma=True),
            "mc_trials",
        ))
    kinds.append(OpKind(
        "mc-median",
        lambda s: bounds.concentration_harness(uniform, 100, 0.05, median_trials, seed=s,
                                               phi=np.median, c=1.0),
        check_tail(uniform, 100, 0.05, 1.0, median_trials, three_sigma=False),
        "mc_trials",
    ))
    return kinds


WORKLOADS = {
    "protocol": protocol,
    "bound-check": bound_check,
}


# ---------------------------------------------------------------------------
# reference answers


def reference_answers(size: dict, workdir: Path) -> dict[str, list[float]]:
    """test_mse per record of every protocol op kind, on the reference input (master seed 0)."""
    answers = {}
    for kind in protocol(REF_SEED, workdir, size):
        records = json.loads(kind.call(0))["records"]
        answers[f"protocol/{kind.label}/n={size['protocol_n']}"] = [
            r["test_mse"] for r in records
        ]
    return answers


def check_reference(size: dict, workdir: Path) -> None:
    expected = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    for key, got in reference_answers(size, workdir).items():
        want = expected.get(key)
        if want is None:
            raise CheckFailed(f"no reference answer for {key} in {REFERENCE_PATH.name}")
        if len(got) != len(want) or not all(
            _finite(g) and math.isclose(g, w, rel_tol=REF_RTOL, abs_tol=0.0)
            for g, w in zip(got, want)
        ):
            raise CheckFailed(f"{key}: test_mse {got} differs from reference {want}")


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Window:
    kind_times: dict[str, list[float]]
    cycle_walls: list[float]
    work: dict[str, int]  # per work unit
    violations: int
    attempted: int
    failed: int


# Op i of a run passes op_seed(seed, i) to the program, so no two ops of a
# run, warm-up included, repeat the same partitions.
TRACED_FIRST_OP = 500_000
WARMUP_FIRST_OP = 900_000


def op_seed(seed: int, op: int) -> int:
    return seed * 1_000_000 + op


def _report_failure(label: str) -> None:
    print(f"perfbench: op {label} failed", file=sys.stderr)
    traceback.print_exc(limit=4, file=sys.stderr)


def run_window(kinds: list[OpKind], seconds: float, seed: int, first_op: int,
               tracer: Tracer | None = None) -> Window:
    """Run whole cycles of ``kinds`` until ``seconds`` have passed."""
    win = Window({kind.label: [] for kind in kinds}, [], {kind.unit: 0 for kind in kinds},
                 0, 0, 0)
    op = first_op
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for kind in kinds:
            win.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    raw = kind.call(op_seed(seed, op))
                else:
                    raw = tracer.op(op, kind.call, op_seed(seed, op))
                win.kind_times[kind.label].append(time.perf_counter() - t0)
                work, violated = kind.check(raw)
            except (Exception, SystemExit):  # an op failure must not end the run
                win.failed += 1
                _report_failure(kind.label)
            else:
                win.work[kind.unit] += work
                win.violations += violated
            op += 1
        now = time.perf_counter()
        win.cycle_walls.append(now - cycle_start)
        if now - start >= seconds:
            break
    return win


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: (value, level %)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(workload: str, seed: int, size_name: str) -> dict:
    from stabreg import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_path": "numba" if _kernels.numba_enabled() else "numpy",
    }


def git_commit() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_stabreg() -> None:
    """Import stabreg from this checkout's src/, or exit non-zero."""
    if not (SRC / "stabreg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stabreg sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def cold_start() -> None:
    """Start a fresh interpreter that imports stabreg's CLI, as every user's process does.

    Timed inside each set-up repetition, so that the import cost is a median
    of several cold starts rather than the one this process paid.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-B", "-c", "import stabreg.cli"], env=env, check=True)


def setup(workload: str, seed: int, size: dict, workdir: Path) -> tuple[list[OpKind], list[float], int, int]:
    """Cold-start, generate inputs and run one warm-up op ``setup_reps`` times; time each.

    The protocol workload then runs every op kind on the reference input
    and compares its answers with ``reference.json``; that check is not part
    of the repetition times.  Returns the measured workload's cycle, the
    repetition times and the (attempted, failed) op counts.
    """
    times, attempted, failed = [], 0, 0
    kinds: list[OpKind] = []
    for rep in range(size["setup_reps"]):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        t0 = time.perf_counter()
        cold_start()
        kinds = WORKLOADS[workload](seed, rep_dir, size)
        attempted += 1
        try:
            kinds[0].check(kinds[0].call(op_seed(seed, WARMUP_FIRST_OP + rep)))
        except (Exception, SystemExit):
            failed += 1
            _report_failure(f"{kinds[0].label} (warm-up)")
        times.append(time.perf_counter() - t0)
    if workload == "protocol":
        attempted += len(kinds)
        ref_dir = workdir / "reference"
        ref_dir.mkdir()
        try:
            check_reference(size, ref_dir)
        except (Exception, SystemExit):
            failed += len(kinds)
            _report_failure("reference")
    return kinds, times, attempted, failed


def typical_op_s(win: Window) -> float:
    """The median op time of each op kind, averaged over the kinds."""
    return statistics.fmean(statistics.median(t) for t in win.kind_times.values())


def end_to_end(win: Window, kinds: list[OpKind], setup_s: float,
               fail_ratio: float) -> list[tuple[str, float, str, bool]]:
    """(name, value, unit, listed in BENCHMARK.json) for every end-to-end metric.

    ``op_s.p50`` is ``typical_op_s``: the kinds of a cycle differ in cost
    by up to 4x, and a median over all ops would sit on the boundary
    between two kinds and jump between them from run to run.  ``op_s.tail``
    is taken over all ops, so it reports the slowest kind.  Each work unit's
    rate is its work divided by the time of the ops that did it.
    """
    times = [t for kind_times in win.kind_times.values() for t in kind_times]
    tail_value, level = tail(times)
    unit_time = dict.fromkeys(win.work, 0.0)
    for kind in kinds:
        unit_time[kind.unit] += sum(win.kind_times[kind.label])
    metrics = [
        ("setup_s", setup_s, "s", True),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", True),
        ("op_s.p50", typical_op_s(win), "s", True),
        ("op_s.tail", tail_value, "s", True),
        # per cycle, so that one slow stretch of the machine moves it less
        ("ops_per_s", len(kinds) / statistics.median(win.cycle_walls), "1/s", True),
        ("op_s.tail_level", level, "%", False),
        ("ops", len(times), "count", False),
        *((f"{unit}_per_s", work / unit_time[unit], "1/s", False)
          for unit, work in win.work.items()),
        ("fail_ratio", fail_ratio, "ratio", False),
    ]
    if "swaps" in win.work:
        metrics.append(("bound_violations", win.violations, "count", False))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stabreg partition-protocol benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    args = parser.parse_args(argv)
    size = SIZES[args.size]

    import_stabreg()
    env = environment(args.workload, args.seed, args.size)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        kinds, setup_times, attempted, failed = setup(args.workload, args.seed, size, workdir)
        setup_s = statistics.median(setup_times)
        if args.trace:
            half = args.seconds / 2.0
            plain = run_window(kinds, half, args.seed, 0)
            tracer = Tracer()
            tracer.install()
            try:
                win = run_window(kinds, half, args.seed, TRACED_FIRST_OP, tracer)
            finally:
                tracer.uninstall()
            attempted += plain.attempted
            failed += plain.failed
        else:
            win = run_window(kinds, args.seconds, args.seed, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += win.attempted
    failed += win.failed

    print("env " + json.dumps(env, sort_keys=True))
    metrics: dict[str, dict] = {}
    if args.trace:
        layer = tracer.layer_metrics({"bound_violations": win.violations})
        traced, untraced = typical_op_s(win), typical_op_s(plain)
        layer["trace.op_s.p50"] = (traced, "s")
        layer["trace.untraced_op_s.p50"] = (untraced, "s")
        layer["trace.overhead"] = (traced / untraced - 1.0, "ratio")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        for name, (value, unit) in layer.items():
            print(f"metric {name} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, value, unit, gated in end_to_end(win, kinds, setup_s, failed / attempted):
            print(f"metric {name} {value:.6g} {unit}")
            if gated:
                metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
