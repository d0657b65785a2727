"""Benchmark for eub: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to this
directory, and nothing under ``src/`` is modified. The run sets up the
workload (import, input generation, one warm-up call) several times, then
repeats the workload's round a number of times fixed by ``--seconds``,
checks every output, and prints a detail line followed by the result line
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every other round runs with spans recorded around the calls into each
layer (see tracer.py); the metrics are the per-layer ones plus the tracing
overhead, traced over untraced round time.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): eigvalsh/QR/matmul threads would otherwise
# measure the scheduler of this shared box, and the single-caller loop is
# faster with one. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import OP_SPANS, SAMPLING_METRICS, Tracer, layer_metrics, missing_metrics  # noqa: E402
from workloads import REF_SEED, WORKLOADS, Op, check, haar  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 5

# The box is shared, and its speed swings by up to 2x, both within seconds
# and over minutes; CPU time tracks wall time, so the cause is contention,
# not descheduling. Raw medians of 20-second runs spread by 16-45% from run
# to run. So a fixed load that does not touch eub is timed just before and
# just after every set-up and every operation, and each of those times is
# scaled by CAL_REF_S over the mean of its two load times: it is given in
# seconds on a box that runs the load in CAL_REF_S, which is about the
# reference box when it is undisturbed.
CAL_REF_S = 0.006
PROBE_SAMPLES = 256
PROBE_STREAM = 1 << 40


def import_eub():
    """Import eub afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "eub" or m.startswith("eub.")]:
        del sys.modules[name]
    eub = importlib.import_module("eub")
    importlib.import_module("eub.cli")
    return eub


class Calibration:
    """The fixed load, and measurements bracketed by it.

    The load mixes the kinds of work eub does: a Python loop, Philox
    generator construction, small batched QR, and the s-kernel's pattern of
    gathering every 3 x 4 block of a 7 x 7 matrix, forming the Grams and
    taking eigvalsh of the stack. The gather makes the load feel memory
    contention the way the kernels do; without it the per-operation scaling
    left twice the spread on large-n-report.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._z = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self._u = rng.standard_normal((1, 7, 7)) + 1j * rng.standard_normal((1, 7, 7))
        self._rows = np.array(list(itertools.combinations(range(7), 3)))
        self._cols = np.array(list(itertools.combinations(range(7), 4)))
        self.samples = []

    def _load(self):
        t0 = time.perf_counter()
        for _ in range(2):
            np.linalg.qr(self._z)
            np.random.Generator(np.random.Philox(key=7).jumped(3)).standard_normal((4, 4))
            blocks = self._u[:, self._rows[:, None, :, None], self._cols[None, :, None, :]]
            np.linalg.eigvalsh(blocks @ np.conj(np.swapaxes(blocks, -1, -2)))
            acc = 0
            for i in range(2000):
                acc += i * i
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def measure(self, fn):
        """Return fn(), its wall time, and that time in reference-box seconds."""
        before = self._load()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw, raw * 2.0 * CAL_REF_S / (before + self._load())


def set_up(workload, seed, rounds, cal):
    """Import, generate inputs and warm up, SETUP_REPEATS times.

    Returns the last package and plan, and the median scaled set-up time.
    """

    def once():
        eub = import_eub()
        plan = workload.build(eub, seed, rounds, WORK_DIR)
        workload.warm_up(eub, WORK_DIR)
        return eub, plan

    times = []
    for _ in range(SETUP_REPEATS):
        (eub, plan), _, scaled = cal.measure(once)
        times.append(scaled)
    return eub, plan, statistics.median(times)


def attempt(op, target=None):
    """Run one operation; an exception it raises is returned as its output."""
    try:
        return op.run(target)
    except Exception as exc:  # an operation's failure is data, not a crash
        return exc


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, op, out, require_ref):
        self.attempted += 1
        if isinstance(out, Exception):
            errors = [f"{op.key}: {''.join(traceback.format_exception_only(out)).strip()}"]
        else:
            try:
                errors = check(op, out, self.refs, require_ref)
            except Exception as exc:  # malformed output
                errors = [f"{op.key}: unreadable output ({exc!r})"]
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 10 - len(self.errors))])


def run_rounds(plan, ledger, seed, tracer, cal):
    """Run every round; with a tracer, every odd round is traced.

    Returns, per kind of round, (raw wall, scaled wall, items) for each
    round, where a round's wall time is the sum of its operations'
    latencies; and the scaled latencies of the untraced operations.
    """
    rounds = {"untraced": [], "traced": []}
    latencies = []
    for r, ops in enumerate(plan):
        traced = tracer is not None and r % 2 == 1
        targets = [tracer.wrap(op.target, *OP_SPANS[op.kind]) if traced else None for op in ops]
        if traced:
            tracer.install()
        results = [cal.measure(lambda: attempt(op, target)) for op, target in zip(ops, targets)]
        if traced:
            tracer.uninstall()
        for op, (out, _, scaled) in zip(ops, results):
            ledger.check(op, out, require_ref=(r == 0 and seed == REF_SEED))
            if not traced:
                latencies.append(scaled)
        raw_wall = sum(raw for _, raw, _ in results)
        wall = sum(scaled for _, _, scaled in results)
        rounds["traced" if traced else "untraced"].append((raw_wall, wall, sum(op.items for op in ops)))
    return rounds, latencies


def reference_pass(workload, ledger, seed):
    """On a seed without stored outputs, check round 0 of the reference seed."""
    if seed == REF_SEED:
        return
    eub = sys.modules["eub"]
    for op in workload.build(eub, REF_SEED, 1, WORK_DIR)[0]:
        if op.seeded:
            ledger.check(op, attempt(op), require_ref=True)


def tail(latencies):
    """Highest percentile with at least ten samples above it, and its value."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    return 100.0 * (len(xs) - 10) / len(xs), xs[len(xs) - 11]


def probe_ops(eub, seed, missing):
    """Calls that reach the layers the workload never calls."""
    ops = []
    for n in (3, 4, 5, 6):
        if f"submatrices.batch_us_per_matrix.n{n}" in missing or (n == 3 and missing & SAMPLING_METRICS):
            rng = eub.RngSeed(seed, PROBE_STREAM + n)
            ops.append(Op(f"probe/beat_rate/n{n}", "beat_rate", eub.beat_rate, (n, PROBE_SAMPLES, rng), 0, True))
    for dim, name in ((3, "single_us.N3"), (8, "single_ms.N8"), (9, "single_ms.N9"), (10, "single_ms.N10")):
        if f"submatrices.{name}" in missing:
            u = haar(dim, np.random.default_rng([seed, PROBE_STREAM, dim]))
            ops.append(Op(f"probe/single/N{dim}", "single", eub.s_coefficients, (u,), 0, True))
    if any(not name.startswith("submatrices.") for name in missing - SAMPLING_METRICS):
        argv = ["scan", "--grid-step", "0.05"]
        ops.append(Op("probe/scan", "cli", eub.cli.main, (argv,), 0, True))
    return ops


def per_layer(eub, workload, seed, tracer, rounds):
    """Per-layer metrics; layers the workload never reaches are probed."""
    probe = Tracer()
    missing = missing_metrics(tracer.spans)
    probe.install()
    try:
        for op in probe_ops(eub, seed, missing):
            out = op.run(probe.wrap(op.target, *OP_SPANS[op.kind]))
            if op.kind == "cli" and out[0] != 0:
                raise RuntimeError(f"{op.key} exited {out[0]}")
    finally:
        probe.uninstall()
    metrics, probed = layer_metrics(tracer.spans, probe.spans)
    traced = statistics.median(wall for _, wall, _ in rounds["traced"])
    overhead = traced / statistics.median(wall for _, wall, _ in rounds["untraced"]) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    trace_file = WORK_DIR / f"trace-{workload.name}-{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "probe_spans": probe.spans}, fh, separators=(",", ":"))
    return metrics, probed, trace_file


def _openblas():
    """Runtime OpenBLAS configuration string and thread count, if loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return config().decode(), threads()
    return None, None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    openblas, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": threads,
        "blas_threads_cap": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eub" / "__init__.py").is_file():
        print(f"error: no eub package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        refs = json.load(fh)
    WORK_DIR.mkdir(exist_ok=True)

    rounds = workload.rounds(args.seconds)
    if args.trace:
        rounds = max(2, rounds)
    cal = Calibration()
    eub, plan, setup_s = set_up(workload, args.seed, rounds, cal)
    ledger = Ledger(refs)
    tracer = Tracer() if args.trace else None
    round_walls, latencies = run_rounds(plan, ledger, args.seed, tracer, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_pass(workload, ledger, args.seed)

    pct, tail_s = tail(latencies)
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(plan[0]),
        "op_samples": len(latencies),
        "op_tail_percentile": pct,
        "raw_round_walls_s": [raw for raw, _, _ in round_walls["untraced"]],
        "calibration_load_ms": 1e3 * statistics.median(cal.samples),
        "error_rate": ledger.failed / ledger.attempted,
        "errors": ledger.errors,
        "env": environment(args.seed),
    }
    if args.trace:
        metrics, probed, trace_file = per_layer(eub, workload, args.seed, tracer, round_walls)
        detail["probed_metrics"] = probed
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        untraced = round_walls["untraced"]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(wall for _, wall, _ in untraced), "unit": "s"},
            "items_per_s": {"value": statistics.median(items / wall for _, wall, items in untraced), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(detail))
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
