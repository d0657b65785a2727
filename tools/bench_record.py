"""Record the benchmark's end-to-end metrics to ``BENCH_<label>.json``.

Runs ``bench/run.py --trace 0`` as a subprocess on every workload of
``BENCHMARK.json``, for each of ``SEEDS`` at ``--seconds 20``, and
writes ``BENCH_<label>.json`` at the repository root:

    python3 tools/bench_record.py LABEL

The runs go seed by seed, each seed through every workload, so that a slow
spell of the box spreads over all of them. Each run gets a fresh, empty
``PYTHONPYCACHEPREFIX``, so its first import of ``eub`` compiles from
source whatever bytecode the checkout holds, as in a new checkout; a stale
``__pycache__`` can otherwise move ``setup_s`` by 80%.

The file holds the ``env`` of the first run's detail line (versions,
``nproc``, BLAS threads, git sha, ``src_sha256``; every run must agree on
it but for the seed), the seeds and seconds, and per workload: ``correct``
(every run correct), ``failed`` and ``attempted`` (summed over the runs),
the median and interquartile range over the runs of every end-to-end
metric with each run's value, and each run's raw round walls. Quartiles
are ``statistics.quantiles(..., n=4, method="inclusive")``.

Two files are compared by their per-metric medians. Three runs a side show
no win rate, so a change that claims a gain also runs at least ten
``bench/run.py`` pairs of parent and change, alternating which goes first.

Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)
SECONDS = 20.0


def run_once(workload: str, seed: int) -> tuple:
    """One ``bench/run.py --trace 0`` run: its detail line and result line."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list) -> dict:
    """Median and interquartile range of one metric over the runs."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def record() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = {name: [] for name in names}
    env = None
    for seed in SEEDS:
        for name in names:
            detail, result = run_once(name, seed)
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"wall_s {result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            mine = {k: v for k, v in detail["env"].items() if k != "seed"}
            if env is None:
                env = mine
            elif mine != env:
                raise RuntimeError(f"{name} seed {seed} ran in another environment: {mine} != {env}")
            runs[name].append((detail, result))
    workloads = {}
    for name, done in runs.items():
        workloads[name] = {
            "correct": all(result["correct"] for _, result in done),
            "failed": sum(result["failed"] for _, result in done),
            "attempted": sum(result["attempted"] for _, result in done),
            "metrics": {
                metric: dict(unit=unit, **summary([result["metrics"][metric]["value"] for _, result in done]))
                for metric, unit in units.items()
            },
            "raw_round_walls_s": [detail["raw_round_walls_s"] for detail, _ in done],
        }
    return {"env": env, "seeds": list(SEEDS), "seconds": SECONDS, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file, BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not args.label or not all(c.isalnum() or c in "-_." for c in args.label):
        parser.error("the label may hold only letters, digits, '-', '_' and '.'")
    out = ROOT / f"BENCH_{args.label}.json"
    data = dict(label=args.label, **record())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
