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
metric with each run's value, each run's raw round walls, and
``recorded_utc``, the UTC time the last run ended. Quartiles are
``statistics.quantiles(..., n=4, method="inclusive")``. Runs in a checkout
without ``.git``, such as a ``git archive`` copy, report no git sha; such
a record names no commit, so it is refused and no file is written: record
from a ``git clone``.

Two files are compared by their per-metric medians:

    python3 tools/bench_record.py --compare OLD.json NEW.json

prints, per workload and end-to-end metric of ``BENCHMARK.json``, both
medians, the relative change, whether that change is better or worse by the
metric's ``better``, whether it exceeds the IQR of both files, and whether
the new median is worse than the old by more than the metric's ``bound``, a
fraction of the old median: the benchmark's rule for a regression. Above
the table it prints each file's label, git sha and ``recorded_utc``
("unknown" where a file lacks one or holds null, as ``git_sha`` does in a
record made outside a git checkout), and a line saying that medians from
separate sessions give no verdict: the box's speed drifts between
sessions, and only ``--pairs`` runs both sides in one. Files whose ``env``
differs in anything but the git sha, ``src_sha256`` or the seed are
refused.

Three runs a side show no win rate, so a change that claims a gain also
runs pairs of parent and change on one workload:

    python3 tools/bench_record.py --pairs PARENT_CHECKOUT --workload NAME --seed FIRST [--count 10]

runs ``bench/run.py`` of PARENT_CHECKOUT (another checkout, such as a
``git archive`` of the parent commit) and of this checkout, ``--count``
pairs on seeds FIRST, FIRST + 1, ..., alternating which side goes first,
each run as ``record`` runs it. It prints each pair's values of every
end-to-end metric, then per metric both sides' medians and quartiles, the
change of the medians, whether it exceeds the parent's IQR, whether the
change's median is worse than the parent's by more than the metric's
``bound`` (as for ``--compare``), and in how many pairs the change was
better by the metric's ``better`` (ties count for neither side). Runs
whose ``env`` differs in anything but the code keys are refused.

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
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)
SECONDS = 20.0
# env keys that name the code or the draw, not the machine; two files may differ in them
CODE_KEYS = ("git_sha", "src_sha256", "seed")


def run_once(workload: str, seed: int, root: Path = ROOT) -> tuple:
    """One ``bench/run.py --trace 0`` run of the checkout at root: its detail line and result line."""
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list) -> dict:
    """Median and interquartile range of one metric over the runs."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "iqr": q3 - q1, "runs": values}


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record() -> dict:
    spec = load_json(ROOT / "BENCHMARK.json")
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
    recorded = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {"env": env, "seeds": list(SEEDS), "seconds": SECONDS, "recorded_utc": recorded, "workloads": workloads}


def machine(env: dict) -> dict:
    """The keys of a run's ``env`` that name the machine, not the code or the draw."""
    return {k: v for k, v in env.items() if k not in CODE_KEYS}


def quartiles(values: list) -> tuple:
    """First quartile, median and third quartile, as ``summary`` takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def past_bound(metric: dict, old: float, new: float) -> str:
    """Whether ``new`` is worse than ``old`` by more than the metric's ``bound``, a fraction of ``old``: yes or no."""
    worse = new - old if metric["better"] == "lower" else old - new
    return "yes" if worse > metric["bound"] * abs(old) else "no"


def pairs(parent: Path, workload: str, first_seed: int, count: int) -> list:
    """Alternating runs of the parent checkout and this one; the report's lines."""
    spec = load_json(ROOT / "BENCHMARK.json")
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise ValueError(f"no workload {workload!r} in BENCHMARK.json")
    if not (parent / "bench" / "run.py").is_file():
        raise ValueError(f"{parent} holds no bench/run.py")
    metrics = spec["end_to_end"]
    sides = {"parent": parent, "change": ROOT}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    lines, env = [], None
    for i in range(count):
        seed = first_seed + i
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            detail, result = run_once(workload, seed, sides[side])
            if env is None:
                env = machine(detail["env"])
            elif machine(detail["env"]) != env:
                raise RuntimeError(f"{side} seed {seed} ran in another environment: {detail['env']}")
            if not result["correct"] or result["failed"]:
                lines.append(f"seed {seed} {side}: correct {result['correct']}, failed {result['failed']}")
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        pair = ", ".join(f"{m['name']} {values['parent'][m['name']][-1]:.6g} -> {values['change'][m['name']][-1]:.6g}"
                         for m in metrics)
        lines.append(f"pair {i + 1} seed {seed} ({order[0]} first): {pair}")
        print(lines[-1], file=sys.stderr)
    rows = [("metric", "parent q1/median/q3", "change q1/median/q3", "change", "beyond parent IQR", "past bound",
             "change better")]
    for m in metrics:
        old, new = values["parent"][m["name"]], values["change"][m["name"]]
        (a1, a2, a3), (b1, b2, b3) = quartiles(old), quartiles(new)
        wins = sum((b < a) if m["better"] == "lower" else (b > a) for a, b in zip(old, new))
        rows.append((m["name"], f"{a1:.6g} / {a2:.6g} / {a3:.6g}", f"{b1:.6g} / {b2:.6g} / {b3:.6g}",
                     f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a", "yes" if abs(b2 - a2) > a3 - a1 else "no",
                     past_bound(m, a2, b2), f"{wins} of {count}"))
    return lines + [f"{workload}: {count} pairs, seeds {first_seed}-{first_seed + count - 1}"] + table(rows)


def table(rows: list) -> list:
    """Rows of cells as lines of left-aligned columns."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def compare(old: dict, new: dict) -> list:
    """Table rows comparing two records' medians, metric by metric."""
    envs = [machine(rec["env"]) for rec in (old, new)]
    if envs[0] != envs[1]:
        raise ValueError(f"the files were made in different environments: {envs[0]} != {envs[1]}")
    spec = load_json(ROOT / "BENCHMARK.json")
    rows = [("workload", "metric", "old", "new", "change", "by metric", "beyond both IQRs", "past bound")]
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            try:
                a, b = (rec["workloads"][workload]["metrics"][metric["name"]] for rec in (old, new))
            except KeyError:
                raise ValueError(f"{workload} {metric['name']} is missing from a file") from None
            delta = b["median"] - a["median"]
            change = f"{delta / a['median']:+.1%}" if a["median"] else "n/a"
            if delta == 0:
                verdict = "same"
            else:
                verdict = "better" if (delta < 0) == (metric["better"] == "lower") else "worse"
            beyond = abs(delta) > a["iqr"] and abs(delta) > b["iqr"]
            rows.append((workload, metric["name"], f"{a['median']:.6g}", f"{b['median']:.6g}",
                         change, verdict, "yes" if beyond else "no", past_bound(metric, a["median"], b["median"])))
    return rows


def provenance(old: dict, new: dict) -> list:
    """The lines ``--compare`` prints above its table: where each file came from, and what medians can show."""
    lines = [f"{side}: label {rec.get('label') or 'unknown'}, git_sha {rec['env'].get('git_sha') or 'unknown'}, "
             f"recorded_utc {rec.get('recorded_utc') or 'unknown'}" for side, rec in (("old", old), ("new", new))]
    return lines + ["Medians from separate sessions carry the box's drift between them and give no verdict on a "
                    "change; --pairs runs both sides in one session and gives one."]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", nargs="?", help="names the output file, BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two BENCH_*.json files instead of recording")
    parser.add_argument("--pairs", metavar="PARENT_CHECKOUT", type=Path,
                        help="run alternating pairs of that checkout and this one instead of recording")
    parser.add_argument("--workload", help="the workload of --pairs")
    parser.add_argument("--seed", type=int, help="the first seed of --pairs")
    parser.add_argument("--count", type=int, default=10, help="the number of --pairs (default 10)")
    args = parser.parse_args(argv)
    if args.compare and args.pairs:
        parser.error("give --compare or --pairs, not both")
    if (args.compare or args.pairs) and args.label is not None:
        parser.error("--compare and --pairs take no label")
    if args.compare:
        try:
            records = [load_json(path) for path in args.compare]
            rows = compare(*records)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        print("\n".join(provenance(*records) + table(rows)))
        return 0
    if args.pairs:
        if args.workload is None or args.seed is None or args.count < 1:
            parser.error("--pairs needs --workload, --seed and a --count of at least 1")
        try:
            lines = pairs(args.pairs.resolve(), args.workload, args.seed, args.count)
        except ValueError as exc:
            parser.error(str(exc))
        print("\n".join(lines))
        return 0
    if args.label is None:
        parser.error("give a label, or --compare OLD NEW, or --pairs PARENT_CHECKOUT")
    if not args.label or not all(c.isalnum() or c in "-_." for c in args.label):
        parser.error("the label may hold only letters, digits, '-', '_' and '.'")
    out = ROOT / f"BENCH_{args.label}.json"
    data = dict(label=args.label, **record())
    if data["env"].get("git_sha") is None:
        parser.error("the runs name no git commit (no .git in this checkout); record from a git clone")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
