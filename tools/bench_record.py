"""Record the benchmark's end-to-end metrics of this checkout against its parent's, to ``BENCH_<label>.json``.

    python3 tools/bench_record.py LABEL --pairs PARENT_CHECKOUT --workload NAME [--workload NAME ...] --seed FIRST [--count N]

runs ``bench/run.py --trace 0 --seconds 20`` of PARENT_CHECKOUT, a ``git
clone`` of the parent commit, and of this checkout in ``--count`` pairs (10
by default) on seeds FIRST, FIRST + 1, ...: seed by seed, each seed through
every named workload, so that a slow spell of the box spreads over all of
them, with the other side first at each next seed. A snapshot of one commit
is a run against a clone of that same commit, which also shows the noise
floor.

Each run is made as the benchmark makes its own: no
``PYTHONPYCACHEPREFIX`` (the caller's is dropped, so numpy and the standard
library read their installed bytecode) and ``PYTHONDONTWRITEBYTECODE=1``.
Before any run, a checkout without ``bench/run.py`` or
``src/eub/__init__.py``, or with a ``__pycache__`` anywhere under ``src``, is
refused: stale bytecode of ``eub`` can move ``setup_s`` by 80%.

For each workload the tool prints, per end-to-end metric of
``BENCHMARK.json``, both sides' quartiles
(``statistics.quantiles(..., n=4, method="inclusive")``), the change of the
medians, whether it exceeds the parent's IQR, whether the change's median is
worse than the parent's by more than the metric's ``bound`` (a fraction of
the parent's median: the benchmark's rule for a regression), and in how many
pairs the change was better by the metric's ``better`` (ties count for
neither side). ``BENCH_<label>.json`` at the repository root holds the same,
with the label, ``recorded_utc``, the machine's ``env``, each side's
``git_sha`` and ``src_sha256``, the seeds, count and seconds, and per
workload and side ``correct``, ``failed``, ``attempted`` and the raw round
walls, and per metric both sides' runs. Runs whose ``env`` differs in
anything but the code keys, and runs that name no git commit (a checkout
without ``.git``, such as a ``git archive`` copy), are refused, and no file
is written (exit 2).

Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20.0
SIDES = ("parent", "change")
# env keys that name the code or the draw, not the machine; the sides may differ in them
CODE_KEYS = ("git_sha", "src_sha256", "seed")


def run_once(workload: str, seed: int, root: Path = ROOT) -> tuple:
    """One ``bench/run.py --trace 0`` run of the checkout at root: its detail line and result line."""
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_checkout(root: Path) -> None:
    """Refuse a checkout that is not one of this package, or whose ``src`` holds bytecode a run could read."""
    for need in ("bench/run.py", "src/eub/__init__.py"):
        if not (root / need).is_file():
            raise ValueError(f"{root} holds no {need}")
    stale = next((root / "src").rglob("__pycache__"), None)
    if stale is not None:
        raise ValueError(f"{stale} holds bytecode that would move setup_s; delete it first")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def machine(env: dict) -> dict:
    """The keys of a run's ``env`` that name the machine, not the code or the draw."""
    return {k: v for k, v in env.items() if k not in CODE_KEYS}


def quartiles(values: list) -> list:
    """First quartile, median and third quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [q1, statistics.median(values), q3]


def verdict(metric: dict, old: list, new: list) -> dict:
    """Both sides' runs of one metric and the table's columns for them."""
    (a1, a2, a3), (b1, b2, b3) = quartiles(old), quartiles(new)
    worse = b2 - a2 if metric["better"] == "lower" else a2 - b2
    return {"unit": metric["unit"], "parent": old, "change": new, "parent_quartiles": [a1, a2, a3],
            "change_quartiles": [b1, b2, b3], "change_of_medians": (b2 - a2) / a2 if a2 else None,
            "beyond_parent_iqr": abs(b2 - a2) > a3 - a1, "past_bound": worse > metric["bound"] * abs(a2),
            "change_better": sum((b < a) if metric["better"] == "lower" else (b > a) for a, b in zip(old, new))}


def pairs(parent: Path, workloads: list, first_seed: int, count: int) -> dict:
    """Alternating runs of the parent checkout and this one, seed by seed through the workloads; the record."""
    spec = load_json(ROOT / "BENCHMARK.json")
    for name in workloads:
        if name not in [w["name"] for w in spec["workloads"]]:
            raise ValueError(f"no workload {name!r} in BENCHMARK.json")
    roots = dict(zip(SIDES, (parent, ROOT)))
    for root in roots.values():
        check_checkout(root)
    runs = {name: {side: [] for side in SIDES} for name in workloads}
    env, code = None, {}
    for i in range(count):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in workloads:
            for side in order:
                detail, result = run_once(name, seed, roots[side])
                if detail["env"]["git_sha"] is None:
                    raise ValueError(f"the {side} runs name no git commit (no .git in {roots[side]}); "
                                     "run from git clones")
                env = env or machine(detail["env"])
                if machine(detail["env"]) != env:
                    raise ValueError(f"{side} {name} seed {seed} ran in another environment: {detail['env']}")
                code.setdefault(side, {k: detail["env"][k] for k in ("git_sha", "src_sha256")})
                runs[name][side].append((detail, result))
            last = {side: runs[name][side][-1][1]["metrics"] for side in SIDES}
            pair = ", ".join(f"{m['name']} {last['parent'][m['name']]['value']:.6g} -> "
                             f"{last['change'][m['name']]['value']:.6g}" for m in spec["end_to_end"])
            print(f"pair {i + 1} seed {seed} {name} ({order[0]} first): {pair}", file=sys.stderr)
    out = {}
    for name, done in runs.items():
        out[name] = {side: {"correct": all(r["correct"] for _, r in done[side]),
                            "failed": sum(r["failed"] for _, r in done[side]),
                            "attempted": sum(r["attempted"] for _, r in done[side]),
                            "raw_round_walls_s": [d["raw_round_walls_s"] for d, _ in done[side]]} for side in SIDES}
        out[name]["metrics"] = {m["name"]: verdict(m, *([r["metrics"][m["name"]]["value"] for _, r in done[side]]
                                                        for side in SIDES)) for m in spec["end_to_end"]}
    return {"recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"), "env": env, "sides": code,
            "seeds": list(range(first_seed, first_seed + count)), "count": count, "seconds": SECONDS,
            "workloads": out}


def report(data: dict) -> list:
    """Per workload, a heading with both sides' correctness and the table of the end-to-end metrics."""
    lines, seeds = [], data["seeds"]
    for name, entry in data["workloads"].items():
        rows = [("metric", "parent q1/median/q3", "change q1/median/q3", "change", "beyond parent IQR",
                 "past bound", "change better")]
        for metric, v in entry["metrics"].items():
            change = v["change_of_medians"]
            rows.append((metric, *(" / ".join(f"{q:.6g}" for q in v[f"{side}_quartiles"]) for side in SIDES),
                         "n/a" if change is None else f"{change:+.1%}", *("yes" if v[k] else "no" for k in
                         ("beyond_parent_iqr", "past_bound")), f"{v['change_better']} of {data['count']}"))
        sides = "; ".join(f"{side} correct {entry[side]['correct']}, failed {entry[side]['failed']}" for side in SIDES)
        lines += [f"{name}: {data['count']} pairs, seeds {seeds[0]}-{seeds[-1]}; {sides}"] + table(rows)
    return lines


def table(rows: list) -> list:
    """Rows of cells as lines of left-aligned columns."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file, BENCH_<label>.json")
    parser.add_argument("--pairs", metavar="PARENT_CHECKOUT", type=Path, required=True,
                        help="a git clone of the parent commit")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat it for more")
    parser.add_argument("--seed", type=int, required=True, help="the first seed")
    parser.add_argument("--count", type=int, default=10, help="the number of pairs a workload (default 10)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    if not args.label or not all(c.isalnum() or c in "-_." for c in args.label):
        parser.error("the label may hold only letters, digits, '-', '_' and '.'")
    try:
        data = dict(label=args.label, **pairs(args.pairs.resolve(), list(dict.fromkeys(args.workload)),
                                              args.seed, args.count))
    except ValueError as exc:
        parser.error(str(exc))
    out = ROOT / f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print("\n".join(report(data) + [str(out)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
