"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one caller. A run repeats the
workload's round, a fixed list of operations, a fixed number of times, so
two commits measured with the same ``--seconds`` do identical work. An
operation is the library call that one CLI invocation makes.

Inputs come from the workload seed: ensemble streams are
``RngSeed(seed, stream)`` with a distinct stream per call, and the large-N
report matrices are drawn here with numpy from ``(seed, round, N)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Seed whose outputs are stored in reference.json.
REF_SEED = 0

# Absolute tolerance for every stored floating-point value. ULP-level kernel
# changes move s and the ladder by ~1e-15 and the 12-digit scan cells by at
# most one unit in the last printed digit (< 1e-11 for the values printed);
# a wrong answer moves them by far more.
TOL = 1e-11

# |ladder - b_mu| below this counts as a near-tie that a ULP-level change can
# flip; the stored beat-rate wins allow that many flips.
TIE_WINDOW = 1e-12

# Statistical guard for beat rates on seeds without stored wins.
RATE_SIGMAS = 6.0

SCAN_SAMPLE_EVERY = 16


@dataclass
class Op:
    key: str
    kind: str
    target: object
    args: tuple
    items: int
    seeded: bool
    extra: dict = field(default_factory=dict)

    def run(self, target=None):
        fn = self.target if target is None else target
        if self.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fn(*self.args)
            return code, buf.getvalue()
        return fn(*self.args)


# --- inputs -------------------------------------------------------------------
#
# Report inputs are drawn here rather than with eub's own sampler and
# families, so a change to those does not change what the reports measure.


def haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def fourier(n):
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(2j * np.pi * jk / n) / math.sqrt(n)


def perm_power(n, beta):
    f = fourier(n)
    return (f * np.exp(2j * np.pi * np.arange(n) * beta / n)[None, :]) @ f.conj().T


def write_matrix(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.shape[0], "cols": m.shape[1], "re": m.real.tolist(), "im": m.imag.tolist()}, fh)


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    # Duration of one round on the reference box; sets the round count.
    nominal_round_s = 1.0

    def rounds(self, seconds):
        return max(1, round(seconds / self.nominal_round_s))

    def build(self, eub, seed, rounds, work_dir):
        """Generate inputs; return one list of operations per round."""
        raise NotImplementedError

    def warm_up(self, eub, work_dir):
        raise NotImplementedError


class _Ensemble(Workload):
    calls = ()  # (kind, n, samples)

    def build(self, eub, seed, rounds, work_dir):
        fns = {
            "beat_rate": eub.beat_rate,
            "fuzz": eub.majorization_fuzz,
            "gap_stats": eub.bound_gap_stats,
        }
        out = []
        for r in range(rounds):
            ops = []
            for i, (kind, n, samples) in enumerate(self.calls):
                stream = 1 + r * len(self.calls) + i
                rng = eub.RngSeed(seed, stream)
                args = (n, samples, 1.0, rng) if kind == "gap_stats" else (n, samples, rng)
                key = f"{kind}/n{n}/S{samples}/seed{seed}/stream{stream}"
                ops.append(Op(key, kind, fns[kind], args, samples, True, {"n": n}))
            out.append(ops)
        return out


class EnsembleSampling(_Ensemble):
    """Small n: per-index Haar sampling plus QR is most of the time."""

    name = "ensemble-sampling"
    nominal_round_s = 0.68
    # Sizes give every call about the same latency, so the latency
    # percentiles fall inside one cluster rather than between two.
    calls = (
        ("beat_rate", 2, 2048),
        ("beat_rate", 3, 2048),
        ("beat_rate", 4, 1664),
        ("fuzz", 4, 1408),
    )

    def warm_up(self, eub, work_dir):
        eub.beat_rate(3, 64, eub.RngSeed(REF_SEED, 0))


class EnsembleKernel(_Ensemble):
    """n = 5, 6: the batched s-kernel is most of the time."""

    name = "ensemble-kernel"
    nominal_round_s = 1.6
    calls = (
        ("beat_rate", 5, 2048),
        ("gap_stats", 5, 2048),
        ("beat_rate", 6, 320),
    )

    def warm_up(self, eub, work_dir):
        eub.beat_rate(6, 32, eub.RngSeed(REF_SEED, 0))


BOUNDS_ALPHAS = ("1", "2", "inf")
# Exponent of the cyclic shift power per N. Fixed, so that the seed changes
# only the Haar draws and the latency mix of a round is the same on every
# seed.
PERM_BETAS = {8: ("1/2", 0.5), 9: ("1/3", 1.0 / 3.0), 10: ("1/2", 0.5)}


def _bounds_op(eub, key, path, matrix, seeded):
    argv = ["bounds", "--input", str(path)]
    for a in BOUNDS_ALPHAS:
        argv += ["--alpha", a]
    return Op(key, "cli", eub.cli.main, (argv,), 1, seeded, {"check": "bounds", "matrix": matrix})


class LargeNReport(Workload):
    """bounds reports at N = 8..10 through the validated single-matrix path.

    Each round reports a Haar draw, the Fourier matrix and a fractional
    cyclic shift at N = 8 and 9, and one of the three at N = 10 (rotating
    by round). Fourier and the shift powers P^(1/2), P^(1/3) have repeated
    singular values, i.e. degenerate Grams.
    """

    name = "large-n-report"
    nominal_round_s = 5.4
    KINDS = ("haar", "fourier", "perm")

    def _op(self, eub, work_dir, n, kind, seed=None, r=None):
        if kind == "haar":
            m = haar(n, np.random.default_rng([seed, r, n]))
            key = f"bounds/N{n}/haar/seed{seed}/round{r}"
        elif kind == "fourier":
            m, key = fourier(n), f"bounds/N{n}/fourier"
        else:
            label, beta = PERM_BETAS[n]
            m, key = perm_power(n, beta), f"bounds/N{n}/perm_power/beta{label}"
        path = work_dir / (key.replace("/", "_") + ".json")
        write_matrix(path, m)
        return _bounds_op(eub, key, path, m, kind == "haar")

    def build(self, eub, seed, rounds, work_dir):
        out = []
        for r in range(rounds):
            ops = [self._op(eub, work_dir, n, kind, seed, r) for n in (8, 9) for kind in self.KINDS]
            ops.append(self._op(eub, work_dir, 10, self.KINDS[r % 3], seed, r))
            out.append(ops)
        return out

    def fixed_ops(self, eub, work_dir):
        """Every seed-independent operation the workload can issue."""
        return [self._op(eub, work_dir, n, kind) for n in (8, 9, 10) for kind in self.KINDS[1:]]

    def warm_up(self, eub, work_dir):
        self._op(eub, work_dir, 8, "fourier").run()


SWEEP_ARGV = ["sweep", "--family", "perm_power:6", "--range", "0:1", "--steps", "33",
              "--alpha", "1", "--alpha", "inf"]
ROTATION_ARGV = ["sweep", "--family", "rotation", "--range", "0:1.5707963267948966", "--steps", "65",
                 "--alpha", "1", "--alpha", "inf"]
SCAN_ARGV = ["scan", "--grid-step", "0.01", "--alpha", "1"]


class SmallReports(Workload):
    """Thousands of N <= 6 reports: scan, two sweeps and the verify checks.

    Per-call validation and Python overhead in families, bounds, entropy,
    extremal, equivalence and cli dominate; the kernel is negligible. Only
    verify takes the seed. Thirteen operations per round, an odd count, so
    the median latency falls inside one operation's cluster rather than
    between two.
    """

    name = "small-reports"
    nominal_round_s = 3.3

    def build(self, eub, seed, rounds, work_dir):
        out = []
        for r in range(rounds):
            ops = [
                Op("scan/0.01/alpha1", "cli", eub.cli.main, (SCAN_ARGV,), 0, False, {"check": "scan"}),
                Op("sweep/perm_power6/0:1/33", "cli", eub.cli.main, (SWEEP_ARGV,), 66, False, {"check": "sweep"}),
                Op("sweep/rotation/0:pi2/65", "cli", eub.cli.main, (ROTATION_ARGV,), 130, False, {"check": "sweep"}),
            ]
            for name, check in eub.cli._VERIFY_CHECKS:
                ops.append(Op(f"verify/{name}", "verify_check", check, (eub.RngSeed(seed),), 0, False,
                              {"name": name}))
            out.append(ops)
        return out

    def warm_up(self, eub, work_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            eub.cli.main(["scan", "--grid-step", "0.1"])


WORKLOADS = {w.name: w for w in (EnsembleSampling(), EnsembleKernel(), LargeNReport(), SmallReports())}


# --- output summaries and checks ----------------------------------------------


def _floats(cells):
    return [None if c == "" else float(c) for c in cells]


def summarize(op, out):
    """The comparable content of one operation's output."""
    if op.kind == "beat_rate":
        return {"wins": int(out.wins), "samples": int(out.samples)}
    if op.kind == "fuzz":
        return {"violations": int(out.violations), "worst_slack": float(out.worst_slack)}
    if op.kind == "gap_stats":
        return {
            "mean_mu": out.mean_mu,
            "mean_deutsch": out.mean_deutsch,
            "quantiles_mu": [out.quantiles_mu[k] for k in sorted(out.quantiles_mu)],
            "quantiles_deutsch": [out.quantiles_deutsch[k] for k in sorted(out.quantiles_deutsch)],
            "hist_total": int(out.hist_mu[2].sum()),
        }
    if op.kind == "verify_check":
        ok, detail = out
        return {"line": f"PASS  {op.extra['name']}" if ok else f"FAIL  {op.extra['name']}: {detail}"}
    code, text = out
    if code != 0:
        return {"exit": code}
    check = op.extra["check"]
    if check == "bounds":
        obj = json.loads(text)
        return {
            "exit": code,
            "s": obj["s"],
            "r": obj["r"],
            "reports": [[rep["deutsch"], rep["mu"]] + rep["ladder"] for rep in obj["reports"]],
        }
    lines = text.splitlines()
    rows = [_floats(line.split(",")) for line in lines[1:]]
    if check == "sweep":
        return {"exit": code, "header": lines[0], "rows": rows}
    # scan: a,b,feasible,b_mu,b_ladder_2,diff
    feasible = [row for row in rows if row[2] == 1.0]
    return {
        "exit": code,
        "header": lines[0],
        "rows": len(rows),
        "feasible": len(feasible),
        "col_means": [sum(row[c] for row in feasible) / len(feasible) for c in (0, 1, 3, 4, 5)],
        "sampled_rows": rows[::SCAN_SAMPLE_EVERY],
    }


def _compare(got, ref, path, errors, allowance=0):
    if isinstance(ref, dict):
        for k, v in ref.items():
            if k == "tie_allowance":
                continue
            if k not in got:
                errors.append(f"{path}.{k}: missing")
            else:
                _compare(got[k], v, f"{path}.{k}", errors, ref.get("tie_allowance", 0) if k == "wins" else 0)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: length {len(got) if isinstance(got, list) else '-'} != {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{i}]", errors)
    elif isinstance(ref, float):
        if got is None or not (got == ref or abs(got - ref) <= TOL):
            errors.append(f"{path}: {got!r} != {ref!r} (tol {TOL:g})")
    elif isinstance(ref, int) and not isinstance(ref, bool) and allowance:
        if abs(got - ref) > allowance:
            errors.append(f"{path}: {got} differs from {ref} by more than the {allowance} near-tie allowance")
    elif got != ref:
        errors.append(f"{path}: {got!r} != {ref!r}")


def _invariants(op, summary, refs):
    errors = []
    if op.kind == "beat_rate":
        n, samples, wins = op.extra["n"], summary["samples"], summary["wins"]
        p, ref_samples = refs["beat_rate_p"][str(n)]
        spread = RATE_SIGMAS * math.sqrt(p * (1 - p)) * (samples ** -0.5 + ref_samples ** -0.5)
        if not (0 <= wins <= samples) or abs(wins / samples - p) > spread:
            errors.append(f"beat rate {wins}/{samples} outside {p:.4f} +- {spread:.4f}")
    elif op.kind == "fuzz":
        if summary["violations"] != 0:
            errors.append(f"{summary['violations']} majorization violations")
    elif op.kind == "gap_stats":
        qs = summary["quantiles_mu"] + summary["quantiles_deutsch"]
        if not all(math.isfinite(v) for v in qs + [summary["mean_mu"], summary["mean_deutsch"]]):
            errors.append("non-finite gap statistics")
        elif np.any(np.diff(summary["quantiles_mu"]) < 0) or np.any(np.diff(summary["quantiles_deutsch"]) < 0):
            errors.append("gap quantiles not ascending")
        if summary["hist_total"] != op.args[1]:
            errors.append("histogram does not count every sample")
    elif op.kind == "cli" and summary["exit"] != 0:
        errors.append(f"exit code {summary['exit']}")
    elif op.kind == "cli" and op.extra["check"] == "bounds":
        s = np.array(summary["s"])
        c = float(np.abs(op.extra["matrix"]).max())
        if np.any(np.diff(s) < 0) or s[-1] != 1.0 or abs(s[0] - c) > 1e-12:
            errors.append("s chain not ascending to 1 from the max entry modulus")
        if np.abs(np.array(summary["r"]) - ((1 + s) / 2) ** 2).max() > 1e-12:
            errors.append("r != ((1 + s) / 2)^2")
        for rep in summary["reports"]:
            if abs(rep[1] + 2 * math.log(c)) > 1e-12 or np.any(np.diff(rep[2:]) < -1e-12):
                errors.append("report mu or ladder order wrong")
    return errors


def check(op, out, refs, require_ref):
    """Errors found in one operation's output (empty when correct).

    Outputs with a stored reference are compared against it; every output
    is also checked against invariants that hold on any seed. Outputs that
    do not depend on the seed always have a stored reference.
    """
    summary = summarize(op, out)
    errors = _invariants(op, summary, refs)
    ref = refs["outputs"].get(op.key)
    if ref is not None:
        _compare(summary, ref, op.key, errors)
    elif require_ref or not op.seeded:
        errors.append(f"{op.key}: no stored reference")
    if op.extra.get("check") == "scan":
        op.items = summary.get("feasible", 0)
    return errors
