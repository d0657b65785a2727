"""Command line surface.

Subcommands: bounds, sweep, scan, mc, fuzz, classical, verify. All output
is JSON or CSV written to --output (stdout by default) and is
byte-identical across reruns with the same arguments, seeds included.

Exit codes: 0 success, 1 property or assertion failure, 2 input or
validation error, an unallocatable request included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from .bounds import (  # noqa: F401, bench/tracer.py wraps ladder_from_coefficients
    _classical_entropies,
    _classical_slacks,
    _distributions,
    _ladder_report,
    bound_deutsch,
    bound_mu,
    classical_bound,
    eur_lhs,
    ladder_from_coefficients,
    majorizing_vector,
)
from .entropy import _check_order, _majorization_slack, _order_json, renyi_entropy  # noqa: F401, bench/tracer.py wraps it
from .equivalence import random_transform, apply_transform
from .extremal import (
    SubspacePair,
    cross_gram,
    deutsch_max_product,
    lemma_max_value,
    maximizing_state,
    pair_objective,
)
from .families import (  # noqa: F401, bench/tracer.py wraps unistochastic_lift_3
    cross_section_scan,
    permutation_power,
    rotation_matrix,
    unistochastic_lift_3,
)
from .matrices import (
    BEAT_RATE_ALLOWANCE,
    BEAT_RATE_N2,
    BLOCK_EIGENVALUE_TOL,
    CLOSED_FORM_ORDER_TOL,
    ENTROPY_TOL,
    LADDER_MONOTONE_TOL,
    MAJORIZATION_TOL,
    MAX_PRODUCT_TOL,
    OVERLAP_SUM_TOL,
    STOCHASTIC_IMAG_TOL,
    TRANSFORM_INVARIANCE_TOL,
    UNITARITY_TOL,
    RngSeed,
    _first_failure,
    _orthonormality_residual,
    _unit_normalized,
    generator,
    load_matrix,
)
from .montecarlo import _CHUNK, _beat_and_gaps, _haar_batch, beat_rate, majorization_fuzz
from .montecarlo import haar_unitary  # noqa: F401, bench/tracer.py wraps it
from .submatrices import _checked_coefficients, _enumeration_guard, s_coefficients


def _parse_alpha(token: str) -> float:
    try:
        a = float(token)
    except ValueError:
        raise ValueError(f"cannot parse entropy order {token!r}") from None
    return _check_order(a)


def _open_all(paths, opened: dict) -> None:
    # Opens every destination of paths that is not None (stdout) into opened,
    # keyed by path, without truncation, so that the caller can _discard them
    # if a later open or its run fails. Two destinations that are one file,
    # one device and inode, as through a symbolic or hard link or the same
    # path twice, are refused once all are open, before any is written.
    named = [path for path in paths if path is not None]
    for path in dict.fromkeys(named):
        created = not os.path.exists(path)
        opened[path] = (open(path, "a", encoding="utf-8", newline="\n"), created)
    if len({(st.st_dev, st.st_ino) for st in (os.fstat(fh.fileno()) for fh, _ in opened.values())}) < len(named):
        raise ValueError("two output destinations name the same file")


def _discard(opened: dict) -> None:
    # Closes the files of _open_all and removes those it created, so every
    # destination is left as it was
    for path, (fh, created) in opened.items():
        fh.close()
        if created:
            os.remove(path)


def _write_all(opened: dict, outputs) -> None:
    # Writes every (path, text) pair, to stdout where path is None and else
    # to its file of _open_all. A regular file is overwritten; any other
    # destination, such as /dev/null, a FIFO or a terminal, is written as it
    # is.
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)
        else:
            with opened[path][0] as fh:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(text)


def _seed_of(args) -> RngSeed:
    return RngSeed(seed=args.seed, stream=args.stream)


# --- subcommand implementations ----------------------------------------------


def _cmd_bounds(args) -> tuple:
    alphas = [_parse_alpha(a) for a in (args.alpha or ["1"])]
    u = load_matrix(args.input)
    sc = s_coefficients(u, allow_large=args.allow_large_n)
    mv = majorizing_vector(sc)
    obj = {
        "n": sc.n,
        "s": [float(v) for v in sc.s],
        "r": [float(v) for v in sc.r],
        "q": [float(v) for v in mv.q_full],
        "q_truncations": [[float(v) for v in t] for t in mv.truncations],
        "reports": [_ladder_report(sc, mv, a).to_json() for a in alphas],
    }
    return 0, [(args.output, obj)]


_FAMILY_RE = re.compile(r"perm_power(?::(\d+)|\((\d+)\))")


def _parse_family(token: str):
    if token == "rotation":
        return 2, rotation_matrix
    m = _FAMILY_RE.fullmatch(token)
    if m:
        n = int(m.group(1) or m.group(2))
        return n, lambda beta: permutation_power(n, beta)
    raise ValueError(f"unknown family {token!r}; expected rotation, perm_power:N or perm_power(N)")


def _parse_range(token: str):
    parts = token.split(":")
    if len(parts) != 2:
        raise ValueError(f"cannot parse range {token!r}; expected lo:hi")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"range {token!r} must be finite with hi > lo")
    return lo, hi


# A sweep's memory grows with its steps x N^2 matrix entries. To os.devnull
# (2-core box, one BLAS thread) one in-process `eub sweep` over 0:1 took
# 7.9-9.9 us and 436-461 bytes of peak RSS growth a point for rotation
# (N = 2; 1e5 and 1e6 steps), 78-85 us and 4.8-4.9 kB for perm_power:6
# (2e4 and 1e5 steps) and 0.23 s and 20 kB for perm_power:12 (1e3 steps),
# about 110-140 bytes an entry. At this limit that is about 0.76 GB and 17 s
# at N = 2, 0.95 GB and 15 s at N = 6, and under 1 GB and 3 hours at N = 12;
# a larger sweep is refused before its grid is built.
MAX_SWEEP_ENTRIES = 7_000_000


def _cmd_sweep(args) -> tuple:
    dim, build = _parse_family(args.family)
    lo, hi = _parse_range(args.range)
    if args.steps < 2:
        raise ValueError("steps must be >= 2 (inclusive grid point count)")
    alphas = [_parse_alpha(a) for a in (args.alpha or ["1"])]
    _enumeration_guard(dim, args.allow_large_n)  # before any N x N build
    entries = args.steps * dim * dim
    if entries > MAX_SWEEP_ENTRIES:
        raise ValueError(f"steps {args.steps} at N = {dim} give {entries} entries, more than the limit {MAX_SWEEP_ENTRIES}")
    ts = [lo + (hi - lo) * i / (args.steps - 1) for i in range(args.steps)]
    sc = _checked_coefficients(np.array([build(t) for t in ts]), args.allow_large_n)
    mv = majorizing_vector(sc)
    reports = [_ladder_report(sc, mv, a) for a in alphas]
    header = ["parameter", "alpha", "b_deutsch", "b_mu"]
    header += [f"ladder_{k}" for k in range(1, dim)]
    lines = [",".join(header)]
    for i, t in enumerate(ts):
        for a, rep in zip(alphas, reports):
            cells = [repr(t), str(_order_json(a)), repr(float(rep.b_deutsch[i])), repr(float(rep.b_mu[i]))]
            cells += [repr(float(v)) for v in rep.ladder[i]]
            lines.append(",".join(cells))
    return 0, [(args.output, lines)]


def _cmd_scan(args) -> tuple:
    alpha = _parse_alpha(args.alpha)
    # the columns come through this module's cross_section_scan, which
    # bench/tracer.py wraps; cells carry 12 significant digits, and an
    # infeasible point's are empty. A grid coordinate is formatted once
    # (a and b take at most 1/step + 1 values i * step, none of them -0.0,
    # so equal keys print alike), and each line by one format.
    scan = cross_section_scan(args.grid_step, alpha)
    a, b = scan.a.tolist(), scan.b.tolist()
    shown = {v: f"{v:.12g}" for v in {*a, *b}}
    cells = iter(zip(scan.b_mu.tolist(), scan.b_ladder_2.tolist(), (scan.b_mu - scan.b_ladder_2).tolist()))
    lines = ["a,b,feasible,b_mu,b_ladder_2,diff"]
    lines += [
        "%s,%s,1,%.12g,%.12g,%.12g" % (shown[x], shown[y], *next(cells)) if ok else "%s,%s,0,,," % (shown[x], shown[y])
        for x, y, ok in zip(a, b, scan.feasible.tolist())
    ]
    return 0, [(args.output, lines)]


def _cmd_mc(args) -> tuple:
    alpha = _parse_alpha(args.alpha)
    k = args.n - 1 if args.k is None else args.k
    gap_alpha = None if args.gap_hist is None else alpha
    result, stats = _beat_and_gaps(args.n, args.samples, _seed_of(args), k, gap_alpha)
    outputs = [(args.output, result.to_json())]
    if stats is not None:
        lo, hi, cnt = stats.hist_mu
        lines = ["bin_lo,bin_hi,count"]
        lines += [f"{repr(float(a))},{repr(float(b))},{int(c)}" for a, b, c in zip(lo, hi, cnt)]
        outputs.append((args.gap_hist, lines))
    return 0, outputs


def _cmd_fuzz(args) -> tuple:
    report = majorization_fuzz(args.n, args.pairs, _seed_of(args))
    return (0 if report.violations == 0 else 1), [(args.output, report.to_json())]


def _load_stochastic(path) -> np.ndarray:
    t = load_matrix(path)
    if float(np.abs(t.imag).max()) > STOCHASTIC_IMAG_TOL:
        raise ValueError("stochastic matrix must be real (imaginary parts found)")
    return t.real.copy()


def _cmd_classical(args) -> tuple:
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    t = _load_stochastic(args.input)
    bound = classical_bound(t)
    obj = {"kappa": float(t.max()), "bound": bound}
    if args.p is not None:
        p = np.array([float(tok) for tok in args.p.split(",")])
        mixture, out_entropy, p_entropy = _classical_entropies(t, p)
        slack_lower, slack_upper, slack_bound = _classical_slacks(mixture, out_entropy, p_entropy, bound)
        ok_pair = min(slack_lower, slack_upper) >= -ENTROPY_TOL
        ok_bound = slack_bound >= -ENTROPY_TOL
        obj.update(
            mixture_entropy=mixture,
            output_entropy=out_entropy,
            input_entropy=p_entropy,
            mixture_inequalities_hold=bool(ok_pair),
            bound_holds=bool(ok_bound),
        )
        return (0 if (ok_pair and ok_bound) else 1), [(args.output, obj)]
    g = generator(_seed_of(args))
    worst = [math.inf] * 3
    # P rows in ensemble-sized chunks, drawn in the per-sample order
    for start in range(0, args.samples, _CHUNK):
        p = g.exponential(size=(min(_CHUNK, args.samples - start), t.shape[1]))
        p /= p.sum(axis=1, keepdims=True)
        slacks = _classical_slacks(*_classical_entropies(t, p), bound)
        worst = [min(w, float(column.min())) for w, column in zip(worst, slacks)]
    worst_lower, worst_upper, worst_bound = worst
    all_hold = min(worst_lower, worst_upper, worst_bound) >= -ENTROPY_TOL
    obj.update(
        samples=args.samples,
        seed=_seed_of(args).to_json(),
        min_slack_lower=worst_lower,
        min_slack_upper=worst_upper,
        min_slack_bound=worst_bound,
        all_hold=bool(all_hold),
    )
    return (0 if all_hold else 1), [(args.output, obj)]


# --- verify suite -------------------------------------------------------------
#
# Each check takes its Haar unitaries at each n from one _haar_batch call:
# samples start .. start + count - 1 of the run (seed, stream), at a start
# of its own (31n, 97n, 13n, 7n, 211n or 5n). Every comparison is written
# as a passing test (dev <= tol) and negated, directly or through
# _first_failure, so that a NaN fails it.

# The entropy orders at which the ladder and transform checks evaluate bounds
_VERIFY_ORDERS = (0.0, 0.5, 1.0, 2.0, math.inf)


def _verify_haar_unitarity(seed: RngSeed):
    for n in range(2, 7):
        resid = _orthonormality_residual(_haar_batch(n, seed, 31 * n, 50, False)[0])[1]
        i = _first_failure(resid <= UNITARITY_TOL)
        if i is not None:
            return False, f"haar draw n={n} i={i} failed unitarity"
    return True, ""


def _verify_transform_invariance(seed: RngSeed):
    g = generator(seed)
    for n in range(2, 6):
        us = _haar_batch(n, seed, 97 * n, 10, False)[0]
        pairs = np.array([(u, apply_transform(u, random_transform(n, g))) for u in us])
        sc = _checked_coefficients(pairs.reshape(20, n, n))
        mv = majorizing_vector(sc)
        # drift[i, 0]: s of draw i against its transform's; drift[i, 1 + j]:
        # b_deutsch, b_mu and every rung at order j, the same way
        drift = np.empty((10, 1 + len(_VERIFY_ORDERS)))
        s = sc.s.reshape(10, 2, n)
        drift[:, 0] = np.abs(s[:, 0] - s[:, 1]).max(axis=1)
        for j, a in enumerate(_VERIFY_ORDERS):
            rep = _ladder_report(sc, mv, a)
            bounds = np.column_stack((rep.b_deutsch, rep.b_mu, rep.ladder)).reshape(10, 2, n + 1)
            drift[:, 1 + j] = np.abs(bounds[:, 0] - bounds[:, 1]).max(axis=1)
        bad = _first_failure(drift.ravel() <= TRANSFORM_INVARIANCE_TOL)  # draw by draw, s first
        if bad is not None:
            i, j = divmod(bad, drift.shape[1])
            if j == 0:
                return False, f"s drifted {drift[i, 0]:.3e} under transform at n={n}"
            return False, f"bounds drifted {drift[i, j]:.3e} under transform at n={n} alpha={_VERIFY_ORDERS[j - 1]}"
    return True, ""


def _verify_chain(seed: RngSeed):
    for n in range(2, 7):
        us = _haar_batch(n, seed, 13 * n, 20, False)[0]
        truncs = majorizing_vector(_checked_coefficients(us)).truncations
        # slack[i, k - 1]: the smallest partial-sum slack of Q^(k) over Q^(k + 1) of draw i
        slack = np.reshape([_majorization_slack(y, x).min(axis=1) for y, x in zip(truncs, truncs[1:])], (n - 2, 20)).T
        broken = np.argwhere(~(slack >= -MAJORIZATION_TOL))  # (draw, k - 1), in loop order
        if len(broken):
            return False, f"chain break at n={n} k={broken[0, 1] + 1}"
    return True, ""


def _verify_ladder(seed: RngSeed):
    g = generator(seed)
    for n in range(2, 7):
        us = _haar_batch(n, seed, 7 * n, 10, False)[0]
        sc = _checked_coefficients(us)
        mv = majorizing_vector(sc)
        w = g.standard_normal((10, len(_VERIFY_ORDERS), 5, 2, n))  # per draw and order, five (re, im) pairs
        states = _unit_normalized(w[..., 0, :] + 1j * w[..., 1, :])
        ok = np.empty((10, len(_VERIFY_ORDERS), 2), dtype=bool)  # per draw and order: rungs ascend, sums above top
        for j, a in enumerate(_VERIFY_ORDERS):
            ladder = _ladder_report(sc, mv, a).ladder
            ok[:, j, 0] = (np.diff(ladder, axis=1) >= -LADDER_MONOTONE_TOL).all(axis=1)
            ok[:, j, 1] = (eur_lhs(us, states[:, j], a) >= ladder[:, -1:] - ENTROPY_TOL).all(axis=1)
        bad = _first_failure(ok.ravel())  # draw by draw, then order by order
        if bad is not None:
            _, j, which = np.unravel_index(bad, ok.shape)
            what = ("ladder not monotone", "entropy sum below ladder top")[which]
            return False, f"{what} at n={n} alpha={_VERIFY_ORDERS[j]}"
    return True, ""


def _verify_product_majorization(seed: RngSeed):
    for n in range(2, 7):
        rep = majorization_fuzz(n, 300, seed)
        if rep.violations:
            return False, f"{rep.violations} majorization violations at n={n}"
    return True, ""


def _verify_extremal(seed: RngSeed):
    g = generator(seed)
    for n in range(2, 7):
        us = _haar_batch(n, seed, 211 * n, 10, False)[0]
        for i in range(5):
            m1 = int(g.integers(1, n + 1))
            m2 = int(g.integers(1, n + 1))
            u1, u2 = us[2 * i], us[2 * i + 1]
            sp = SubspacePair(u1[:m1], u2[:m2])
            top = lemma_max_value(sp)
            w = g.standard_normal((200, 2, n))  # 200 (real, imaginary) pairs
            if not (pair_objective(sp, _unit_normalized(w[:, 0] + 1j * w[:, 1])) <= top + OVERLAP_SUM_TOL).all():
                return False, f"objective exceeded bound at n={n}"
            psi = maximizing_state(sp)
            if not abs(pair_objective(sp, psi) - top) <= OVERLAP_SUM_TOL:
                return False, f"attainment failed at n={n}"
            s1 = float((np.abs(sp.first_set.conj() @ psi) ** 2).sum())
            s2 = float((np.abs(sp.second_set.conj() @ psi) ** 2).sum())
            if not abs(s1 - s2) <= OVERLAP_SUM_TOL:
                return False, f"partial sums unequal at n={n}"
            a = cross_gram(sp)
            block = np.block(
                [
                    [np.eye(m1), a.conj().T],
                    [a, np.eye(m2)],
                ]
            )
            lam = float(np.linalg.eigvalsh(block)[-1])
            if not abs(lam - top) <= BLOCK_EIGENVALUE_TOL:
                return False, f"block eigenvalue mismatch at n={n}"
    return True, ""


def _verify_deutsch(seed: RngSeed):
    draws = np.arange(20)
    for n in range(2, 7):
        us = _haar_batch(n, seed, 5 * n, 20, False)[0]
        ordered = bound_deutsch(us) <= bound_mu(us) + CLOSED_FORM_ORDER_TOL
        # rows of u index the transformed basis, columns the input one
        j_star, i_star = np.unravel_index(np.abs(us).reshape(20, -1).argmax(axis=1), (n, n))
        psi = maximizing_state(SubspacePair(np.eye(n)[i_star, None], us[draws, j_star, None].conj()))
        p, q = _distributions(us, psi)
        attained = np.abs(p[draws, i_star] * q[draws, j_star] - deutsch_max_product(us)) <= MAX_PRODUCT_TOL
        bad = _first_failure(np.column_stack((ordered, attained)).ravel())  # draw by draw, the ordering first
        if bad is not None:
            return False, ("closed-form ordering violated", "max product cross-check failed")[bad % 2] + f" at n={n}"
    return True, ""


def _verify_classical(seed: RngSeed):
    # Trial i draws an n x n T, then P, with n = 2 + i % 5. One draw holds the
    # 500 trials in that order as 100 blocks of five (2 * 3 + ... + 6 * 7 = 110
    # values), and each n is one stack of 100 trials.
    blocks = generator(seed).exponential(size=(100, 110))
    ok = np.empty((100, 5, 2), dtype=bool)
    start = 0
    for n in range(2, 7):
        t = blocks[:, start : start + n * n].reshape(100, n, n)
        t /= t.sum(axis=1, keepdims=True)
        p = blocks[:, start + n * n : start + n * n + n]
        p /= p.sum(axis=1, keepdims=True)
        start += n * n + n
        lower, upper, vs_bound = _classical_slacks(*_classical_entropies(t, p), classical_bound(t))
        ok[:, n - 2, 0] = np.minimum(lower, upper) >= -ENTROPY_TOL
        ok[:, n - 2, 1] = vs_bound >= -ENTROPY_TOL
    failed = np.argwhere(~ok.reshape(500, 2))
    if len(failed):
        i, which = failed[0].tolist()
        return False, (f"mixture inequalities failed at trial {i}", f"entropy sum below -ln kappa at trial {i}")[which]
    return True, ""


def _verify_beat_rate(seed: RngSeed):
    res = beat_rate(2, 3000, seed)
    if not abs(res.rate - BEAT_RATE_N2) <= BEAT_RATE_ALLOWANCE:
        return False, f"beat rate {res.rate:.3f} far from {BEAT_RATE_N2:.3f}"
    return True, ""


def _verify_scan(seed: RngSeed):
    try:
        scan = cross_section_scan(0.1, 1.0)
    except RuntimeError as exc:  # a lift beyond LIFT_RESIDUAL_TOL
        return False, str(exc)
    # every feasible point has its bounds, so feasibility is the test
    points = zip(scan.a.tolist(), scan.b.tolist(), scan.feasible.tolist())
    feasible = {(round(a, 9), round(b, 9)): ok for a, b, ok in points}
    for corner in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
        if not feasible[corner]:
            return False, f"corner {corner} not feasible"
    if not feasible[(round(3 * 0.1, 9), round(3 * 0.1, 9))]:
        return False, "near-center point not feasible"
    if feasible[(0.5, 0.5)]:
        return False, "edge midpoint unexpectedly feasible"
    return True, ""


_VERIFY_CHECKS = (
    ("haar-unitarity", _verify_haar_unitarity),
    ("s-transform-invariance", _verify_transform_invariance),
    ("majorizing-chain", _verify_chain),
    ("ladder-monotone-and-lhs", _verify_ladder),
    ("product-majorization", _verify_product_majorization),
    ("extremal-suite", _verify_extremal),
    ("deutsch-closed-forms", _verify_deutsch),
    ("classical-inequalities", _verify_classical),
    ("beat-rate-sanity", _verify_beat_rate),
    ("scan-smoke", _verify_scan),
)


def _cmd_verify(args) -> tuple:
    seed = _seed_of(args)
    results = [(name, *check(seed)) for name, check in _VERIFY_CHECKS]
    lines = [f"PASS  {name}" if ok else f"FAIL  {name}: {detail}" for name, ok, detail in results]
    passed = sum(ok for _, ok, _ in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return (0 if passed == len(results) else 1), [(None, lines)]


# --- parser -------------------------------------------------------------------


def _add_seed_args(sp) -> None:
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--stream", type=int, default=0, help="RNG stream id (default 0)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and reused by every main call: parse_args leaves the
    # parser as it was, and prog is fixed, so the usage never reads sys.argv.
    parser = argparse.ArgumentParser(
        prog="eub",
        description="Majorization-based entropic uncertainty bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="full bound report for one unitary matrix")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--alpha", action="append", help="entropy order (repeatable; default 1)")
    p.add_argument("--output", default=None)
    p.add_argument("--allow-large-n", action="store_true", dest="allow_large_n")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="bound curves along a matrix family")
    p.add_argument("--family", required=True, help="rotation, perm_power:N or perm_power(N)")
    p.add_argument("--range", required=True, help="parameter range lo:hi")
    p.add_argument("--steps", type=int, required=True, help="inclusive grid point count")
    p.add_argument("--alpha", action="append", help="entropy order (repeatable; default 1)")
    p.add_argument("--output", default=None)
    p.add_argument("--allow-large-n", action="store_true", dest="allow_large_n")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("scan", help="unistochastic cross-section scan (order 3)")
    p.add_argument("--grid-step", type=float, required=True, dest="grid_step")
    p.add_argument("--alpha", default="1", help="entropy order (default 1)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("mc", help="Haar beat-rate experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="ladder level (default n-1)")
    p.add_argument("--alpha", default="1", help="order for --gap-hist stats")
    p.add_argument("--gap-hist", default=None, dest="gap_hist", help="also write gap histogram CSV")
    p.add_argument("--output", default=None)
    _add_seed_args(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("fuzz", help="product-distribution majorization fuzz")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--output", default=None)
    _add_seed_args(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("classical", help="stochastic-matrix entropy bound checks")
    p.add_argument("--input", required=True, help="column-stochastic matrix JSON file")
    p.add_argument("--p", default=None, help="comma-separated input distribution")
    p.add_argument("--samples", type=int, default=1000, help="random P trials when --p absent")
    p.add_argument("--output", default=None)
    _add_seed_args(p)
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("verify", help="cross-module property suite")
    _add_seed_args(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    opened = {}
    try:
        # every destination is opened before the subcommand runs, so an
        # unusable one is refused before any work; a refused open or a
        # failed run leaves every destination as it was. A subcommand
        # returns its exit code and (destination, content) pairs, each
        # content a JSON object or lines of text
        try:
            _open_all([getattr(args, "output", None), getattr(args, "gap_hist", None)], opened)
            code, outputs = args.func(args)
        except BaseException:
            _discard(opened)
            raise
        dump = functools.partial(json.dumps, indent=2, sort_keys=True)
        _write_all(opened, [(path, (dump(c) if isinstance(c, dict) else "\n".join(c)) + "\n") for path, c in outputs])
    except (ValueError, OSError, MemoryError) as exc:
        # an unallocatable request is an input error too; MemoryError() has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
