"""Regenerate bench/reference.json from the current code.

    python3 bench/make_reference.py

Stores, for the reference seed, the summarized output of every operation
in round 0 of each workload, plus every seed-independent operation
(scan, sweep, verify checks, Fourier and fractional-shift reports). For
each stored beat-rate count it also stores the number of samples whose
ladder and max-entry bounds lie within TIE_WINDOW of each other: those
wins can flip under a ULP-level change and are allowed to. Beat rates for
n = 2..6 over a larger ensemble back the statistical check on other seeds.

Only regenerate when an output change is intended, and record the change.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from run import REFERENCE, ROOT, WORK_DIR, import_eub
from workloads import REF_SEED, TIE_WINDOW, TOL, WORKLOADS, LargeNReport, summarize

RATE_SAMPLES = {2: 16384, 3: 16384, 4: 16384, 5: 16384, 6: 8192}
RATE_STREAM = 1 << 32


def near_ties(eub, n, samples, rng):
    """Samples whose top Shannon ladder rung is within TIE_WINDOW of -2 ln c."""
    from eub.bounds import _q_rows
    from eub.entropy import _renyi_rows
    from eub.montecarlo import _CHUNK, _haar_batch

    ties = 0
    for start in range(0, samples, _CHUNK):
        count = min(_CHUNK, samples - start)
        u, _ = _haar_batch(n, rng, start, count, with_state=False)
        s = eub.s_coefficients_batch(u)
        gap = _renyi_rows(_q_rows(s, n - 1), 1.0) + 2.0 * np.log(s[:, 0])
        ties += int(np.count_nonzero(np.abs(gap) < TIE_WINDOW))
    return ties


def main():
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    eub = import_eub()
    outputs = {}
    for workload in WORKLOADS.values():
        ops = list(workload.build(eub, REF_SEED, 1, WORK_DIR)[0])
        if isinstance(workload, LargeNReport):
            ops += workload.fixed_ops(eub, WORK_DIR)
        for op in ops:
            if op.key in outputs:
                continue
            summary = summarize(op, op.run())
            if op.kind == "beat_rate":
                n, samples, rng = op.args
                summary["tie_allowance"] = near_ties(eub, n, samples, rng)
            outputs[op.key] = summary
            print(op.key, file=sys.stderr)
    rates = {}
    for n, samples in RATE_SAMPLES.items():
        res = eub.beat_rate(n, samples, eub.RngSeed(REF_SEED, RATE_STREAM))
        rates[str(n)] = [res.rate, samples]
    ref = {
        "ref_seed": REF_SEED,
        "tolerance": TOL,
        "tie_window": TIE_WINDOW,
        "beat_rate_p": rates,
        "outputs": outputs,
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
