"""sha256 digests of a fixed set of eub CLI runs, for byte-identity checks.

Runs every command of ``command_set`` in-process through ``eub.cli.main``
and prints one line per command, ``sha256  exit  argv``, where the digest
is of the command's stdout. Each ``mc --gap-hist`` CSV gets a line of its
own with ``-`` in the exit column. Input matrices are written from fixed
seeds to a temporary directory, which the printed argv shows as ``$TMP``,
so two checkouts print the same lines exactly when their outputs agree:

    PYTHONPATH=src python3 tools/cli_digests.py > after.txt
    diff before.txt after.txt

Needs only the standard library and eub.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import eub
from eub.cli import main
from eub.matrices import generator

HAAR_DIMS = tuple(range(3, 12))
FOURIER_DIMS = (4, 6, 8, 9, 10)
PERM_HALF_DIMS = (6, 8, 9, 10, 11)
# P^(1/3): degenerate Grams, where many blocks pass the first pruning tier
PERM_THIRD_DIMS = (9, 10)
BOUNDS_ALPHAS = ("0.5", "1", "2", "inf")
# Ensembles through the pruned m >= 4 classes, where several matrices share
# a row sub-chunk and each survivor maps back to its matrix
PRUNED_ENSEMBLE_DIMS = (8,)


def write_inputs(workdir: str) -> list:
    """Write the bounds and classical input matrices; return bounds paths."""
    mats = [(f"haar{n}", eub.haar_unitary(n, eub.RngSeed(1000 + n))) for n in HAAR_DIMS]
    mats += [(f"fourier{n}", eub.fourier_matrix(n)) for n in FOURIER_DIMS]
    mats += [(f"perm_half{n}", eub.permutation_power(n, 0.5)) for n in PERM_HALF_DIMS]
    mats += [(f"perm_third{n}", eub.permutation_power(n, 1.0 / 3.0)) for n in PERM_THIRD_DIMS]
    paths = []
    for name, m in mats:
        paths.append(os.path.join(workdir, name + ".json"))
        eub.save_matrix(paths[-1], m)
    t = generator(eub.RngSeed(5)).exponential(size=(4, 4))
    eub.save_matrix(os.path.join(workdir, "stochastic4.json"), t / t.sum(axis=0))
    return paths


def command_set(workdir: str) -> list:
    """The argv lists, in run order, for inputs written by ``write_inputs``."""
    commands = []
    for path in write_inputs(workdir):
        argv = ["bounds", "--input", path]
        for a in BOUNDS_ALPHAS:
            argv += ["--alpha", a]
        commands.append(argv)
    stochastic = os.path.join(workdir, "stochastic4.json")
    commands += [
        ["scan", "--grid-step", "0.01"],
        ["sweep", "--family", "perm_power:6", "--range", "0:1", "--steps", "33",
         "--alpha", "1", "--alpha", "inf"],
        ["sweep", "--family", "rotation", "--range", "0:1.5707963267948966", "--steps", "65",
         "--alpha", "1", "--alpha", "inf"],
        ["mc", "--n", "4", "--samples", "3000", "--seed", "3",
         "--gap-hist", os.path.join(workdir, "gap_hist.csv")],
        ["mc", "--n", "4", "--samples", "3000", "--seed", "3", "--k", "1", "--alpha", "2",
         "--gap-hist", os.path.join(workdir, "gap_hist_k1_alpha2.csv")],
        ["fuzz", "--n", "4", "--pairs", "2000"],
        ["classical", "--input", stochastic, "--p", "0.1,0.2,0.3,0.4"],
        ["classical", "--input", stochastic, "--samples", "2000", "--seed", "5"],
        ["verify"],
        ["verify", "--seed", "18446744073709551615"],
    ]
    for n in PRUNED_ENSEMBLE_DIMS:
        commands += [
            ["mc", "--n", str(n), "--samples", "200", "--seed", "3",
             "--gap-hist", os.path.join(workdir, f"gap_hist_n{n}.csv")],
            ["fuzz", "--n", str(n), "--pairs", "200"],
        ]
    return commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(commands: list, workdir: str) -> list:
    """Run each command; return its digest line (and the gap-hist line)."""
    lines = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        shown = " ".join(a.replace(workdir, "$TMP") for a in argv)
        lines.append(f"{_sha256(buf.getvalue().encode())}  {code}  {shown}")
        if "--gap-hist" in argv:
            path = argv[argv.index("--gap-hist") + 1]
            with open(path, "rb") as fh:
                lines.append(f"{_sha256(fh.read())}  -  {path.replace(workdir, '$TMP')}")
    return lines


def run() -> list:
    with tempfile.TemporaryDirectory() as workdir:
        return digest_lines(command_set(workdir), workdir)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in run()))
