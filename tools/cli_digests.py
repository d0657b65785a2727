"""sha256 digests of a fixed set of eub CLI runs, for byte-identity checks.

Runs every command of ``command_set`` in-process through ``eub.cli.main``
and prints one line per command, ``sha256  exit  argv``, where the digest
is of the command's stdout followed by its stderr, which is empty on
success. Each ``mc --gap-hist`` CSV of a run that exits 0 gets a line of
its own with ``-`` in the exit column. Input matrices are written from fixed
seeds to a temporary directory, which the printed argv shows as ``$TMP``,
so two checkouts print the same lines exactly when their outputs agree:

    PYTHONPATH=src python3 tools/cli_digests.py > after.txt
    diff before.txt after.txt

``cli_digests.expected`` pins the lines. Its first line is ``environment()``,
the numpy, BLAS and SIMD build the digests were made with, since another
build may round differently. After a deliberate output change, rewrite it
and record the change next to the diff of that file:

    PYTHONPATH=src python3 -c "import runpy; print(runpy.run_path('tools/cli_digests.py')['environment']())" \
        > tools/cli_digests.expected
    PYTHONPATH=src python3 tools/cli_digests.py >> tools/cli_digests.expected

``--under NAME=VALUE`` (repeatable) measures what another CPU target or
build setting does to the lines: the tool reruns itself in one child
process, with those variables added to the child's environment and
``PYTHONPATH=src``, prints the argv of each child line that is not a
pinned line, then ``K of N lines moved`` (N pinned lines), and exits 0. It
is a record, not a check, and the variables act on the child alone:

    PYTHONPATH=src python3 tools/cli_digests.py --under OPENBLAS_CORETYPE=Haswell

Needs only the standard library, numpy and eub.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import eub
from eub.cli import MAX_SWEEP_ENTRIES, main
from eub.matrices import generator
from eub.submatrices import MAX_ENUMERATION_DIM

HAAR_DIMS = tuple(range(3, 13))
FOURIER_DIMS = (4, 6, 8, 9, 10, 12)
PERM_HALF_DIMS = (6, 8, 9, 10, 11, 12)
# P^(1/3): degenerate Grams, where many blocks pass the complement bound
PERM_THIRD_DIMS = (9, 10)
# Inputs past the enumeration guard, run with --allow-large-n: F16 and the
# 16-cycle shift, whose chains stop early (at k = 8 and at once), and F13,
# prime, whose chain reaches 1 only at k = N
LARGE_FOURIER_DIMS = (13, 16)
LARGE_SHIFT_DIMS = (16,)
# F_N with rows and columns permuted by non-affine permutations: tied
# blocks, but no translation symmetry, so the kernel visits every block.
# Rows alone keep the column shift, and columns alone the row shift, so
# the kernel reduces only the other side's sets
PERMUTED_ROWS = (3, 0, 7, 1, 6, 2, 5, 4)
PERMUTED_COLS = (1, 4, 6, 0, 7, 3, 2, 5)
BOUNDS_ALPHAS = ("0.5", "1", "2", "inf")
SCAN_ALPHAS = ("0", "0.5", "2", "inf")
# Ensembles through the pruned m >= 4 classes, where several matrices share
# a row sub-chunk and each survivor maps back to its matrix
PRUNED_ENSEMBLE_DIMS = (8,)
# Ensembles at the first size whose (2, n) class is taken from the column
# complements of the (2, N - n) blocks: the batched kernel of beat_rate,
# gap_stats and the fuzz
COMPLEMENT_ENSEMBLE_DIMS = (5,)


def write_inputs(workdir: str) -> list:
    """Write the bounds and classical input matrices; return bounds paths.

    The refused inputs, a row-stochastic T, a non-unitary U and a file with
    two names, are written too but not returned.
    """
    mats = [(f"haar{n}", eub.haar_unitary(n, eub.RngSeed(1000 + n))) for n in HAAR_DIMS]
    mats += [(f"fourier{n}", eub.fourier_matrix(n)) for n in FOURIER_DIMS]
    mats += [(f"perm_half{n}", eub.permutation_power(n, 0.5)) for n in PERM_HALF_DIMS]
    mats += [(f"perm_third{n}", eub.permutation_power(n, 1.0 / 3.0)) for n in PERM_THIRD_DIMS]
    mats += [(f"fourier{n}", eub.fourier_matrix(n)) for n in LARGE_FOURIER_DIMS]
    mats += [(f"shift{n}", eub.cyclic_shift(n)) for n in LARGE_SHIFT_DIMS]
    # a dephased circulant, which keeps the diagonal translation symmetry
    phases = np.exp(2j * np.pi * generator(eub.RngSeed(8)).random((2, 8)))
    mats.append(("perm_half8_dephased", phases[0][:, None] * eub.permutation_power(8, 0.5) * phases[1]))
    # a dephased circulant with one large entry a row: P8^(1/16), its first
    # row and column made real
    mats.append(("perm_sixteenth8_dephased", eub.dephase(eub.permutation_power(8, 1 / 16))))
    # a dephased circulant with first-row entries c_0 = 1/sqrt(2) and c_4 =
    # i/sqrt(2): its nonzero entries join the rows into four components of
    # two rows, {i, i + 4}, each with its own phase gauge
    first = np.zeros(8, dtype=complex)
    first[0], first[4] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    pairs = first[(np.arange(8)[None, :] - np.arange(8)[:, None]) % 8]
    mats.append(("circulant8_pairs_dephased", phases[0][:, None] * pairs * phases[1]))
    mats.append(("fourier8_permuted", eub.fourier_matrix(8)[list(PERMUTED_ROWS)][:, list(PERMUTED_COLS)]))
    mats.append(("fourier8_rows_permuted", eub.fourier_matrix(8)[list(PERMUTED_ROWS)]))
    mats.append(("fourier8_cols_permuted", eub.fourier_matrix(8)[:, list(PERMUTED_COLS)]))
    paths = []
    for name, m in mats:
        paths.append(os.path.join(workdir, name + ".json"))
        eub.save_matrix(paths[-1], m)
    t = generator(eub.RngSeed(5)).exponential(size=(4, 4))
    eub.save_matrix(os.path.join(workdir, "stochastic4.json"), t / t.sum(axis=0))
    eub.save_matrix(os.path.join(workdir, "row_stochastic4.json"), t / t.sum(axis=1, keepdims=True))
    eub.save_matrix(os.path.join(workdir, "nonunitary3.json"), 1.01 * eub.haar_unitary(3, eub.RngSeed(1003)))
    # a file with a second name, a hard link, which refused_commands names
    # twice
    with open(os.path.join(workdir, "target.csv"), "w", encoding="utf-8") as fh:
        fh.write("target\n")
    os.link(os.path.join(workdir, "target.csv"), os.path.join(workdir, "linked.csv"))
    return paths


def command_set(workdir: str) -> list:
    """The argv lists, in run order, for inputs written by ``write_inputs``."""
    commands = []
    for path in write_inputs(workdir):
        argv = ["bounds", "--input", path]
        for a in BOUNDS_ALPHAS:
            argv += ["--alpha", a]
        if len(eub.load_matrix(path)) > MAX_ENUMERATION_DIM:
            argv.append("--allow-large-n")
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
    for n in COMPLEMENT_ENSEMBLE_DIMS:
        commands += [
            ["mc", "--n", str(n), "--samples", "2000", "--seed", "3",
             "--gap-hist", os.path.join(workdir, f"gap_hist_n{n}.csv")],
            ["fuzz", "--n", str(n), "--pairs", "2000"],
        ]
    # an ensemble at the first size with a pruned class of more rows than
    # columns below class N, (5, 4), which runs batched on the transposes
    commands.append(
        ["mc", "--n", "10", "--samples", "16", "--seed", "3",
         "--gap-hist", os.path.join(workdir, "gap_hist_n10.csv")]
    )
    # ensembles at the sizes of the 3 x 3 Cardano classes with a column
    # complement: at n = 6 the (3, 3) class is its own, and at n = 7 the
    # (3, 4) class is that of (3, 3)
    commands += [
        ["mc", "--n", "6", "--samples", "320", "--seed", "3",
         "--gap-hist", os.path.join(workdir, "gap_hist_n6.csv")],
        ["fuzz", "--n", "7", "--pairs", "200"],
    ]
    # ensembles at the sizes where the Haar draw is most of the time (the
    # ensemble-sampling benchmark's n = 2 and 3)
    commands += [
        ["mc", "--n", "2", "--samples", "3000", "--seed", "3",
         "--gap-hist", os.path.join(workdir, "gap_hist_n2.csv")],
        ["fuzz", "--n", "3", "--pairs", "2000"],
    ]
    # a basis input: both mixture slacks are exactly 0, and the mixture sum
    # skips the zero weights
    commands.append(["classical", "--input", stochastic, "--p", "1,0,0,0"])
    # scans at the other orders, through the ladder's alpha < 1, alpha > 1
    # and min-entropy branches
    commands += [["scan", "--grid-step", "0.05", "--alpha", a] for a in SCAN_ALPHAS]
    # a scan whose step does not divide 1: 20 steps overshoot the edge
    # a + b = 1 by 4e-10, so the grid's edge rule decides which points print
    commands.append(["scan", "--grid-step", "0.05000000002", "--alpha", "0.5"])
    # a scan whose step does not divide 1 either, and six of whose
    # coordinates i * 0.03 are no short decimals, at the min-entropy order
    commands.append(["scan", "--grid-step", "0.03", "--alpha", "inf"])
    # a sweep through the ladder's alpha = 0, alpha < 1 and alpha > 1
    # branches, and one whose order -0 prints as 0.0
    commands += [
        ["sweep", "--family", "perm_power(5)", "--range", "0:2", "--steps", "17",
         "--alpha", "0", "--alpha", "0.5", "--alpha", "2"],
        ["sweep", "--family", "rotation", "--range", "0:1.5707963267948966", "--steps", "9",
         "--alpha", "-0"],
    ]
    # verify at a second seed, and random P in three chunks of rows, the last
    # of one row
    commands += [
        ["verify", "--seed", "1"],
        ["classical", "--input", stochastic, "--samples", "4097", "--seed", "9"],
    ]
    # wins-only ensembles, whose kernel stops each draw at the first rung
    # that decides its win or loss: one chunk of 2048 draws at n = 5, where
    # the strips decide most, n = 6 and 8, and n = 8 at rung 3, where every
    # undecided draw stops
    commands += [
        ["mc", "--n", "5", "--samples", "2048", "--seed", "3"],
        ["mc", "--n", "6", "--samples", "2000", "--seed", "3"],
        ["mc", "--n", "8", "--samples", "200", "--seed", "3"],
        ["mc", "--n", "8", "--samples", "200", "--seed", "3", "--k", "3"],
    ]
    # a destination that is not a regular file, written without a truncate,
    # so stdout and stderr stay empty
    commands.append(["mc", "--n", "3", "--samples", "200", "--seed", "3", "--output", os.devnull])
    return commands + refused_commands(workdir)


def refused_commands(workdir: str) -> list:
    """The argv lists of the refused inputs, which ``command_set`` runs last.

    Each exits 2 with one line on stderr: the smallest rotation sweep past
    the limit (refused before its grid is built), a negative weight, a
    row-stochastic T, a non-unitary U, a weight vector of the wrong length,
    and two destinations naming one file, by one path and by a hard link
    (refused before the run, and writing none).
    """
    stochastic = os.path.join(workdir, "stochastic4.json")
    return [
        ["sweep", "--family", "rotation", "--range", "0:1", "--steps", str(MAX_SWEEP_ENTRIES // 4 + 1)],
        ["classical", "--input", stochastic, "--p", "0.5,0.6,-0.1,0"],
        ["classical", "--input", os.path.join(workdir, "row_stochastic4.json"), "--p", "0.1,0.2,0.3,0.4"],
        ["bounds", "--input", os.path.join(workdir, "nonunitary3.json")],
        ["classical", "--input", stochastic, "--p", "0.5,0.5"],
        ["mc", "--n", "3", "--samples", "200", "--seed", "3",
         "--output", os.path.join(workdir, "same.csv"), "--gap-hist", os.path.join(workdir, "same.csv")],
        ["mc", "--n", "3", "--samples", "200", "--seed", "3",
         "--output", os.path.join(workdir, "target.csv"), "--gap-hist", os.path.join(workdir, "linked.csv")],
    ]


def environment() -> str:
    """The header line of ``cli_digests.expected``: numpy, BLAS and SIMD."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = " ".join(config["SIMD Extensions"]["found"])
    return f"# numpy {np.__version__}; blas {blas['name']} {blas['version']}; simd {simd}"


def shown(argv: list, workdir: str) -> str:
    """A command as its digest line prints it, with the work directory as ``$TMP``."""
    return " ".join(a.replace(workdir, "$TMP") for a in argv)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(commands: list, workdir: str) -> list:
    """Run each command; return its digest line (and the gap-hist line)."""
    lines = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines.append(f"{_sha256((out.getvalue() + err.getvalue()).encode())}  {code}  {shown(argv, workdir)}")
        if "--gap-hist" in argv and code == 0:
            path = argv[argv.index("--gap-hist") + 1]
            with open(path, "rb") as fh:
                lines.append(f"{_sha256(fh.read())}  -  {path.replace(workdir, '$TMP')}")
    return lines


def run() -> list:
    with tempfile.TemporaryDirectory() as workdir:
        return digest_lines(command_set(workdir), workdir)


def pinned_lines() -> list:
    """The lines of ``cli_digests.expected`` below its header."""
    return (Path(__file__).parent / "cli_digests.expected").read_text().splitlines()[1:]


def moved_lines(under: dict) -> list:
    """Rerun this tool in one child process under the variables ``under``; return its lines that are not pinned."""
    env = {**os.environ, **under, "PYTHONPATH": "src"}
    child = subprocess.run([sys.executable, __file__], cwd=Path(__file__).resolve().parents[1], env=env,
                           capture_output=True, text=True, check=True)
    pinned = set(pinned_lines())
    return [line for line in child.stdout.splitlines() if line not in pinned]


def _variable(token: str) -> tuple:
    name, sep, value = token.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {token!r}")
    return name, value


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 digests of a fixed set of eub CLI runs")
    parser.add_argument("--under", action="append", type=_variable, metavar="NAME=VALUE",
                        help="rerun in a child process with this variable set; report the lines that move")
    args = parser.parse_args(argv)
    if not args.under:
        sys.stdout.write("".join(line + "\n" for line in run()))
        return 0
    moved = moved_lines(dict(args.under))
    for line in moved:
        print(line.split("  ", 2)[2])
    print(f"{len(moved)} of {len(pinned_lines())} lines moved")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
