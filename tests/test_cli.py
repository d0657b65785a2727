import argparse
import importlib.util
import json
import math
import os
import re
import stat
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import eub.cli as cli
import eub.families as families
import eub.montecarlo as montecarlo
import eub.submatrices as submatrices
from eub import (
    RngSeed,
    beat_rate,
    bound_gap_stats,
    bound_ladder,
    classical_bound,
    fourier_matrix,
    s_coefficients,
    save_matrix,
)
from eub.bounds import MajorizingVector, _classical_entropies, _classical_slacks, _ladder_report
from eub.cli import main
from eub.extremal import cross_gram, maximizing_state
from eub.matrices import _unit_normalized, generator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_f3(tmp_path):
    path = tmp_path / "f3.json"
    save_matrix(path, fourier_matrix(3))
    return str(path)


def test_bounds_fourier(tmp_path, capsys):
    path = write_f3(tmp_path)
    code, out, err = run(capsys, "bounds", "--input", path, "--alpha", "1", "--alpha", "inf")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["n"] == 3
    assert len(obj["s"]) == 3 and obj["s"][2] == 1.0
    assert len(obj["q"]) == 3
    assert len(obj["q_truncations"]) == 2
    reports = {r["alpha"]: r for r in obj["reports"]}
    assert abs(reports[1.0]["mu"] - math.log(3)) <= 1e-12
    assert "inf" in reports
    assert len(reports[1.0]["ladder"]) == 2


def test_bounds_output_file(tmp_path, capsys):
    path = write_f3(tmp_path)
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bounds", "--input", path, "--output", str(out_path))
    assert code == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj["reports"][0]["alpha"] == 1.0


def test_bounds_rejects_non_unitary(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_matrix(path, fourier_matrix(3) * 1.02)
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert code == 2
    assert "unitarity residual" in err


def test_bounds_rejects_missing_file(capsys):
    code, _, err = run(capsys, "bounds", "--input", "/nonexistent/u.json")
    assert code == 2
    assert err.startswith("error:")


def test_matrix_inputs_take_numbers_only(tmp_path, capsys):
    """An entry that is not a JSON number exits 2 with one line on stderr,
    for bounds and classical alike, where an object used to escape as a
    TypeError and true or "1" read as 1.0."""
    for entry, kind in (("{}", "dict"), ("true", "bool"), ('"1"', "str")):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"rows": 1, "cols": 1, "re": [[{entry}]], "im": [[0.0]]}}')
        for command in ("bounds", "classical"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: re entries must be JSON numbers, not {kind}\n"


def test_matrix_inputs_refuse_ragged_rows(tmp_path, capsys):
    # numpy's own "inhomogeneous shape" text does not reach stderr
    path = tmp_path / "ragged.json"
    path.write_text('{"rows": 2, "cols": 2, "re": [[1.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}')
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert (code, out, err) == (2, "", "error: re/im arrays do not match rows x cols\n")


def test_matrix_inputs_refuse_a_file_that_is_not_json(tmp_path, capsys):
    # json's decode error is a ValueError: one error line, nothing on stdout
    path = tmp_path / "matrix.txt"
    path.write_text("1 0\n0 1\n")
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_matrix_inputs_refuse_json_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text("[[1, 0], [0, 1]]")
    assert run(capsys, "bounds", "--input", str(path)) == (2, "", "error: matrix json must be an object\n")


def test_bounds_rejects_wrong_format(tmp_path, capsys):
    # no subcommand has a --format option; each emits one format only
    path = write_f3(tmp_path)
    for argv in (
        ["bounds", "--input", path],
        ["sweep", "--family", "rotation", "--range", "0:1", "--steps", "2"],
        ["scan", "--grid-step", "0.5"],
        ["mc", "--n", "2", "--samples", "1"],
        ["fuzz", "--n", "2", "--pairs", "1"],
        ["classical", "--input", path],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_dimension_guard_exit(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_matrix(path, np.eye(13))
    code, _, err = run(capsys, "bounds", "--input", str(path))
    assert code == 2
    assert "allow_large" in err or "allow-large" in err


def test_sweep_rotation(capsys):
    code, out, err = run(
        capsys, "sweep", "--family", "rotation", "--range", "0:1.5707963267948966",
        "--steps", "9", "--alpha", "1",
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "parameter,alpha,b_deutsch,b_mu,ladder_1"
    assert len(lines) == 10
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[2]) == 0.0 and float(first[3]) == 0.0
    assert float(last[2]) == 0.0 and float(last[3]) == 0.0
    # symmetric about the quarter-pi midpoint
    mid_lo = [float(v) for v in lines[2].split(",")[2:]]
    mid_hi = [float(v) for v in lines[-2].split(",")[2:]]
    assert all(abs(x - y) <= 1e-12 for x, y in zip(mid_lo, mid_hi))


def test_sweep_perm_power(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "perm_power:4", "--range", "0:1", "--steps", "5",
        "--alpha", "1", "--alpha", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "parameter,alpha,b_deutsch,b_mu,ladder_1,ladder_2,ladder_3"
    assert len(lines) == 1 + 5 * 2
    by_param = {}
    for line in lines[1:]:
        cells = line.split(",")
        by_param.setdefault(float(cells[0]), []).append([float(v) for v in cells[2:]])
    for vals in by_param[0.0] + by_param[1.0]:
        assert all(abs(v) <= 1e-12 for v in vals)


def test_sweep_accepts_paren_family(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "perm_power(3)", "--range", "0:1", "--steps", "2",
    )
    assert code == 0
    assert out.startswith("parameter,alpha,")


def test_sweep_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "sweep", "--family", "mystery", "--range", "0:1", "--steps", "3")
    assert code == 2
    assert "family" in err


@pytest.mark.parametrize("family", ["perm_power(6", "perm_power:6)"])
def test_sweep_rejects_unbalanced_family(family, capsys):
    code, out, err = run(capsys, "sweep", "--family", family, "--range", "0:1", "--steps", "3")
    assert code == 2 and out == ""
    assert "family" in err


def test_sweep_rejects_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--family", "rotation", "--range", "1:1", "--steps", "3")
    assert code == 2


SWEEP_REFUSALS = [
    ("rotation", "0", "3", "cannot parse range '0'; expected lo:hi"),
    ("rotation", "0:1", "1", "steps must be >= 2 (inclusive grid point count)"),
    # the grid's last point, 0 + (1e308 - 0) * 2 / 2, is inf; perm_power's
    # phases already overflow at its middle one
    ("rotation", "0:1e308", "3", "rotation angle must be finite, got inf"),
    ("perm_power:4", "0:1e308", "3", "beta 5e+307 gives non-finite phases at n = 4"),
]


@pytest.mark.parametrize(
    "family, range_, steps, message", [pytest.param(*case, id="-".join(case[1:])) for case in SWEEP_REFUSALS]
)
def test_sweep_refusals_print_one_error_line(family, range_, steps, message, capsys):
    code, out, err = run(capsys, "sweep", "--family", family, "--range", range_, "--steps", steps)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _spy_kernel_and_ladder(monkeypatch):
    # shapes of the s-kernel stacks, (stack shape, order) per ladder call, and
    # the stack shape of each majorizing vector built
    kernels, ladders, vectors = [], [], []
    kernel, ladder, build = submatrices.s_coefficients_batch, cli._ladder_report, cli.majorizing_vector

    def spy_kernel(u):
        kernels.append(np.shape(u))
        return kernel(u)

    def spy_ladder(sc, mv, alpha):
        ladders.append((np.shape(sc.s), alpha))
        return ladder(sc, mv, alpha)

    def spy_build(sc):
        vectors.append(np.shape(sc.s))
        return build(sc)

    monkeypatch.setattr(submatrices, "s_coefficients_batch", spy_kernel)
    monkeypatch.setattr(cli, "_ladder_report", spy_ladder)
    monkeypatch.setattr(cli, "majorizing_vector", spy_build)
    return kernels, ladders, vectors


def test_sweep_makes_one_kernel_call_and_one_ladder_call_per_order(capsys, monkeypatch):
    kernels, ladders, vectors = _spy_kernel_and_ladder(monkeypatch)
    code, out, err = run(
        capsys, "sweep", "--family", "perm_power:4", "--range", "0:1", "--steps", "5",
        "--alpha", "1", "--alpha", "inf",
    )
    assert code == 0 and err == ""
    assert kernels == [(5, 4, 4)]
    assert ladders == [((5, 4), 1.0), ((5, 4), math.inf)]
    assert vectors == [(5, 4)]  # one majorizing vector serves both orders


def test_bounds_builds_one_majorizing_vector_for_all_orders(tmp_path, capsys, monkeypatch):
    _, ladders, vectors = _spy_kernel_and_ladder(monkeypatch)
    code, out, err = run(capsys, "bounds", "--input", write_f3(tmp_path), "--alpha", "1", "--alpha", "2", "--alpha", "inf")
    assert code == 0 and err == ""
    assert vectors == [(3,)]
    assert ladders == [((3,), 1.0), ((3,), 2.0), ((3,), math.inf)]


def test_sweep_refuses_large_n_before_building(capsys, monkeypatch):
    def refuse(n, beta):
        raise ValueError(f"built a {n} x {n} matrix")

    monkeypatch.setattr(cli, "permutation_power", refuse)
    for n in (13, 10**6):
        code, out, err = run(capsys, "sweep", "--family", f"perm_power:{n}", "--range", "0:1", "--steps", "3")
        assert code == 2 and out == ""
        assert err == (
            f"error: dimension {n} exceeds the enumeration guard (12); "
            "pass allow_large=True (--allow-large-n on the command line) to force\n"
        )
    # the opt-in still reaches the build
    code, out, err = run(
        capsys, "sweep", "--family", "perm_power:13", "--range", "0:1", "--steps", "3", "--allow-large-n",
    )
    assert code == 2 and err == "error: built a 13 x 13 matrix\n"


def test_sweep_refuses_a_grid_past_the_limit_before_building(capsys, monkeypatch):
    """The smallest refused count of each family exits 2 with one line that
    names the entries and the limit, before any matrix is built; the largest
    accepted count reaches the build."""

    def refuse(*args):
        raise RuntimeError(f"built a matrix at {args}")

    monkeypatch.setattr(cli, "rotation_matrix", refuse)
    monkeypatch.setattr(cli, "permutation_power", refuse)
    limit = cli.MAX_SWEEP_ENTRIES
    for family, dim in (("rotation", 2), ("perm_power:6", 6)):
        steps = limit // (dim * dim) + 1
        code, out, err = run(capsys, "sweep", "--family", family, "--range", "0:1", "--steps", str(steps))
        assert (code, out) == (2, "")
        assert err == f"error: steps {steps} at N = {dim} give {steps * dim * dim} entries, more than the limit {limit}\n"
        with pytest.raises(RuntimeError, match="built a matrix"):
            main(["sweep", "--family", family, "--range", "0:1", "--steps", str(steps - 1)])


def test_negative_zero_order_prints_signless(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--family", "rotation", "--range", "0:1", "--steps", "2", "--alpha", "-0")
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["0.0", "0.0"]
    code, out, _ = run(capsys, "bounds", "--input", write_f3(tmp_path), "--alpha", "-0")
    assert code == 0
    assert '"alpha": 0.0,' in out and "-0.0" not in out


def test_scan_step_just_above_a_grid_divisor(capsys):
    code, out, err = run(capsys, "scan", "--grid-step", "0.05000000002")
    assert code == 0 and err == ""
    assert len(out.strip().split("\n")) == 211


@pytest.mark.parametrize("grid_step", ["1e-300", "1e-6"])
def test_scan_refuses_a_grid_past_the_limit(capsys, grid_step):
    code, out, err = run(capsys, "scan", "--grid-step", grid_step)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: grid_step {float(grid_step)!r} gives (inf|5e\+11) grid points, more than the limit 1000000\n", err)


def test_scan_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--grid-step", "0.1", "--output", str(out_path))
    assert code == 0 and out == ""
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "a,b,feasible,b_mu,b_ladder_2,diff"
    assert len(lines) == 67
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 6 for r in rows)
    feas = {(r[0], r[1]): r for r in rows}
    corner = feas[("0", "0")]
    assert corner[2] == "1"
    assert float(corner[3]) == 0.0
    mid = feas[("0.5", "0.5")]
    assert mid[2] == "0"
    assert mid[3] == "" and mid[4] == "" and mid[5] == ""
    # 12 significant digits, no excess precision
    for r in rows:
        for cell in r[3:]:
            if cell:
                assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13


@pytest.mark.parametrize("alpha", ["0", "0.5", "1", "2", "inf"])
@pytest.mark.parametrize("grid_step", ["0.1", "0.05", "0.05000000002", "0.01", "0.03"])
def test_scan_rows_are_the_records(capsys, grid_step, alpha):
    # the CSV holds the public columns, a row a grid point, with 12
    # significant digits, an infeasible point's cells empty, each cell
    # formatted on its own here, and diff the Python float b_mu - b_ladder_2;
    # 0.03 does not divide 1, and six of its coordinates i * 0.03 are no
    # short decimals (11 * 0.03 is 0.32999999999999996), so their cells round
    code, out, _ = run(capsys, "scan", "--grid-step", grid_step, "--alpha", alpha)
    assert code == 0

    scan = families.cross_section_scan(float(grid_step), float(alpha))
    assert len(scan.b_mu) == len(scan.b_ladder_2) == scan.feasible.sum()
    rank = np.cumsum(scan.feasible) - 1
    want = ["a,b,feasible,b_mu,b_ladder_2,diff"]
    for a, b, ok, j in zip(scan.a.tolist(), scan.b.tolist(), scan.feasible.tolist(), rank.tolist()):
        cells = [f"{a:.12g}", f"{b:.12g}", "1" if ok else "0"]
        if ok:
            mu, b2 = float(scan.b_mu[j]), float(scan.b_ladder_2[j])
            cells += [f"{mu:.12g}", f"{b2:.12g}", f"{mu - b2:.12g}"]
        else:
            cells += ["", "", ""]
        want.append(",".join(cells))
    assert out.split("\n") == want + [""]


def test_mc_reruns_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["mc", "--n", "2", "--samples", "300", "--seed", "11", "--stream", "2"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["samples"] == 300
    assert obj["seed"] == {"seed": 11, "stream": 2}
    assert 0.6 < obj["rate"] < 1.0


def test_mc_gap_hist(tmp_path, capsys):
    hist_path = tmp_path / "gap.csv"
    code, out, _ = run(
        capsys, "mc", "--n", "2", "--samples", "200", "--seed", "5",
        "--gap-hist", str(hist_path),
    )
    assert code == 0
    lines = hist_path.read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 200


def test_mc_gap_hist_is_one_pass(tmp_path, capsys, monkeypatch):
    # 3000 samples are two chunks: one kernel call each, not two, and with
    # no stop rule, since the gaps read full chains
    calls = []
    kernel = montecarlo.s_coefficients_batch
    monkeypatch.setattr(montecarlo, "s_coefficients_batch", lambda u, **kw: calls.append((len(u), kw)) or kernel(u, **kw))
    hist_path = tmp_path / "gap.csv"
    code, out, err = run(
        capsys, "mc", "--n", "3", "--samples", "3000", "--seed", "4", "--k", "1", "--alpha", "2",
        "--gap-hist", str(hist_path),
    )
    assert code == 0 and err == ""
    assert calls == [(2048, {"stop": None}), (952, {"stop": None})]
    # the one pass gives what the two separate experiments give
    monkeypatch.undo()
    assert json.loads(out) == beat_rate(3, 3000, RngSeed(4), k=1).to_json()
    lo, hi, cnt = bound_gap_stats(3, 3000, 2.0, RngSeed(4)).hist_mu
    rows = [line.split(",") for line in hist_path.read_text().strip().split("\n")[1:]]
    assert rows == [[repr(float(a)), repr(float(b)), str(int(c))] for a, b, c in zip(lo, hi, cnt)]


def test_mc_rejects_bad_alpha_before_sampling(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    hist_path = tmp_path / "h.csv"
    for extra in ([], ["--output", str(out_path)]):
        code, out, err = run(
            capsys, "mc", "--n", "3", "--samples", "50", "--gap-hist", str(hist_path),
            "--alpha", "bogus", *extra,
        )
        assert code == 2 and out == ""
        assert "cannot parse entropy order" in err
    assert not out_path.exists() and not hist_path.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 72.8 TiB for an array", ""])
def test_mc_unallocatable_request_is_an_input_error(tmp_path, capsys, monkeypatch, message):
    # exit 2 with one error line, as for a ValueError, and no file written;
    # a bare MemoryError() has no text of its own
    def refuse(*args):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(cli, "_beat_and_gaps", refuse)
    hist_path = tmp_path / "h.csv"
    code, out, err = run(capsys, "mc", "--n", "3", "--samples", "10000000000000", "--gap-hist", str(hist_path))
    assert (code, out) == (2, "") and err == f"error: {message or 'out of memory'}\n"
    assert not hist_path.exists()


def test_mc_unopenable_destination_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "o.json"
    hist_path = tmp_path / "h.csv"
    missing = str(tmp_path / "nodir" / "x")
    base = ["mc", "--n", "2", "--samples", "10"]
    for extra in (
        ["--gap-hist", missing],
        ["--gap-hist", missing, "--output", str(out_path)],
        ["--output", missing, "--gap-hist", str(hist_path)],
    ):
        code, out, err = run(capsys, *base, *extra)
        assert code == 2 and out == ""
        assert "No such file or directory" in err
        assert not out_path.exists() and not hist_path.exists()
    # an existing destination keeps its bytes
    out_path.write_text("old\n")
    code, out, _ = run(capsys, *base, "--output", str(out_path), "--gap-hist", missing)
    assert code == 2 and out == "" and out_path.read_text() == "old\n"
    # and is overwritten, not appended to, when every destination opens
    assert run(capsys, *base, "--output", str(out_path), "--gap-hist", str(hist_path))[0] == 0
    assert json.loads(out_path.read_text())["samples"] == 10
    assert hist_path.read_text().startswith("bin_lo,bin_hi,count\n")


def test_mc_same_destination_twice_writes_nothing(tmp_path, capsys):
    # --output and --gap-hist naming one file, by the same path or another
    # spelling of it, exit 2 before anything is written
    (tmp_path / "d").mkdir()
    same = tmp_path / "same.txt"
    base = ["mc", "--n", "3", "--samples", "50", "--output", str(same)]
    spellings = (str(same), str(tmp_path / "d" / ".." / "same.txt"))
    for spelling in spellings:
        code, out, err = run(capsys, *base, "--gap-hist", spelling)
        assert code == 2 and out == ""
        assert "two output destinations name the same file" in err
        assert not same.exists()
    same.write_text("old\n")
    for spelling in spellings:
        assert run(capsys, *base, "--gap-hist", spelling)[0] == 2
        assert same.read_text() == "old\n"


def test_unusable_destination_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # colliding and unopenable destinations exit 2 before the subcommand's
    # work starts, which here fails the test if it is called, and leave no file
    def never(*args, **kwargs):
        pytest.fail("the subcommand ran")

    for name in ("_beat_and_gaps", "majorization_fuzz", "cross_section_scan"):
        monkeypatch.setattr(cli, name, never)
    same, missing = str(tmp_path / "same.csv"), str(tmp_path / "nodir" / "x")
    mc = ["mc", "--n", "3", "--samples", "50"]
    for argv in (
        [*mc, "--output", same, "--gap-hist", same],
        [*mc, "--output", missing],
        [*mc, "--output", str(tmp_path / "o.json"), "--gap-hist", missing],
        [*mc, "--gap-hist", missing],
        ["fuzz", "--n", "3", "--pairs", "20", "--output", missing],
        ["scan", "--grid-step", "0.1", "--output", missing],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, argv
        assert list(tmp_path.iterdir()) == [], argv
    # a run that fails with an error of another kind removes them too
    monkeypatch.setattr(cli, "_beat_and_gaps", lambda *a: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main([*mc, "--output", str(tmp_path / "o.json"), "--gap-hist", str(tmp_path / "h.csv")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "link"), reason="no hard links here")
def test_hard_linked_destinations_are_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # two names of one file differ as paths but share a device and inode; the
    # run is refused before its work starts and both names keep their bytes
    monkeypatch.setattr(cli, "_beat_and_gaps", lambda *a: pytest.fail("the subcommand ran"))
    target, linked = tmp_path / "target.csv", tmp_path / "linked.csv"
    target.write_bytes(b"kept\n")
    try:
        os.link(target, linked)
    except OSError as exc:
        pytest.skip(f"cannot hard-link here: {exc}")
    code, out, err = run(capsys, "mc", "--n", "3", "--samples", "50", "--output", str(target), "--gap-hist", str(linked))
    assert (code, out) == (2, "") and err == "error: two output destinations name the same file\n"
    assert target.read_bytes() == linked.read_bytes() == b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["linked.csv", "target.csv"]


def _devnull_is_a_device():
    try:
        return stat.S_ISCHR(os.stat(os.devnull).st_mode)
    except OSError:
        return False


def _each_subcommand(tmp_path):
    # one small run of every subcommand that takes --output
    unitary, stochastic = tmp_path / "u.json", tmp_path / "t.json"
    save_matrix(unitary, fourier_matrix(4))
    save_matrix(stochastic, np.full((3, 3), 1.0 / 3.0))
    return (
        ["bounds", "--input", str(unitary)],
        ["sweep", "--family", "rotation", "--range", "0:1", "--steps", "5"],
        ["scan", "--grid-step", "0.1"],
        ["mc", "--n", "3", "--samples", "50"],
        ["fuzz", "--n", "3", "--pairs", "20"],
        ["classical", "--input", str(stochastic), "--samples", "20"],
    )


@pytest.mark.skipif(not _devnull_is_a_device(), reason="os.devnull is not a character device")
def test_output_to_devnull_succeeds(tmp_path, capsys):
    # a destination that is not a regular file is written without a truncate
    for argv in _each_subcommand(tmp_path):
        assert run(capsys, *argv, "--output", os.devnull) == (0, "", ""), argv
    code, out, err = run(capsys, "mc", "--n", "3", "--samples", "50", "--gap-hist", os.devnull)
    assert code == 0 and err == ""
    assert json.loads(out)["samples"] == 50
    # two destinations naming the one device are still refused
    code, out, err = run(capsys, "mc", "--n", "3", "--samples", "50", "--gap-hist", os.devnull, "--output", os.devnull)
    assert code == 2 and out == "" and "two output destinations name the same file" in err


def test_output_overwrites_longer_file(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    for argv in _each_subcommand(tmp_path):
        code, expected, _ = run(capsys, *argv)
        out_path.write_text("x" * 100 + "\n" + expected * 3)
        assert run(capsys, *argv, "--output", str(out_path)) == (code, "", ""), argv
        assert out_path.read_text() == expected, argv


def test_verify_writes_nothing_when_a_check_raises(monkeypatch, capsys):
    # the report is written once every check has run
    def broken(seed):
        raise ValueError("broken check")

    passing = cli._VERIFY_CHECKS[-1]
    monkeypatch.setattr(cli, "_VERIFY_CHECKS", (passing, ("broken", broken), passing))
    assert run(capsys, "verify") == (2, "", "error: broken check\n")
    monkeypatch.setattr(cli, "_VERIFY_CHECKS", (passing, ("failing", lambda seed: (False, "why"))))
    assert run(capsys, "verify") == (1, "PASS  scan-smoke\nFAIL  failing: why\n1/2 checks passed\n", "")


def test_classical_rejects_nonpositive_samples(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_matrix(path, np.eye(3))
    out_path = tmp_path / "out.json"
    for samples in ("0", "-3"):
        for extra in ([], ["--output", str(out_path)]):
            code, out, err = run(capsys, "classical", "--input", str(path), "--samples", samples, *extra)
            assert code == 2 and out == ""
            assert "samples must be >= 1" in err
    assert not out_path.exists()


def test_fuzz_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "fuzz", "--n", "3", "--pairs", "200", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == 0
    assert obj["pairs"] == 200


def test_classical_cli_with_p(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_matrix(path, np.eye(3))
    code, out, _ = run(capsys, "classical", "--input", str(path), "--p", "0.2,0.3,0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == 0.0
    assert obj["kappa"] == 1.0
    assert obj["mixture_inequalities_hold"] is True
    assert obj["bound_holds"] is True
    assert abs(obj["mixture_entropy"]) <= 1e-12
    assert abs(obj["output_entropy"] - obj["input_entropy"]) <= 1e-12


def test_classical_cli_random(tmp_path, capsys):
    path = tmp_path / "t.json"
    t = np.array([[0.6, 0.3, 0.1], [0.2, 0.4, 0.2], [0.2, 0.3, 0.7]])
    save_matrix(path, t)
    code, out, _ = run(capsys, "classical", "--input", str(path), "--samples", "150", "--seed", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_hold"] is True
    assert obj["samples"] == 150
    assert obj["min_slack_lower"] >= -1e-10
    assert obj["min_slack_upper"] >= -1e-10
    assert obj["min_slack_bound"] >= -1e-10


def test_classical_rejects_complex(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_matrix(path, fourier_matrix(3))
    code, _, err = run(capsys, "classical", "--input", str(path), "--p", "0.5,0.3,0.2")
    assert code == 2
    assert "real" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "10/10 checks passed"


def test_verify_ladder_check_makes_one_kernel_call_and_five_ladder_calls_per_n(monkeypatch):
    # and five entropy-sum calls per n, one per order, each on the ten draws'
    # five states, where there were 50 one-draw calls
    kernels, ladders, vectors = _spy_kernel_and_ladder(monkeypatch)
    sums = []
    lhs = cli.eur_lhs

    def spy(u, psi, a):
        sums.append((np.shape(u), np.shape(psi), a))
        return lhs(u, psi, a)

    monkeypatch.setattr(cli, "eur_lhs", spy)
    assert cli._verify_ladder(RngSeed(0)) == (True, "")
    assert kernels == [(10, n, n) for n in range(2, 7)]
    orders = [0.0, 0.5, 1.0, 2.0, math.inf]
    assert ladders == [((10, n), a) for n in range(2, 7) for a in orders]
    assert vectors == [(10, n) for n in range(2, 7)]
    assert sums == [((10, n, n), (10, 5, n), a) for n in range(2, 7) for a in orders]


@pytest.mark.parametrize("dips", [(), ((4, 3, 0.5), (4, 5, 0.0))])
def test_verify_ladder_check_compares_each_draw_with_its_own_ladder(monkeypatch, dips):
    # entropy sums just inside the tolerance below each draw's own ladder top
    # pass; dipping below it at (n = 4, draw 3, order 1/2) and at a later draw
    # (draw 5, order 0, which is evaluated first) is reported at the first
    # dip in draw order
    def lhs(us, states, a):
        slack = np.full(states.shape[:-1], 0.5)
        for n, draw, order in dips:
            if us.shape[-1] == n and a == order:
                slack[draw] = 2.0
        tops = np.array([bound_ladder(u, a).ladder[-1] for u in us])
        return tops[:, None] - slack * cli.ENTROPY_TOL

    monkeypatch.setattr(cli, "eur_lhs", lhs)
    want = (False, "entropy sum below ladder top at n=4 alpha=0.5") if dips else (True, "")
    assert cli._verify_ladder(RngSeed(0)) == want


@pytest.mark.parametrize(
    "dip, want",
    [
        ((2, 2.0), "ladder not monotone at n=5 alpha=2.0"),
        ((1, math.inf), "entropy sum below ladder top at n=5 alpha=inf"),
        ((2, 0.5), "entropy sum below ladder top at n=5 alpha=0.5"),
    ],
)
def test_verify_ladder_check_reports_draw_then_order_then_fall_before_sums(monkeypatch, dip, want):
    # at n = 5 draw 2's rungs fall at order 2, and the entropy sums of one
    # (draw, order) dip: the first failure is taken draw by draw, then order
    # by order, and a fall comes before the sums at its own order
    ladder, lhs = cli._ladder_report, cli.eur_lhs

    def falling(sc, mv, alpha):
        rep = ladder(sc, mv, alpha)
        if sc.n == 5 and alpha == 2.0:
            rep.ladder[2, 1] = rep.ladder[2, 0] - 2 * cli.LADDER_MONOTONE_TOL
        return rep

    def dipping(us, states, a):
        sums = lhs(us, states, a)
        if us.shape[-1] == 5 and a == dip[1]:
            sums[dip[0]] = -1.0
        return sums

    monkeypatch.setattr(cli, "_ladder_report", falling)
    monkeypatch.setattr(cli, "eur_lhs", dipping)
    assert cli._verify_ladder(RngSeed(0)) == (False, want)


def test_verify_deutsch_check_makes_one_call_of_each_per_n(monkeypatch):
    # one stack of 20 draws per n through the closed forms, the maximizing
    # state and the max product, where there were 20 one-draw calls of each
    calls = []
    for name in ("bound_deutsch", "bound_mu", "maximizing_state", "deutsch_max_product"):
        def spy(x, name=name, call=getattr(cli, name)):
            calls.append((name, np.shape(getattr(x, "first_set", x))))
            return call(x)

        monkeypatch.setattr(cli, name, spy)
    assert cli._verify_deutsch(RngSeed(0)) == (True, "")
    want = []
    for n in range(2, 7):
        want += [("bound_deutsch", (20, n, n)), ("bound_mu", (20, n, n))]
        want += [("maximizing_state", (20, 1, n)), ("deutsch_max_product", (20, n, n))]
    assert calls == want


@pytest.mark.parametrize(
    "faults, want",
    [
        ({"ordering": 7, "product": 4}, "max product cross-check failed at n=3"),
        ({"ordering": 4, "product": 4}, "closed-form ordering violated at n=3"),
        ({"ordering": 4}, "closed-form ordering violated at n=3"),
        ({"product": 19}, "max product cross-check failed at n=3"),
    ],
)
def test_verify_deutsch_check_reports_the_first_failure_in_draw_order(monkeypatch, faults, want):
    # at n = 3 one draw's Deutsch bound is raised past -2 ln c and one
    # draw's max product is moved off: the first draw's failure is reported,
    # the ordering before the product within a draw
    deutsch, product = cli.bound_deutsch, cli.deutsch_max_product

    def raised(us):
        out = deutsch(us)
        if us.shape[-1] == 3 and "ordering" in faults:
            out[faults["ordering"]] += 1.0
        return out

    def moved(us):
        out = product(us)
        if us.shape[-1] == 3 and "product" in faults:
            out[faults["product"]] += 2 * cli.MAX_PRODUCT_TOL
        return out

    monkeypatch.setattr(cli, "bound_deutsch", raised)
    monkeypatch.setattr(cli, "deutsch_max_product", moved)
    assert cli._verify_deutsch(RngSeed(0)) == (False, want)


def test_verify_reports_lift_residual(capsys, monkeypatch):
    # a scan lift above LIFT_RESIDUAL_TOL fails scan-smoke instead of escaping
    monkeypatch.setattr(families, "lift_residual", lambda u, mat: np.ones(np.shape(u)[:-2]))
    code, out, _ = run(capsys, "verify", "--seed", "0")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[-2] == "FAIL  scan-smoke: lift residual 1.000e+00 at (0.0, 0.0) exceeds 1e-09"
    assert lines[-1] == "9/10 checks passed"


def test_verify_at_largest_seed(capsys):
    # the seed is the Philox key and each draw a sample index, so the largest
    # seed needs no wrap
    code, out, _ = run(capsys, "verify", "--seed", "18446744073709551615")
    assert code == 0
    assert out.strip().split("\n")[-1] == "10/10 checks passed"


def test_ensembles_refuse_large_n_before_sampling(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(montecarlo, "_haar_batch", fail)
    for argv in (["mc", "--n", "13", "--samples", "1"], ["fuzz", "--n", "13", "--pairs", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "dimension 13 exceeds the enumeration guard (12)" in err


def test_bad_alpha_exit(tmp_path, capsys):
    path = write_f3(tmp_path)
    for token in ("-1", "nan", "-inf"):
        code, out, err = run(capsys, "bounds", "--input", path, f"--alpha={token}")
        assert code == 2 and out == ""
        assert "order" in err


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # the top parser and its 7 subparsers on the first call, none after
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    path = write_f3(tmp_path)
    counts = []
    for argv in (
        ["bounds", "--input", path],
        ["fuzz", "--n", "2", "--pairs", "3"],
        ["sweep", "--family", "rotation", "--range", "0:1", "--steps", "3"],
    ):
        assert main(argv) == 0
        counts.append(len(built))
    capsys.readouterr()
    assert counts == [8, 8, 8]
    assert built[0] == "eub" and len(set(built)) == 8


def test_main_reuse_carries_no_state(tmp_path, capsys):
    # a reused parser reads every call as a fresh one would: no order, refusal
    # or gap histogram of an earlier call leaks into the next
    path = write_f3(tmp_path)
    cli._build_parser.cache_clear()
    code, first, _ = run(capsys, "bounds", "--input", path)
    assert code == 0
    cli._build_parser.cache_clear()
    code, out, _ = run(capsys, "bounds", "--input", path, "--alpha", "2", "--alpha", "inf")
    assert code == 0
    assert [r["alpha"] for r in json.loads(out)["reports"]] == [2.0, "inf"]
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    code, again, _ = run(capsys, "bounds", "--input", path)
    assert code == 0 and again == first
    assert [r["alpha"] for r in json.loads(again)["reports"]] == [1.0]

    hist_path = tmp_path / "gap.csv"
    args = ["mc", "--n", "2", "--samples", "100", "--seed", "3"]
    assert main(args + ["--gap-hist", str(hist_path)]) == 0
    hist_path.unlink()
    assert main(args) == 0
    capsys.readouterr()
    assert not hist_path.exists() and list(tmp_path.glob("*.csv")) == []


def test_import_generates_no_dataclass_code():
    """Importing eub and eub.cli after numpy, argparse and json loads no
    dataclasses: each frozen dataclass execs six generated methods when it
    is defined, most of the package's import time from bytecode."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys, argparse, numpy; before = set(sys.modules); import eub, eub.cli; "
            "print(json.dumps([eub.__file__, sorted(set(sys.modules) - before)]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    where, added = json.loads(out.stdout)
    assert Path(where).parent == src / "eub" and "eub.cli" in added
    assert "dataclasses" not in added


def _load_tool(name, folder="tools"):
    path = Path(__file__).resolve().parents[1] / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE_LINES_FIXTURE = '''"""A module docstring.

Its second paragraph.
"""

import os  # a trailing comment leaves its line code

# a comment-only line
TEXT = """first
second
"""


def f():
    """One line."""
    return os.sep
'''


def test_code_lines_splits_a_file_by_kind(capsys):
    """tools/code_lines.py counts a docstring with a blank line inside, a
    comment-only line and a multi-line string inside code by the rule of
    its docstring, and each file of src/eub sums to its line count."""
    tool = _load_tool("code_lines")
    assert tool.count(CODE_LINES_FIXTURE) == {"lines": 16, "code": 6, "comment": 1, "docstring": 4, "blank": 5}
    files = tool.python_files([Path(tool.ROOT) / "src" / "eub"])
    assert files
    for path in files:
        counts = tool.count(path.read_text(encoding="utf-8"))
        assert sum(counts[kind] for kind in tool.KINDS) == counts["lines"] == len(path.read_text(encoding="utf-8").splitlines()), path
    assert tool.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(files) + 2 and rows[-1].endswith("  total")


def _large_inputs(tool):
    # the file names of the bounds inputs at N = 10 and past, which the
    # rerun test leaves out
    dims = (
        ("haar", tool.HAAR_DIMS), ("fourier", tool.FOURIER_DIMS),
        ("perm_half", tool.PERM_HALF_DIMS), ("perm_third", tool.PERM_THIRD_DIMS),
        ("fourier", tool.LARGE_FOURIER_DIMS), ("shift", tool.LARGE_SHIFT_DIMS),
    )
    return {f"{name}{n}.json" for name, ns in dims for n in ns if n >= 10}


def _large_bounds(tool, workdir):
    # the bounds commands on those inputs, in run order
    large = _large_inputs(tool)
    return [argv for argv in tool.command_set(workdir) if argv[0] == "bounds" and Path(argv[2]).name in large]


def test_cli_digests_rerun_identical(tmp_path, monkeypatch):
    """Every command of tools/cli_digests.py exits 0, or 2 for exactly the
    refused inputs, which run last, and reruns byte-identically. The pinned
    lines are one per command, those of this pass and of the large bounds
    reports it leaves out; on the build they were made with, this pass
    prints its own."""
    tool = _load_tool("cli_digests")
    header, *pinned = (Path(tool.__file__).parent / "cli_digests.expected").read_text().splitlines()
    workdir = str(tmp_path)
    large = [tool.shown(argv, workdir) for argv in _large_bounds(tool, workdir)]
    refused = [tool.shown(argv, workdir) for argv in tool.refused_commands(workdir)]
    pinned_argvs = [line.split("  ", 2)[2] for line in pinned]
    assert len(set(pinned_argvs)) == len(pinned_argvs)
    # bounds reports at N = 10 take most of a full pass
    for name in ("HAAR_DIMS", "FOURIER_DIMS", "PERM_HALF_DIMS", "PERM_THIRD_DIMS", "LARGE_FOURIER_DIMS", "LARGE_SHIFT_DIMS"):
        monkeypatch.setattr(tool, name, tuple(n for n in getattr(tool, name) if n <= 9))
    first = tool.run()
    argvs, codes = [line.split("  ", 2)[2] for line in first], [line.split("  ")[1] for line in first]
    assert sorted(argvs + large) == sorted(pinned_argvs)
    assert [argv for argv, code in zip(argvs, codes) if code == "2"] == refused == argvs[-len(refused) :]
    assert set(codes[: -len(refused)]) <= {"0", "-"}
    assert tool.run() == first
    if header != tool.environment():
        pytest.skip(f"digests pinned on {header[2:]!r}, this is {tool.environment()[2:]!r}")
    by_argv = {line.split("  ", 2)[2]: line for line in pinned}
    assert first == [by_argv[argv] for argv in argvs]


def test_cli_digests_large_bounds_match_pinned(tmp_path):
    """The bounds reports at N = 10-12, and those past the enumeration guard
    (F13, F16 and the 16-cycle shift, with --allow-large-n), which the rerun
    test leaves out, print their pinned lines, on the build they were pinned
    on."""
    tool = _load_tool("cli_digests")
    header, *pinned = (Path(tool.__file__).parent / "cli_digests.expected").read_text().splitlines()
    if header != tool.environment():
        pytest.skip(f"digests pinned on {header[2:]!r}, this is {tool.environment()[2:]!r}")
    workdir = str(tmp_path)
    commands = _large_bounds(tool, workdir)
    # Haar 10-12, F10, F12, P10^(1/2)-P12^(1/2) and P10^(1/3), and past the
    # guard F13, F16 and the 16-cycle shift
    assert len(commands) == len(_large_inputs(tool)) == 12
    assert sum("--allow-large-n" in argv for argv in commands) == 3
    lines = tool.digest_lines(commands, workdir)
    by_argv = {line.split("  ", 2)[2]: line for line in pinned}
    assert lines == [by_argv[line.split("  ", 2)[2]] for line in lines]


def test_cli_digests_under_an_unread_variable_moves_no_line(capsys):
    """--under reruns the digests in one child process with the variable
    added to its environment; one that nothing reads moves no line, on the
    build the lines were pinned on."""
    tool = _load_tool("cli_digests")
    header = (Path(tool.__file__).parent / "cli_digests.expected").read_text().splitlines()[0]
    if header != tool.environment():
        pytest.skip(f"digests pinned on {header[2:]!r}, this is {tool.environment()[2:]!r}")
    assert tool._main(["--under", "EUB_DIGESTS_UNREAD_VARIABLE=1"]) == 0
    assert capsys.readouterr().out == f"0 of {len(tool.pinned_lines())} lines moved\n"


def test_bench_tracer_wraps_resolve(monkeypatch):
    """Every (consuming module, name) pair that bench/tracer.py wraps
    resolves, so a traced benchmark run can install its spans: eub.cli keeps
    noqa imports of names that only the tracer reads."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    tracer = _load_tool("tracer", "bench")
    assert len(tracer.WRAPS) > 0
    for module, name, _, _ in tracer.WRAPS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_bench_record_runs_as_the_benchmark_runs(monkeypatch, tmp_path):
    """run_once runs bench/run.py of the checkout with no PYTHONPYCACHEPREFIX,
    even when the caller set one, and with PYTHONDONTWRITEBYTECODE=1, so
    numpy reads its installed bytecode and eub compiles from source, as in
    the benchmark's own runs."""
    tool = _load_tool("bench_record")
    seen = {}

    def fake_run(argv, cwd, env, capture_output, text):
        seen.update(argv=argv, cwd=cwd, env=env)
        return SimpleNamespace(returncode=0, stdout='{"detail": 1}\n{"result": 2}\n', stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run_once("small-reports", 7, tmp_path) == ({"detail": 1}, {"result": 2})
    assert seen["argv"][1:] == [str(tmp_path / "bench" / "run.py"), "--workload", "small-reports", "--seed", "7",
                                "--seconds", "20.0", "--trace", "0"]
    assert seen["cwd"] == tmp_path and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in seen["env"] and seen["env"]["PATH"] == os.environ["PATH"]
    assert os.environ["PYTHONPYCACHEPREFIX"] == str(tmp_path / "cache")


def _bench_checkouts(tool, tmp_path, monkeypatch):
    """A parent and a change checkout holding what the tool looks for; the change is the tool's ROOT."""
    roots = {}
    for side in ("parent", "change"):
        root = roots[side] = tmp_path / side
        for need in ("bench/run.py", "src/eub/__init__.py"):
            (root / need).parent.mkdir(parents=True, exist_ok=True)
            (root / need).write_text("")
    (roots["change"] / "BENCHMARK.json").write_text((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", roots["change"])
    return roots


def _fake_bench_runs(spec, roots, calls, sha=None, nproc=None):
    """A run_once whose change reads 10% better than the parent on every seed
    but the last, with op_tail_ms and peak_rss_mb 20% higher, and whose
    small-reports run of the change at seed 202 fails one operation."""
    def fake(workload, seed, root):
        side = "parent" if root == roots["parent"] else "change"
        calls.append((seed, workload, side))
        speed = 1.1 if side == "change" and seed < 204 else 1.0
        metrics = {m["name"]: {"value": float(seed) * (speed if m["better"] == "higher" else 1 / speed)}
                   for m in spec["end_to_end"]}
        if side == "change":
            for name in ("op_tail_ms", "peak_rss_mb"):
                metrics[name]["value"] = float(seed) * 1.2
        bad = (side, workload, seed) == ("change", "small-reports", 202)
        env = {"nproc": (nproc or {}).get(side, 2), "git_sha": (sha or {}).get(side, f"sha-{side}"),
               "src_sha256": f"src-{side}", "seed": seed}
        return ({"env": env, "raw_round_walls_s": [seed / 100]},
                {"correct": not bad, "failed": int(bad), "attempted": 3, "metrics": metrics})
    return fake


def test_bench_record_runs_alternating_pairs(tmp_path, capsys, monkeypatch):
    """The tool runs the parent checkout and this one seed by seed, each seed
    through every named workload, with the other side first at each next
    seed, prints per workload both sides' correctness and the verdict table,
    and writes both sides' runs and that table to BENCH_<label>.json."""
    tool = _load_tool("bench_record")
    spec = tool.load_json(Path(__file__).resolve().parents[1] / "BENCHMARK.json")
    roots = _bench_checkouts(tool, tmp_path, monkeypatch)
    calls = []
    monkeypatch.setattr(tool, "run_once", _fake_bench_runs(spec, roots, calls))
    assert tool.main(["snap", "--pairs", str(roots["parent"]), "--workload", "large-n-report",
                      "--workload", "small-reports", "--seed", "201", "--count", "4"]) == 0
    assert calls == [(seed, workload, side)
                     for seed, order in ((201, ("parent", "change")), (202, ("change", "parent")),
                                         (203, ("parent", "change")), (204, ("change", "parent")))
                     for workload in ("large-n-report", "small-reports") for side in order]
    data = json.loads((roots["change"] / "BENCH_snap.json").read_text())
    assert datetime.fromisoformat(data.pop("recorded_utc")).utcoffset() == timedelta(0)
    assert {k: v for k, v in data.items() if k != "workloads"} == {
        "label": "snap", "env": {"nproc": 2}, "seeds": [201, 202, 203, 204], "count": 4, "seconds": 20.0,
        "sides": {side: {"git_sha": f"sha-{side}", "src_sha256": f"src-{side}"} for side in ("parent", "change")}}
    assert list(data["workloads"]) == ["large-n-report", "small-reports"]
    small = data["workloads"]["small-reports"]
    assert small["change"] == {"correct": False, "failed": 1, "attempted": 12,
                               "raw_round_walls_s": [[2.01], [2.02], [2.03], [2.04]]}
    assert (small["parent"]["correct"], small["parent"]["failed"]) == (True, 0)
    metrics = data["workloads"]["large-n-report"]["metrics"]
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    items = metrics["items_per_s"]
    assert items["unit"] == "1/s" and items["parent"] == [201.0, 202.0, 203.0, 204.0]
    assert items["change"] == pytest.approx([221.1, 222.2, 223.3, 204.0])
    # parent quartiles 201.75 / 202.5 / 203.25; the change wins 3 of 4
    assert items["parent_quartiles"] == [201.75, 202.5, 203.25] and items["change_better"] == 3
    assert items["beyond_parent_iqr"] and not items["past_bound"]
    assert metrics["wall_s"]["change_better"] == 3
    # 20% worse on a bound of 25% and of 10%
    assert (metrics["op_tail_ms"]["past_bound"], metrics["peak_rss_mb"]["past_bound"]) == (False, True)
    assert metrics["peak_rss_mb"]["change_of_medians"] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"]["change_better"] == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "large-n-report: 4 pairs, seeds 201-204; parent correct True, failed 0; change correct True, failed 0"
    assert out[1].split()[0] == "metric" and out[-1] == str(roots["change"] / "BENCH_snap.json")
    rows = {line.split()[0]: line.split() for line in out[2:2 + len(spec["end_to_end"])]}
    assert rows["items_per_s"][1:6] == ["201.75", "/", "202.5", "/", "203.25"]
    assert rows["items_per_s"][-6:] == ["+9.5%", "yes", "no", "3", "of", "4"]
    assert rows["peak_rss_mb"][-6:] == ["+20.0%", "yes", "yes", "0", "of", "4"]
    heading = out[2 + len(spec["end_to_end"])]
    assert heading.endswith("change correct False, failed 1")


def test_bench_record_refuses_a_record_without_a_git_sha(tmp_path, monkeypatch, capsys):
    """Runs of either side that name no git commit, as in a checkout without
    .git, and runs made in different environments exit 2 and write no file;
    so do an unknown workload, a count below 1 and a bad label."""
    tool = _load_tool("bench_record")
    spec = tool.load_json(Path(__file__).resolve().parents[1] / "BENCHMARK.json")
    roots = _bench_checkouts(tool, tmp_path, monkeypatch)
    argv = ["nosha", "--pairs", str(roots["parent"]), "--workload", "ensemble-kernel", "--seed", "5", "--count", "2"]
    for fake, message in (
        *((_fake_bench_runs(spec, roots, [], sha={side: None}), "git clones") for side in ("parent", "change")),
        (_fake_bench_runs(spec, roots, [], nproc={"change": 4}), "another environment"),
    ):
        monkeypatch.setattr(tool, "run_once", fake)
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err
    for bad in (["--workload", "none"], ["--count", "0"], ["--workload"]):
        with pytest.raises(SystemExit) as exc:
            tool.main(argv + bad)
        assert exc.value.code == 2
    for label in ("../elsewhere", ""):
        with pytest.raises(SystemExit) as exc:
            tool.main([label] + argv[1:])
        assert exc.value.code == 2
    assert sorted(p.name for p in roots["change"].iterdir()) == ["BENCHMARK.json", "bench", "src"]


def test_bench_record_refuses_bytecode_under_src(tmp_path, monkeypatch, capsys):
    """A __pycache__ anywhere under either checkout's src, or a checkout
    without bench/run.py or src/eub/__init__.py, is refused by name before
    any run starts, and no file is written; so is a run that names no
    workload."""
    tool = _load_tool("bench_record")
    roots = _bench_checkouts(tool, tmp_path, monkeypatch)
    calls = []
    monkeypatch.setattr(tool, "run_once", lambda *args: calls.append(args))
    argv = ["stale", "--pairs", str(roots["parent"]), "--workload", "small-reports", "--seed", "5"]
    for side in ("parent", "change"):
        for where in ("src/eub/__pycache__", "src/__pycache__", "src/eub/sub/__pycache__"):
            stale = roots[side] / where
            stale.mkdir(parents=True)
            with pytest.raises(SystemExit) as exc:
                tool.main(argv)
            assert exc.value.code == 2 and str(stale) in capsys.readouterr().err
            stale.rmdir()
        for need in ("bench/run.py", "src/eub/__init__.py"):
            (roots[side] / need).unlink()
            with pytest.raises(SystemExit) as exc:
                tool.main(argv)
            assert exc.value.code == 2 and f"{roots[side]} holds no {need}" in capsys.readouterr().err
            (roots[side] / need).write_text("")
    with pytest.raises(SystemExit) as exc:
        tool.main([arg for arg in argv if arg not in ("--workload", "small-reports")])
    assert exc.value.code == 2 and "--workload" in capsys.readouterr().err
    assert calls == [] and not list(roots["change"].glob("BENCH_*"))


def _states_per_draw(seed, n, pairs):
    # the extremal check's states drawn one at a time, as (real, imaginary)
    # pairs from the check's generator, after each pair's two set sizes
    g = generator(seed)
    states = []
    for _ in range(pairs):
        g.integers(1, n + 1), g.integers(1, n + 1)
        for _ in range(200):
            v = g.standard_normal(n) + 1j * g.standard_normal(n)
            states.append(v / np.linalg.norm(v))
    return states


def test_verify_extremal_check_makes_one_objective_call_per_pair_and_one_per_attainment(monkeypatch):
    # 25 stacks of 200 states and 25 attainment states, where there were 5025
    # one-state calls; the stacked states are the one-at-a-time draws, bit for bit
    calls = []
    objective = cli.pair_objective

    def spy(sp, psi):
        calls.append(np.array(psi))
        return objective(sp, psi)

    monkeypatch.setattr(cli, "pair_objective", spy)
    assert cli._verify_extremal(RngSeed(0)) == (True, "")
    assert [c.shape for c in calls] == [s for n in range(2, 7) for _ in range(5) for s in ((200, n), (n,))]
    stacked = np.concatenate([c for c in calls if c.ndim == 2][:5])
    reference = np.array(_states_per_draw(RngSeed(0), 2, 5))
    assert [v.hex() for v in stacked.view(float).ravel()] == [v.hex() for v in reference.view(float).ravel()]


@pytest.mark.parametrize("top, want", [(0.0, "objective exceeded bound at n=5"), (3.0, "attainment failed at n=5")])
def test_verify_extremal_check_reports_the_first_failure(monkeypatch, top, want):
    # the third pair at n = 5 and every pair at n = 6 get a wrong lemma value:
    # 0 fails the random states before the attainment check, 3 only the latter
    seen = []
    lemma = cli.lemma_max_value

    def wrong(sp):
        n = sp.first_set.shape[1]
        seen.append(n)
        return top if (n == 5 and seen.count(5) == 3) or n == 6 else lemma(sp)

    monkeypatch.setattr(cli, "lemma_max_value", wrong)
    assert cli._verify_extremal(RngSeed(0)) == (False, want)


def _spy_checked_coefficients(monkeypatch):
    shapes = []
    checked = cli._checked_coefficients

    def spy(u, *args):
        shapes.append(np.shape(u))
        return checked(u, *args)

    def single(*args):
        raise AssertionError("one-matrix s_coefficients call")

    monkeypatch.setattr(cli, "_checked_coefficients", spy)
    monkeypatch.setattr(cli, "s_coefficients", single)
    return shapes


def test_verify_chain_and_transform_checks_make_one_kernel_call_per_n(monkeypatch):
    # 5 and 4 stacks, where there were 100 and 80 one-matrix calls; the
    # transform check takes its bounds from one ladder call per order on
    # the 20-row report of each n
    shapes = _spy_checked_coefficients(monkeypatch)
    _, ladders, vectors = _spy_kernel_and_ladder(monkeypatch)
    assert cli._verify_chain(RngSeed(0)) == (True, "")
    assert shapes == [(20, n, n) for n in range(2, 7)]
    shapes.clear()
    ladders.clear()
    vectors.clear()
    assert cli._verify_transform_invariance(RngSeed(0)) == (True, "")
    assert shapes == [(20, n, n) for n in range(2, 6)]
    assert ladders == [((20, n), a) for n in range(2, 6) for a in (0.0, 0.5, 1.0, 2.0, math.inf)]
    assert vectors == [(20, n) for n in range(2, 6)]


def test_verify_chain_reports_the_first_break_in_draw_order(monkeypatch):
    # at n = 5, Q^(3) of draw 7 and Q^(2) of draw 12 are made uniform, so each
    # is majorized by nothing longer: draw 7's break at k = 3 comes first in
    # the draw-then-k loop order, though draw 12 breaks at a smaller k
    build = cli.majorizing_vector

    def broken(sc):
        mv = build(sc)
        if sc.n != 5:
            return mv
        truncs = [t.copy() for t in mv.truncations]
        for draw, k in ((7, 3), (12, 2)):
            truncs[k - 1][draw] = 1.0 / (k + 1)
        return MajorizingVector(q_full=truncs[-1], truncations=tuple(truncs))

    monkeypatch.setattr(cli, "majorizing_vector", broken)
    assert cli._verify_chain(RngSeed(0)) == (False, "chain break at n=5 k=3")


def test_verify_transform_check_reports_the_first_drift(monkeypatch):
    # at n = 4, draw 6's transformed matrix is replaced by one with rows 0
    # and 1 slightly rotated (a column rotation leaves this draw's s alone)
    # and draw 8's by the identity: the first drift in draw order is
    # reported with its own size, not the larger one after it
    seed = RngSeed(0)
    draws = {i: cli._haar_batch(4, seed, 97 * 4, 10, False)[0][i] for i in (6, 8)}
    c, s = math.cos(0.01), math.sin(0.01)
    rot = np.eye(4, dtype=complex)
    rot[:2, :2] = [[c, -s], [s, c]]
    swaps = {6: rot @ draws[6], 8: np.eye(4, dtype=complex)}
    apply = cli.apply_transform

    def drifted(u, t):
        for i, w in swaps.items():
            if u.shape == w.shape and np.array_equal(u, draws[i]):
                return w
        return apply(u, t)

    drift = {i: float(np.abs(s_coefficients(draws[i]).s - s_coefficients(swaps[i]).s).max()) for i in swaps}
    assert cli.TRANSFORM_INVARIANCE_TOL < drift[6] < drift[8]
    monkeypatch.setattr(cli, "apply_transform", drifted)
    assert cli._verify_transform_invariance(seed) == (False, f"s drifted {drift[6]:.3e} under transform at n=4")


def test_verify_transform_check_reports_the_first_bound_drift(monkeypatch):
    # at n = 4 and order 2 the transformed rows of draws 3 and 7 (stack rows
    # 7 and 15) get every rung raised by 2 and 5 times the tolerance: the
    # first drift in draw order is reported with its own size
    tol = cli.TRANSFORM_INVARIANCE_TOL

    def drifted(sc, mv, alpha):
        rep = _ladder_report(sc, mv, alpha)
        if sc.n == 4 and alpha == 2.0:
            rep.ladder[7] += 2 * tol
            rep.ladder[15] += 5 * tol
        return rep

    monkeypatch.setattr(cli, "_ladder_report", drifted)
    want = (False, "bounds drifted 2.000e-10 under transform at n=4 alpha=2.0")
    assert cli._verify_transform_invariance(RngSeed(0)) == want


def _nan_ladder(sc, mv, alpha):
    rep = _ladder_report(sc, mv, alpha)
    rep.ladder[:] = math.nan
    return rep


# (check, module and name patched, its NaN-returning stand-in, the failure)
NAN_VALUES = {
    "ladder-lhs": (
        cli._verify_ladder, cli, "eur_lhs", lambda u, psi, a: np.full(np.shape(psi)[:-1], math.nan),
        "entropy sum below ladder top at n=2 alpha=0.0",
    ),
    "extremal-lemma": (
        cli._verify_extremal, cli, "lemma_max_value", lambda sp: math.nan, "objective exceeded bound at n=2",
    ),
    "deutsch-product": (
        cli._verify_deutsch, cli, "deutsch_max_product", lambda u: np.full(len(u), math.nan),
        "max product cross-check failed at n=2",
    ),
    "deutsch-mu": (
        cli._verify_deutsch, cli, "bound_mu", lambda u: np.full(len(u), math.nan), "closed-form ordering violated at n=2",
    ),
    "transform-bounds": (
        cli._verify_transform_invariance, cli, "_ladder_report", _nan_ladder,
        "bounds drifted nan under transform at n=2 alpha=0.0",
    ),
    "product-majorization": (
        cli._verify_product_majorization, montecarlo, "_majorization_slack",
        lambda y, x: np.full(np.shape(x), math.nan),
        "300 majorization violations at n=2",
    ),
    "beat-rate": (
        cli._verify_beat_rate, cli, "beat_rate", lambda n, samples, seed: SimpleNamespace(rate=math.nan),
        "beat rate nan far from 0.814",
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_VALUES))
def test_verify_checks_fail_on_nan(monkeypatch, case):
    # every comparison is a passing test negated, so a NaN fails its check
    check, module, name, stand_in, want = NAN_VALUES[case]
    monkeypatch.setattr(module, name, stand_in)
    assert check(RngSeed(0)) == (False, want)


def _scan_with(points, feasible):
    # cross_section_scan with its feasibility column set to `feasible` at
    # points, the rounded (a, b) of verify's scan check, or everywhere for None
    def scan(grid_step, alpha):
        columns = families.cross_section_scan(grid_step, alpha)
        keys = [(round(a, 9), round(b, 9)) for a, b in zip(columns.a.tolist(), columns.b.tolist())]
        at = [points is None or key in points for key in keys]
        return columns._replace(feasible=np.where(at, feasible, columns.feasible))

    return scan


# (check, module and name patched, its stand-in, the failure) for the
# verify failures that no NaN reaches
VERIFY_FAULTS = {
    # a maximizer moved by 1e-6: its objective drops by about 1e-12, inside
    # OVERLAP_SUM_TOL, while its partial sums part by about 1e-6
    "extremal-sums": (
        cli._verify_extremal, cli, "maximizing_state",
        lambda sp: _unit_normalized(maximizing_state(sp) + 1e-6 * sp.first_set[0]), "partial sums unequal at n=2",
    ),
    "extremal-block": (
        cli._verify_extremal, cli, "cross_gram", lambda sp: 2 * cross_gram(sp), "block eigenvalue mismatch at n=2",
    ),
    "scan-corner": (
        cli._verify_scan, cli, "cross_section_scan", _scan_with(None, feasible=False), "corner (0.0, 0.0) not feasible",
    ),
    "scan-center": (
        cli._verify_scan, cli, "cross_section_scan", _scan_with({(0.3, 0.3)}, feasible=False),
        "near-center point not feasible",
    ),
    "scan-edge": (
        cli._verify_scan, cli, "cross_section_scan", _scan_with({(0.5, 0.5)}, feasible=True),
        "edge midpoint unexpectedly feasible",
    ),
}


@pytest.mark.parametrize("case", sorted(VERIFY_FAULTS))
def test_verify_checks_report_their_faults(monkeypatch, case):
    check, module, name, stand_in, want = VERIFY_FAULTS[case]
    monkeypatch.setattr(module, name, stand_in)
    assert check(RngSeed(0)) == (False, want)


@pytest.mark.parametrize(
    "rate, fails",
    [(0.84334, False), (0.78534, False), (0.84534, True), (0.78334, True)],
    ids=lambda v: f"{v:.3f}" if isinstance(v, float) else None,  # the rate as the check prints it
)
def test_verify_beat_rate_allowance(monkeypatch, rate, fails):
    # the allowance is 0.03 on either side of the exact rate 0.81434: rates
    # 0.001 inside it pass, and rates 0.001 outside it fail
    monkeypatch.setattr(cli, "beat_rate", lambda n, samples, seed: SimpleNamespace(rate=rate))
    want = (False, f"beat rate {rate:.3f} far from 0.814") if fails else (True, "")
    assert cli._verify_beat_rate(RngSeed(0)) == want


def test_verify_unitarity_names_the_first_failing_draw(monkeypatch):
    # at n = 4, draws 17 and 30 are scaled off the unitary group, draw 30
    # further: the first failure in draw order is named, not the worst
    batch = cli._haar_batch

    def corrupted(n, rng, start, count, with_state):
        u, psi = batch(n, rng, start, count, with_state)
        if n == 4:
            u[17] *= 1.01
            u[30] *= 1.1
        return u, psi

    monkeypatch.setattr(cli, "_haar_batch", corrupted)
    assert cli._verify_haar_unitarity(RngSeed(0)) == (False, "haar draw n=4 i=17 failed unitarity")


class _CountingGenerator:
    # a numpy Generator that records the size of each exponential draw
    def __init__(self, g, sizes):
        self._g, self._sizes = g, sizes

    def exponential(self, size=None):
        self._sizes.append(size)
        return self._g.exponential(size=size)

    def __getattr__(self, name):
        return getattr(self._g, name)


def _classical_trials(seed):
    # the classical check's 500 T drawn one trial at a time, as they were
    g = generator(seed)
    ts = []
    for i in range(500):
        n = 2 + i % 5
        t = g.exponential(size=(n, n))
        t /= t.sum(axis=0, keepdims=True)
        g.exponential(size=n)
        ts.append(t)
    return ts


def test_verify_classical_check_takes_one_draw(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "generator", lambda seed: _CountingGenerator(generator(seed), sizes))
    assert cli._verify_classical(RngSeed(0)) == (True, "")
    assert len(sizes) == 1 and np.prod(sizes[0]) == sum((n * n + n) * 100 for n in range(2, 7))


@pytest.mark.parametrize(
    "faults, want",
    [
        ({317: "bound", 400: "bound"}, "entropy sum below -ln kappa at trial 317"),
        ({317: "both", 400: "mixture"}, "mixture inequalities failed at trial 317"),
    ],
)
def test_verify_classical_check_reports_the_first_failing_trial(monkeypatch, faults, want):
    # trial 400 (n = 2) sits in a stack evaluated before trial 317's (n = 4);
    # trial 317 fails first in trial order, and its mixture inequalities are
    # checked before its bound. Faults are keyed by each trial's own T.
    trials = _classical_trials(RngSeed(0))
    entropies, bound = cli._classical_entropies, cli.classical_bound

    def hits(t, kinds):
        mats = np.reshape(t, (-1,) + np.shape(t)[-2:])
        return np.array([any(faults[i] in kinds and np.array_equal(m, trials[i]) for i in faults) for m in mats])

    def faulty_entropies(t, p):
        mixture, h_tp, h_p = entropies(t, p)
        mixture = mixture + hits(t, ("mixture", "both"))
        return (mixture, h_tp, h_p) if np.ndim(p) == 2 else (float(mixture[0]), h_tp, h_p)

    def faulty_bound(t):
        b = np.where(hits(t, ("bound", "both")), 100.0, bound(t))
        return b if np.ndim(t) == 3 else float(b[0])

    monkeypatch.setattr(cli, "_classical_entropies", faulty_entropies)
    monkeypatch.setattr(cli, "classical_bound", faulty_bound)
    assert cli._verify_classical(RngSeed(0)) == (False, want)


def _classical_samples_reference(t, samples, seed):
    # the classical command's output with P drawn, normalized and checked one
    # sample at a time
    g = generator(RngSeed(seed))
    bound = classical_bound(t)
    slacks = []
    for _ in range(samples):
        p = g.exponential(size=t.shape[1])
        p /= p.sum()
        slacks.append(_classical_slacks(*_classical_entropies(t, p), bound))
    worst = [min(column) for column in zip(*slacks)]
    obj = {
        "kappa": float(t.max()),
        "bound": bound,
        "samples": samples,
        "seed": {"seed": seed, "stream": 0},
        "min_slack_lower": worst[0],
        "min_slack_upper": worst[1],
        "min_slack_bound": worst[2],
        "all_hold": min(worst) >= -cli.ENTROPY_TOL,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("shape", [(4, 4), (9, 12)])
def test_classical_samples_match_a_per_sample_loop(tmp_path, capsys, monkeypatch, shape):
    # 4097 samples cross two 2048-row chunk boundaries; no stack grows with
    # --samples. The 9 x 12 T has a basis column and a zero row.
    t = generator(RngSeed(41)).exponential(size=shape)
    if shape == (9, 12):
        t[:, 2] = 0.0
        t[3, 2] = 1.0
        t[5, :] = 0.0
    path = tmp_path / "t.json"
    save_matrix(path, t / t.sum(axis=0))
    rows = []
    slacks = cli._classical_slacks
    monkeypatch.setattr(cli, "_classical_slacks", lambda *a: rows.append(len(a[0])) or slacks(*a))
    code, out, err = run(capsys, "classical", "--input", str(path), "--samples", "4097", "--seed", "9")
    assert code == 0 and err == ""
    assert rows == [2048, 2048, 1]
    monkeypatch.setattr(cli, "_classical_slacks", slacks)
    assert out == _classical_samples_reference(cli._load_stochastic(path), 4097, 9)
