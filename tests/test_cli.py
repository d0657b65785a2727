import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import eub.families as families
import eub.montecarlo as montecarlo
from eub import RngSeed, beat_rate, bound_gap_stats, fourier_matrix, save_matrix
from eub.cli import main


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


def test_scan_step_just_above_a_grid_divisor(capsys):
    code, out, err = run(capsys, "scan", "--grid-step", "0.05000000002")
    assert code == 0 and err == ""
    assert len(out.strip().split("\n")) == 211


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
    # 3000 samples are two chunks: one kernel call each, not two
    calls = []
    kernel = montecarlo.s_coefficients_batch
    monkeypatch.setattr(montecarlo, "s_coefficients_batch", lambda u: calls.append(len(u)) or kernel(u))
    hist_path = tmp_path / "gap.csv"
    code, out, err = run(
        capsys, "mc", "--n", "3", "--samples", "3000", "--seed", "4", "--k", "1", "--alpha", "2",
        "--gap-hist", str(hist_path),
    )
    assert code == 0 and err == ""
    assert calls == [2048, 952]
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


def test_verify_reports_lift_residual(capsys, monkeypatch):
    # a scan lift above LIFT_RESIDUAL_TOL fails scan-smoke instead of escaping
    monkeypatch.setattr(families, "lift_residual", lambda u, mat: 1.0)
    code, out, _ = run(capsys, "verify", "--seed", "0")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[-2] == "FAIL  scan-smoke: lift residual 1.000e+00 at (0.0, 0.0) exceeds 1e-09"
    assert lines[-1] == "9/10 checks passed"


def test_verify_at_largest_seed(capsys):
    # per-draw seeds wrap below 2**64 instead of overflowing RngSeed
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


def _load_cli_digests():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digests_rerun_identical(monkeypatch):
    "Every command of tools/cli_digests.py exits 0 and reruns byte-identically."
    tool = _load_cli_digests()
    # bounds reports at N = 10 take most of a full pass
    for name in ("HAAR_DIMS", "FOURIER_DIMS", "PERM_HALF_DIMS", "PERM_THIRD_DIMS"):
        monkeypatch.setattr(tool, name, tuple(n for n in getattr(tool, name) if n <= 9))
    first = tool.run()
    # 15 bounds inputs, 12 lines for the other commands and their CSVs, and
    # 3 for the n = 8 ensembles, which run the pruned classes batched
    assert len(first) == 30
    assert all(line.split("  ")[1] in ("0", "-") for line in first)
    assert tool.run() == first
