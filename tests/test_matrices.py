import copy
import io
import json
import math
import pickle
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import eub
from eub import (
    RngSeed,
    fourier_matrix,
    haar_unitary,
    is_unitary,
    largest_singular_value,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    require_unitary,
    save_matrix,
    submatrix,
    unitarity_residual,
)
from eub.matrices import _first_failure, _unit_reduce, philox_key, sample_generator
from eub.montecarlo import _haar_batch

SEED = 20240817


def test_rng_seed_validation():
    RngSeed(0)
    RngSeed(2**64 - 1, stream=3)
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)
    with pytest.raises(ValueError):
        RngSeed(0, stream=-2)
    assert RngSeed(5, 7).to_json() == {"seed": 5, "stream": 7}
    # seed and stream are read as integers, never truncated or parsed
    for bad in ((1.5,), ("7",), (0, 2.0), (np.float64(3.0),)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            RngSeed(*bad)
    rng = RngSeed(np.uint64(2**64 - 1), np.int8(3))
    assert rng == (2**64 - 1, 3) and all(type(v) is int for v in rng)


# One valid instance of each record type of the package; the four validated
# types run their checks in __new__.
RECORDS = {
    "RngSeed": eub.RngSeed(3, 4),
    "BirkhoffPoint": eub.BirkhoffPoint(0.25, 0.5),
    "SubspacePair": eub.SubspacePair(np.eye(2), np.eye(2)[::-1]),
    "EquivalenceTransform": eub.EquivalenceTransform((0, 1), (1.0, 1j), (-1.0, 1.0), (1, 0)),
    "SubmatrixCoefficients": eub.SubmatrixCoefficients(2, np.ones(2), np.ones(2)),
    "MajorizingVector": eub.MajorizingVector(np.ones(2) / 2, (np.ones(2) / 2,)),
    "BoundReport": eub.BoundReport(2, 1.0, 0.5, 0.4, np.array([0.6])),
    "BeatRateResult": eub.BeatRateResult(2, 10, 5, 0.5, 0.1, RngSeed(1)),
    "FuzzReport": eub.FuzzReport(2, 10, 0, 0.0, RngSeed(1)),
    "GapStats": eub.GapStats(2, 10, 1.0, RngSeed(1), 0.1, 0.2, {}, {}, (), ()),
    "ScanColumns": eub.ScanColumns(np.zeros(2), np.zeros(2), np.array([True, False]), np.zeros(1), np.zeros(1)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_tuples(name):
    rec = RECORDS[name]
    assert isinstance(rec, tuple) and not hasattr(rec, "__dict__")
    for field in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)


@pytest.mark.parametrize(
    "name, change",
    [
        ("RngSeed", {"seed": -1}),
        ("BirkhoffPoint", {"b": 0.9}),
        ("SubspacePair", {"second_set": 2.0 * np.eye(2)}),
        ("EquivalenceTransform", {"left_perm": (0, 0)}),
    ],
)
def test_validated_records_check_every_way_they_are_built(name, change):
    """_make, _replace, copy, deepcopy and pickle at every protocol build
    through the constructor: a bad field raises its message, and a valid
    record comes back equal, of its own type."""
    rec = RECORDS[name]
    cls = type(rec)
    bad = rec._asdict() | change
    with pytest.raises(ValueError) as refused:
        cls(**bad)
    message = f"^{re.escape(str(refused.value))}$"
    forged = tuple.__new__(cls, bad.values())  # the bad fields, past every check
    builds = [lambda: cls._make(bad.values()), lambda: rec._replace(**change), lambda: copy.copy(forged),
              lambda: copy.deepcopy(forged)]
    builds += [lambda p=p: pickle.loads(pickle.dumps(forged, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()
    twins = [cls._make(rec), rec._replace(), copy.copy(rec), copy.deepcopy(rec)]
    twins += [pickle.loads(pickle.dumps(rec, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is cls and all(np.array_equal(x, y) for x, y in zip(twin, rec))


def test_largest_singular_value_examples():
    assert largest_singular_value(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-12)
    # column vector: sigma_1 is the 2-norm
    v = np.array([[3.0], [4.0]])
    assert largest_singular_value(v) == pytest.approx(5.0, abs=1e-12)
    row = np.array([[1.0, 2.0, 2.0]])
    assert largest_singular_value(row) == pytest.approx(3.0, abs=1e-12)
    assert largest_singular_value(np.zeros((2, 3))) == pytest.approx(0.0, abs=1e-15)


def test_largest_singular_value_adjoint_symmetry():
    "sigma_1(A) = sigma_1(A*) for random rectangular complex blocks."
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s1 = largest_singular_value(a)
        s2 = largest_singular_value(a.conj().T)
        assert abs(s1 - s2) <= 1e-12 * max(1.0, s1)
        # never exceeds the Frobenius norm, never less than max column norm
        assert s1 <= np.linalg.norm(a) + 1e-12
        assert s1 >= np.abs(a).max() - 1e-12


def test_haar_unitary_is_unitary():
    # and is sample 0 of the ensemble stream, to the bit
    for n in range(1, 9):
        for i in range(25):
            rng = RngSeed(SEED + i, stream=n)
            u = haar_unitary(n, rng)
            assert u.shape == (n, n)
            assert is_unitary(u)
            assert unitarity_residual(u) <= 1e-12
            assert u.tobytes() == _haar_batch(n, rng, 0, 1, False)[0][0].tobytes()


def test_haar_reproducibility():
    a = haar_unitary(5, RngSeed(123, stream=9))
    b = haar_unitary(5, RngSeed(123, stream=9))
    assert np.array_equal(a, b)
    c = haar_unitary(5, RngSeed(123, stream=10))
    assert not np.allclose(a, c)
    d = haar_unitary(5, RngSeed(124, stream=9))
    assert not np.allclose(a, d)


def test_sample_generator_matches_jumped_philox():
    # the per-index counter rule reproduces Philox(key).jumped(index) draws
    rng = RngSeed(SEED, stream=4)
    indices = [*range(2001), *range(2**40 - 8, 2**40 + 8), 2**64 - 1]
    for i in indices:
        jumped = np.random.Generator(np.random.Philox(key=philox_key(rng)).jumped(i))
        assert np.array_equal(sample_generator(rng, i).standard_normal(9), jumped.standard_normal(9)), i


@pytest.mark.parametrize("index", [-1, 2**64, 2**70])
def test_sample_generator_rejects_out_of_range_index(index):
    with pytest.raises(ValueError, match="out of range"):
        sample_generator(RngSeed(1), index)


def test_haar_entry_moment():
    """E|U_ij|^2 = 1/n under the invariant measure."""
    n = 4
    rng = np.random.default_rng(SEED)
    total = 0.0
    draws = 3000
    for i in range(draws):
        u = haar_unitary(n, RngSeed(SEED + i))
        total += abs(u[0, 0]) ** 2
    assert abs(total / draws - 1.0 / n) < 0.01
    del rng


def test_fourier_matrix_unitary():
    for n in (2, 3, 4, 7):
        f = fourier_matrix(n)
        assert is_unitary(f)
        assert np.allclose(np.abs(f), 1.0 / math.sqrt(n), atol=1e-12)


def test_require_unitary_messages():
    with pytest.raises(ValueError, match="square"):
        require_unitary(np.ones((2, 3)))
    with pytest.raises(ValueError, match="unitarity residual"):
        require_unitary(np.eye(3) * 1.01)
    u = require_unitary(np.eye(3))
    assert u.dtype == complex
    # a stack whose matrices 1 and 3 fail names matrix 1's residual, from
    # require_unitary and from every stacked closed form
    stack = np.array([np.eye(3), np.eye(3) * 1.01, np.eye(3), np.eye(3) * 1.5])
    for check in (require_unitary, eub.bound_deutsch, eub.bound_mu, eub.deutsch_max_product):
        with pytest.raises(ValueError, match=r"unitarity residual 2\.010e-02 exceeds"):
            check(stack)
    with pytest.raises(ValueError, match=r"unitarity residual 2\.010e-02 exceeds"):
        eub.eur_lhs(stack, np.ones((4, 1, 3)) / math.sqrt(3.0), 1.0)
    with pytest.raises(ValueError, match="square"):
        require_unitary(np.ones((2, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        eub.dephase(np.array([np.eye(2)] * 2))
    # N = 0 fails the square-shape rule, as one matrix or a stack
    for empty in (np.zeros((0, 0)), np.zeros((2, 0, 0)), np.zeros((0, 0, 0))):
        for check in (require_unitary, eub.bound_mu, lambda u: eub.bound_ladder(u, 1.0)):
            with pytest.raises(ValueError, match="expected a square matrix, got shape " + re.escape(str(empty.shape))):
                check(empty)


def test_submatrix_basic():
    m = np.arange(12.0).reshape(3, 4)
    s = submatrix(m, [0, 2], [1, 3])
    assert s.shape == (2, 2)
    assert np.array_equal(s, np.array([[1.0, 3.0], [9.0, 11.0]]))
    with pytest.raises(IndexError):
        submatrix(m, [0, 3], [0])
    with pytest.raises(IndexError):
        submatrix(m, [0], [4])
    with pytest.raises(IndexError):
        submatrix(m, [0, 0], [1])  # repeated row index
    with pytest.raises(IndexError):
        submatrix(m, [], [1])


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = matrix_from_json(matrix_to_json(a))
        assert np.array_equal(a, b)
    path = tmp_path / "m.json"
    u = haar_unitary(4, RngSeed(77))
    save_matrix(path, u)
    v = load_matrix(path)
    assert np.array_equal(u, v)


def test_matrix_json_rejects_bad_payloads(tmp_path):
    good = matrix_to_json(np.eye(2))
    for key in ("rows", "cols", "re", "im"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ValueError):
            matrix_from_json(bad)
    # JSON booleans are ints to Python, but not dimensions
    for rows, cols in ((True, True), (True, 1), (2, True), (False, 2)):
        with pytest.raises(ValueError, match="rows and cols must be positive integers"):
            matrix_from_json({"rows": rows, "cols": cols, "re": [[1.0]], "im": [[0.0]]})
    bad = dict(good)
    bad["re"] = [[1.0, 0.0]]  # shape disagrees with rows
    with pytest.raises(ValueError):
        matrix_from_json(bad)
    bad = dict(good)
    bad["re"] = [[float("nan"), 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError):
        matrix_from_json(bad)
    bad = dict(good)
    bad["im"] = [[0.0, float("inf")], [0.0, 0.0]]
    with pytest.raises(ValueError):
        matrix_from_json(bad)
    # entries are JSON numbers only: numpy would read true and "1" as 1.0,
    # and raise TypeError on an object
    for key in ("re", "im"):
        for entry, kind in ((True, "bool"), (False, "bool"), ("1", "str"), ({}, "dict"), ([1.0], "list"),
                            (None, "NoneType")):
            with pytest.raises(ValueError, match=f"^{key} entries must be JSON numbers, not {kind}$"):
                matrix_from_json(dict(good, **{key: [[entry, 0.0], [0.0, 1.0]]}))
        # a row that is not a list is read as an entry
        with pytest.raises(ValueError, match=f"^{key} entries must be JSON numbers, not dict$"):
            matrix_from_json(dict(good, **{key: [{}, [0.0, 1.0]]}))
    # the shape check still reads a payload that is not a list of rows
    for payload in (1.0, [1.0, 0.0]):
        with pytest.raises(ValueError, match="do not match rows x cols"):
            matrix_from_json(dict(good, re=payload))
    # and ragged rows, which numpy refuses with a message of its own
    for key in ("re", "im"):
        with pytest.raises(ValueError, match="^re/im arrays do not match rows x cols$"):
            matrix_from_json(dict(good, **{key: [[1.0], [0.0, 1.0]]}))
    with pytest.raises(ValueError, match="must be finite"):
        matrix_from_json(dict(good, re=[[10**400, 0], [0, 1]]))
    assert matrix_from_json(dict(good, re=[[1, 0], [0, 1]])).dtype == complex

    # token-level NaN/Infinity in the file must also be rejected
    path = tmp_path / "nan.json"
    path.write_text('{"rows": 1, "cols": 1, "re": [[NaN]], "im": [[0.0]]}')
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text('{"rows": 1, "cols": 1, "re": [[1e999]], "im": [[0.0]]}')
    with pytest.raises(ValueError):
        load_matrix(path)


def test_save_matrix_emits_parseable_json(tmp_path):
    path = tmp_path / "u.json"
    save_matrix(path, fourier_matrix(3))
    obj = json.loads(path.read_text())
    assert obj["rows"] == 3 and obj["cols"] == 3
    assert len(obj["re"]) == 3 and len(obj["im"]) == 3


def test_tolerances_are_defined_only_in_matrices():
    # Every numeric allowance lives in the constant block of matrices.py: no
    # other module writes a float literal with a negative exponent.
    src = Path(__file__).resolve().parents[1] / "src" / "eub"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "matrices.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        for tok in tokens:
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower():
                found.append(f"{path.name}:{tok.start[0]} {tok.string}")
    assert found == []


def _with_nan(a, index):
    a = np.array(a)
    a[index] = np.nan
    return a


_F3_NAN = _with_nan(fourier_matrix(3), (1, 2))
_UNIFORM3 = np.full((3, 3), 1.0 / 3.0)

# One NaN entry per validated entry; each check is written as
# "not deviation <= tolerance", so that a NaN deviation fails it.
NAN_INPUTS = {
    "require_unitary": (lambda: require_unitary(_F3_NAN), "unitarity residual"),
    "bound_mu": (lambda: eub.bound_mu(_F3_NAN), "unitarity residual"),
    "bound_deutsch": (lambda: eub.bound_deutsch(_F3_NAN), "unitarity residual"),
    "dephase": (lambda: eub.dephase(_F3_NAN), "unitarity residual"),
    "s_coefficients": (lambda: eub.s_coefficients(_F3_NAN), "unitarity residual"),
    "check_probability_vector": (lambda: eub.check_probability_vector([0.5, np.nan, 0.5]), "sums to"),
    "eur_lhs": (lambda: eub.eur_lhs(fourier_matrix(3), [np.nan, 0.0, 0.0], 1), "state norm"),
    "check_stochastic": (lambda: eub.check_stochastic(_with_nan(_UNIFORM3, (0, 1))), "column sums"),
    "unistochastic_check_3": (lambda: eub.unistochastic_check_3(_with_nan(_UNIFORM3, (2, 0))), "row/column sums"),
    "BirkhoffPoint": (lambda: eub.BirkhoffPoint(np.nan, 0.2), "outside the simplex"),
    "SubspacePair": (lambda: eub.SubspacePair(_F3_NAN[:2], np.eye(3)[:1]), "orthonormality"),
    "EquivalenceTransform": (
        lambda: eub.EquivalenceTransform([0, 1, 2], [1.0, np.nan, 1.0], [1.0, 1.0, 1.0], [0, 1, 2]),
        "unimodular",
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_validated_entries_refuse_nan(name):
    call, message = NAN_INPUTS[name]
    with pytest.raises(ValueError, match=message):
        call()


# One call per refusal of a malformed shape, size or argument: (call, the
# exception, its whole message)
REFUSALS = {
    "check_stochastic 1d": (lambda: eub.check_stochastic([0.5, 0.5]), ValueError, "expected a 2d array or a stack of them"),
    "check_stochastic 4d": (
        lambda: eub.check_stochastic(np.full((1, 1, 2, 2), 0.5)), ValueError, "expected a 2d array or a stack of them",
    ),
    "check_probability_vector": (lambda: eub.check_probability_vector([]), ValueError, "empty probability vector"),
    "apply_transform": (
        lambda: eub.apply_transform(np.eye(2), eub.random_transform(3, RngSeed(SEED))),
        ValueError, "transform dimension 3 does not match matrix 2",
    ),
    "SubspacePair": (
        lambda: eub.SubspacePair(np.eye(3)[:, :2], np.eye(2)[:1]), ValueError, "first set has more vectors than the dimension",
    ),
    "fourier_matrix": (lambda: fourier_matrix(0), ValueError, "n must be >= 1"),
    "permutation_power": (lambda: eub.permutation_power(1, 0.5), ValueError, "n must be >= 2"),
    "random_transform": (lambda: eub.random_transform(3, "x"), TypeError, "expected an RngSeed or numpy Generator"),
    "largest_singular_value": (lambda: largest_singular_value(np.ones(3)), ValueError, "expected a 2d array"),
    "matrix_to_json": (lambda: matrix_to_json(np.ones(3)), ValueError, "expected a 2d array"),
    "haar_unitary": (lambda: haar_unitary(0, RngSeed(SEED)), ValueError, "n must be >= 1"),
    "cross_section_scan 1e-300": (
        lambda: eub.cross_section_scan(1e-300, 1.0), ValueError,
        "grid_step 1e-300 gives inf grid points, more than the limit 1000000",
    ),
    "cross_section_scan 1e-6": (
        lambda: eub.cross_section_scan(1e-6, 1.0), ValueError,
        "grid_step 1e-06 gives 5e+11 grid points, more than the limit 1000000",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_malformed_arguments_are_refused(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


# Entries a short reduction must carry through with numpy's bits: NaN,
# signed zeros, subnormals, the smallest normal, and sums that round
_SPECIAL_ENTRIES = np.array([np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 1.0, -1.0, 0.1])


def _special_stack(units, shape, seed):
    # a stack of units, half their entries special and half uniform draws
    rng = np.random.default_rng(seed)
    x = rng.random((units,) + shape)
    special = rng.random(x.shape) < 0.5
    x[special] = rng.choice(_SPECIAL_ENTRIES, size=int(special.sum()))
    return x


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("units", [0, 1, 66, 5151])
@pytest.mark.parametrize("ufunc", [np.add, np.maximum, np.minimum], ids=lambda u: u.__name__)
def test_unit_reduce_has_numpy_bits_over_three_entries(units, ufunc):
    for seed, (shape, axis) in enumerate((((3,), -1), ((3, 3), -1), ((3, 3), -2))):
        x = _special_stack(units, shape, SEED + seed)
        want, got = ufunc.reduce(x, axis=axis), _unit_reduce(ufunc, x, axis)
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))
    # one unit with no leading axes reduces to a scalar, as numpy's does
    for unit in _special_stack(64, (3,), SEED):
        want, got = ufunc.reduce(unit), _unit_reduce(ufunc, unit, -1)
        assert type(got) is type(want) and _bits(got) == _bits(want)


def test_unit_reduce_sums_negative_zeros_from_the_identity():
    # numpy's sum starts from +0.0: a sum of -0.0s is +0.0, which x0 + x1 + x2 is not
    x = np.full((4, 3), -0.0)
    x[1, 1] = 0.0
    assert not np.signbit(_unit_reduce(np.add, x, -1)).any()
    assert np.signbit(x[:, 0] + x[:, 1] + x[:, 2])[0]


@pytest.mark.parametrize("units", [0, 1, 66, 5151])
@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum], ids=lambda u: u.__name__)
def test_unit_reduce_has_numpy_values_over_3x3_units(units, ufunc):
    # Over 9 entries numpy orders max and min by its own unrolling, so only a
    # zero result's sign may differ; on absolute values, as lift_residual
    # reduces them, the bits agree.
    x = _special_stack(units, (3, 3), SEED + 3)
    want, got = ufunc.reduce(x, axis=(-2, -1)), _unit_reduce(ufunc, x, (-2, -1))
    assert np.array_equal(got, want, equal_nan=True)
    want, got = ufunc.reduce(np.abs(x), axis=(-2, -1)), _unit_reduce(ufunc, np.abs(x), (-2, -1))
    assert np.array_equal(_bits(got), _bits(want))


def test_unit_reduce_keeps_a_nan_unit_failing():
    # a NaN anywhere in a unit makes its sum and its max NaN, so the unit
    # fails a "deviation <= tolerance" test and _first_failure names it
    x = np.zeros((20, 3, 3))
    x[7, 2, 1] = np.nan
    for ufunc, axis in ((np.add, -1), (np.add, -2), (np.maximum, -1), (np.maximum, (-2, -1))):
        ok = (_unit_reduce(ufunc, x, axis) <= 1.0).reshape(20, -1).all(axis=1)
        assert _first_failure(ok) == 7
