"""The input boundary: every malformed input ends in a typed error or a
documented exit code.

Two tables pin one malformed input each, for the library and for the
CLI; hypothesis then fuzzes the file decoders, the value objects, the
scalar entry points and ``main(argv)``; an ``ast`` guard keeps the range
errors raised from ``_checks.py`` only.
"""

import ast
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import infopurity
from infopurity import (
    AlphaOutOfRangeError,
    CountTooSmallError,
    DimensionTooLargeError,
    Ensemble,
    EpsilonOutOfRangeError,
    HaarSampler,
    InfopurityError,
    InvalidKError,
    JointDistribution,
    NotNormalizedError,
    OptimizerConfig,
    Povm,
    PurityOutOfRangeError,
    Spectrum,
    ValidationError,
    depolarized_scrooge_povm,
    elementary_symmetric2,
    epsilon_for_purity,
    extremal_renyi_at_purity,
    harmonic_tail,
    max_subentropy_at_purity,
    mc_min_power_estimate,
    min_informational_power,
    min_power_haar_integral,
    pure_state_density,
    purity_for_epsilon,
    renyi_entropy,
    shannon_entropy,
    subentropy_depolarized,
)
from infopurity import entropy
from infopurity.cli import curve_csv_text, main
from infopurity.fileio import decode_ensemble, decode_povm, save_ensemble
from infopurity.tradeoff import depolarized_haar_ensemble

from _oracles import depolarized_subentropy_oracle, min_power_oracle

PACKAGE = Path(infopurity.__file__).parent
HALF = np.eye(2) / 2
FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Spectrum(["a"]), ValidationError),
        (lambda: JointDistribution([["a"]]), ValidationError),
        (lambda: shannon_entropy(["a"]), NotNormalizedError),
        (lambda: Ensemble([("abc", HALF)]), ValidationError),
        (lambda: min_informational_power(2, "a"), PurityOutOfRangeError),
        (lambda: subentropy_depolarized(2, "a"), EpsilonOutOfRangeError),
        (lambda: renyi_entropy([0.5, 0.5], math.nan), AlphaOutOfRangeError),
        (lambda: extremal_renyi_at_purity(3, 0.5, math.nan, "min"), AlphaOutOfRangeError),
        (lambda: OptimizerConfig(tol=math.nan), ValidationError),
        (lambda: HaarSampler(2, -1), ValidationError),
        (lambda: OptimizerConfig(seed=-1), ValidationError),
        (lambda: HaarSampler(2.5, 0), ValidationError),
        (lambda: mc_min_power_estimate(2.5, 0.5, 1000), ValidationError),
        (lambda: mc_min_power_estimate(2, 0.5, 1000, threads="a"), ValidationError),
        (lambda: mc_min_power_estimate(2, 0.5, 1000, threads=0), ValidationError),
        (lambda: mc_min_power_estimate(2, 0.5, 1000, threads=-1), ValidationError),
        (lambda: mc_min_power_estimate(2, 0.5, 1000, threads=2.5), ValidationError),
        (lambda: harmonic_tail(True), InvalidKError),
        (lambda: depolarized_scrooge_povm(2, 0.5, 4.5, 0), CountTooSmallError),
        (lambda: depolarized_haar_ensemble(1, 0.5, 3), ValidationError),
        (lambda: purity_for_epsilon(2, 5.0), EpsilonOutOfRangeError),
        (lambda: purity_for_epsilon(3, -0.6), EpsilonOutOfRangeError),
        (lambda: purity_for_epsilon(1.5, 0.5), ValidationError),
        (lambda: purity_for_epsilon(1, 0.5), ValidationError),
        (lambda: purity_for_epsilon(2, math.nan), EpsilonOutOfRangeError),
        (lambda: purity_for_epsilon(2, "a"), EpsilonOutOfRangeError),
        (lambda: elementary_symmetric2(["a"]), ValidationError),
        (lambda: Ensemble([1.0]), ValidationError),
        (lambda: Povm(5), ValidationError),
        # above the lower curve's n = 1024, and where the chain overflows
        (lambda: min_informational_power(1100, 0.5), DimensionTooLargeError),
        (lambda: min_power_haar_integral(200, 0.5), DimensionTooLargeError),
        # the antiderivative chain cancels out of [0, ln n - (H_n - 1)]
        (lambda: min_power_haar_integral(8, 1e-4), DimensionTooLargeError),
        (lambda: min_power_haar_integral(6, 1e-4), DimensionTooLargeError),
        (lambda: min_power_haar_integral(3, 2e-6), DimensionTooLargeError),
        # below the chain's measured domain, where its sum cancels, and above n = 64
        (lambda: min_power_haar_integral(5, 1e-3), DimensionTooLargeError),
        (lambda: min_power_haar_integral(4, 1e-4), DimensionTooLargeError),
        (lambda: min_power_haar_integral(2, 0.0499), DimensionTooLargeError),
        (lambda: min_power_haar_integral(8, 0.0499), DimensionTooLargeError),
        (lambda: min_power_haar_integral(9, 0.0999), DimensionTooLargeError),
        (lambda: min_power_haar_integral(64, 0.0999), DimensionTooLargeError),
        (lambda: min_power_haar_integral(65, 0.5), DimensionTooLargeError),
        (lambda: curve_csv_text(2, -1), ValidationError),
        (lambda: curve_csv_text(2, 1), ValidationError),
        (lambda: curve_csv_text(2, 2.5), ValidationError),
        (lambda: curve_csv_text(1, 5), ValidationError),
        (lambda: curve_csv_text(True, 5), ValidationError),
    ],
    ids=[
        "spectrum-str", "joint-str", "shannon-str", "ensemble-str-weight",
        "purity-str", "epsilon-str", "renyi-nan-alpha", "extremal-nan-alpha",
        "tol-nan", "sampler-negative-seed", "config-negative-seed",
        "sampler-float-dim", "mc-float-dim", "mc-str-threads", "mc-zero-threads",
        "mc-negative-threads", "mc-float-threads", "k-bool", "count-float",
        "haar-ensemble-dim-1", "purity-eps-above-1", "purity-eps-below-range",
        "purity-float-dim", "purity-dim-1", "purity-nan-eps", "purity-str-eps",
        "e2-str", "ensemble-not-pairs", "povm-not-iterable",
        "min-power-binomial-overflow", "haar-integral-overflow",
        "haar-integral-out-of-range-n8", "haar-integral-out-of-range-n6",
        "haar-integral-out-of-range-n3", "haar-integral-cancels-n5",
        "haar-integral-cancels-n4", "haar-integral-below-domain-n2",
        "haar-integral-below-domain-n8", "haar-integral-below-domain-n9",
        "haar-integral-below-domain-n64", "haar-integral-above-n64",
        "csv-negative-points", "csv-one-point", "csv-float-points", "csv-dim-1",
        "csv-bool-dim",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_non_finite_depolarized_subentropy_raises(monkeypatch):
    # the last guard of the kernel: a nan or inf sum is never returned
    for bad in (math.nan, math.inf):
        monkeypatch.setattr(entropy, "_subentropy", lambda values, v=bad: v)
        with pytest.raises(DimensionTooLargeError):
            subentropy_depolarized(3, 0.01)


# points where the depolarized power series overflowed: the quadrature
# returns the value, at tolerances set by 1e-15 on Q and the cancellation
# in ln n - S_n - Q
@pytest.mark.parametrize(
    "call, oracle, tol",
    [
        (
            lambda: min_informational_power(200, purity_for_epsilon(200, 1e-4)).value,
            lambda: min_power_oracle(200, epsilon_for_purity(200, purity_for_epsilon(200, 1e-4))),
            1e-14,
        ),
        (lambda: subentropy_depolarized(200, 1e-4), lambda: depolarized_subentropy_oracle(200, 1e-4), 1e-15),
        (
            lambda: max_subentropy_at_purity(200, purity_for_epsilon(200, 1e-4)).value,
            lambda: depolarized_subentropy_oracle(
                200, epsilon_for_purity(200, purity_for_epsilon(200, 1e-4))
            ),
            1e-15,
        ),
    ],
    ids=["min-power-n200", "subentropy-n200", "subentropy-max-n200"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_small_epsilon_at_large_n_matches_oracle(call, oracle, tol):
    assert abs(call() - oracle()) <= tol


def _eps_round_trip(n, epsilon):
    # the eps the purity-parametrized forms evaluate at
    return epsilon_for_purity(n, purity_for_epsilon(n, epsilon))


# the forms at eps = 0.01, where the binomial sum raised: at n = 400 its
# (b - a)^(k-1) underflowed to zero, at n = 20 and 24 it cancelled out of
# the range of Q.  The integral returns the value
ABOVE_SWITCH = {
    "subentropy": (
        lambda n: subentropy_depolarized(n, 0.01),
        lambda n: depolarized_subentropy_oracle(n, 0.01),
        1e-15,
    ),
    "min-power": (
        lambda n: min_informational_power(n, purity_for_epsilon(n, 0.01)).value,
        lambda n: min_power_oracle(n, _eps_round_trip(n, 0.01)),
        1e-14,
    ),
    "subentropy-max": (
        lambda n: max_subentropy_at_purity(n, purity_for_epsilon(n, 0.01)).value,
        lambda n: depolarized_subentropy_oracle(n, _eps_round_trip(n, 0.01)),
        1e-15,
    ),
}
ABOVE_SWITCH_ROWS = [(form, n) for n in (20, 24, 400) for form in ABOVE_SWITCH]


@pytest.mark.parametrize(
    "form, n", ABOVE_SWITCH_ROWS, ids=[f"{form}-n{n}" for form, n in ABOVE_SWITCH_ROWS]
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_n_above_the_switch_matches_oracle(form, n):
    call, oracle, tol = ABOVE_SWITCH[form]
    assert abs(call(n) - oracle(n)) <= tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_curve_csv_at_n400_matches_oracle():
    # the rows print six decimals
    rows = [r.split(",") for r in curve_csv_text(400, 3).splitlines()[1:]]
    for row, p in zip(rows, np.linspace(1.0 / 400, 1.0, 3).tolist()):
        eps = epsilon_for_purity(400, p)
        assert abs(float(row[3]) - min_power_oracle(400, eps)) <= 5.000001e-7


def _renyi_reference(lam, alpha):
    # 40-digit power sum: mpmath's exponent range does not underflow
    with mpmath.workdps(40):
        total = mpmath.fsum(mpmath.mpf(x) ** alpha for x in lam if x > 0.0)
        return float(mpmath.log(total) / (1 - mpmath.mpf(alpha)))


@pytest.mark.parametrize("alpha", [2000.0, 1e300])
def test_large_renyi_order_stays_finite(alpha):
    # the plain power sum underflows to 0 at these orders
    lam = [0.6, 0.3, 0.1]
    assert renyi_entropy(lam, alpha) == pytest.approx(_renyi_reference(lam, alpha), abs=1e-12)
    for kind in ("min", "max"):
        sol = extremal_renyi_at_purity(3, 0.5, alpha, kind)
        assert sol.value == pytest.approx(
            _renyi_reference(sol.spectrum(), alpha), abs=1e-12
        )


def _write_files(tmp_path):
    save_ensemble(
        tmp_path / "e.json",
        Ensemble([(0.5, pure_state_density([1, 0])), (0.5, pure_state_density([0, 1]))]),
    )
    skew = {"matrix_re": [[0.5, 0.3], [0.0, 0.5]], "matrix_im": [[0, 0], [0, 0]]}
    (tmp_path / "skew.json").write_text(
        json.dumps({"dim": 2, "states": [dict(weight=1.0, **skew)]})
    )
    (tmp_path / "skew-raw.json").write_text(json.dumps({"dim": 2, "states": [skew]}))
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00{")
    (tmp_path / "deep.json").write_text(
        '{"dim": 2, "states": ' + "[" * 100000 + "]" * 100000 + "}"
    )
    (tmp_path / "adir").mkdir()


MC = ["mc-scrooge", "--n", "2", "--epsilon", "0.5", "--samples", "1000"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (MC + ["--seed", "-1"], 2),
        (["optimize-acc", "--ensemble", "e.json", "--seed", "-1", "--restarts", "2"], 2),
        (["optimize-acc", "--ensemble", "e.json", "--restarts", "0"], 2),
        (["optimize-acc", "--ensemble", "e.json", "--tol", "-1"], 2),
        (["optimize-acc", "--ensemble", "e.json", "--tol", "nan"], 2),
        (MC + ["--threads", "0"], 2),
        (["bounds", "--ensemble", "adir"], 1),
        (["bounds", "--ensemble", "skew.json"], 3),
        (["bounds", "--ensemble", "skew-raw.json", "--subnormalized"], 3),
        (["bounds", "--ensemble", "binary.json"], 3),
        (["bounds", "--ensemble", "deep.json"], 3),
    ],
    ids=[
        "mc-negative-seed", "acc-negative-seed", "zero-restarts", "negative-tol",
        "nan-tol", "zero-threads", "ensemble-is-a-directory", "non-hermitian-state",
        "non-hermitian-subnormalized", "not-utf8", "nested-too-deep",
    ],
)
def test_malformed_flag_or_file_exit_code(tmp_path, monkeypatch, argv, code):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code


def test_range_errors_raised_only_by_checks():
    # each domain rule lives in _checks.py; callers pass it their error type
    guarded = {
        "AlphaOutOfRangeError", "CountTooSmallError", "EpsilonOutOfRangeError",
        "InvalidKError", "PurityOutOfRangeError",
    }
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in guarded:
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []


# ---------------------------------------------------------------------------
# decoders on recursive JSON

json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
number = st.sampled_from([0.5, 0.0, 1.0]) | st.floats(-1.0, 1.0)


def matrices(dim):
    # mostly well-formed numeric matrices, so the operator checks run too
    numeric = st.lists(st.lists(number, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    mixed_row = st.lists(number | json_leaf, min_size=dim, max_size=dim) | json_any
    return numeric | st.lists(mixed_row, min_size=dim, max_size=dim) | json_any


@st.composite
def documents(draw, list_key):
    # mostly the file's own layout, with a key missing or arbitrary now and
    # then, so the operator checks run as often as the JSON checks
    dim = draw(st.integers(1, 2) | json_leaf)
    size = dim if type(dim) is int and dim in (1, 2) else 1
    entry = st.fixed_dictionaries(
        {"matrix_re": matrices(size), "matrix_im": matrices(size), "weight": number}
    )
    doc = {"dim": dim, list_key: draw(st.lists(entry, min_size=1, max_size=3) | json_any)}
    for key in ("dim", list_key):
        fate = draw(st.sampled_from(["keep", "keep", "keep", "drop", "replace"]))
        if fate == "drop":
            del doc[key]
        elif fate == "replace":
            doc[key] = draw(json_any)
    return doc if draw(st.sampled_from([True, True, True, False])) else draw(json_any)


@FUZZ
@given(doc=documents("states"), subnormalized=st.booleans())
def test_decode_ensemble_fuzz(doc, subnormalized):
    try:
        ensemble = decode_ensemble(json.dumps(doc), subnormalized=subnormalized)
    except ValidationError:
        return
    assert isinstance(ensemble, Ensemble)


@FUZZ
@given(doc=documents("elements"))
def test_decode_povm_fuzz(doc):
    try:
        povm = decode_povm(json.dumps(doc))
    except ValidationError:
        return
    assert isinstance(povm, Povm)


# ---------------------------------------------------------------------------
# value objects on mixed lists

mixed = st.recursive(
    st.floats() | st.integers() | st.booleans() | st.text(max_size=3) | st.none(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
mixed_lists = st.lists(mixed, max_size=4)


def _typed_or_valid(call, check):
    try:
        out = call()
    except InfopurityError:
        return
    check(out)


def _is_distribution(v):
    v = np.asarray(v)
    assert np.isfinite(v).all() and v.min() >= 0.0
    assert abs(v.sum() - 1.0) <= 1e-9


@FUZZ
@given(values=mixed_lists, normalized=st.sampled_from([None, True, False]))
def test_spectrum_fuzz(values, normalized):
    def check(s):
        assert s.values.ndim == 1 and np.isfinite(s.values).all()
        if s.normalized:
            _is_distribution(s.clipped())

    _typed_or_valid(lambda: Spectrum(values, normalized=normalized), check)


@FUZZ
@given(rows=st.lists(mixed_lists, max_size=3))
def test_joint_distribution_fuzz(rows):
    _typed_or_valid(lambda: JointDistribution(rows), lambda j: _is_distribution(j.probs))


@FUZZ
@given(values=mixed_lists)
def test_shannon_entropy_fuzz(values):
    _typed_or_valid(lambda: shannon_entropy(values), _finite_result)


@FUZZ
@given(weights=mixed_lists)
def test_ensemble_weights_fuzz(weights):
    _typed_or_valid(
        lambda: Ensemble([(w, HALF) for w in weights]), lambda e: _is_distribution(e.weights)
    )


# ---------------------------------------------------------------------------
# scalar entry points on arbitrary scalars


def scalars(ints=st.integers(-10, 10)):
    return (
        st.floats()
        | ints
        | st.booleans()
        | st.text(max_size=3)
        | st.none()
        | st.lists(st.floats(), max_size=2)
    )


def _finite_result(out):
    value = getattr(out, "value", out)
    if isinstance(value, float):
        assert math.isfinite(value)


# integer draws are bounded where the value sizes an allocation or a loop
small_dim = st.integers(2, 8)
SCALAR_ENTRY_POINTS = {
    "min_informational_power": (
        st.tuples(small_dim, scalars()), lambda a: min_informational_power(*a)
    ),
    "subentropy_depolarized": (
        st.tuples(small_dim, scalars()), lambda a: subentropy_depolarized(*a)
    ),
    "renyi_entropy": (st.tuples(scalars()), lambda a: renyi_entropy([0.7, 0.2, 0.1], *a)),
    "extremal_renyi_at_purity": (
        st.tuples(st.integers(2, 5), scalars(), scalars(), st.sampled_from(["min", "max"])),
        lambda a: extremal_renyi_at_purity(*a),
    ),
    "optimizer_config": (
        st.tuples(scalars(), scalars(), scalars(st.integers(-2**70, 2**70))),
        lambda a: OptimizerConfig(restarts=a[0], tol=a[1], seed=a[2]),
    ),
    "haar_sampler": (
        st.tuples(scalars(st.integers(-3, 10**6)), scalars(st.integers(-2**70, 2**70))),
        lambda a: HaarSampler(*a),
    ),
    "mc_min_power_estimate": (
        st.tuples(scalars(st.integers(-3, 8)), scalars()),
        lambda a: mc_min_power_estimate(a[0], a[1], 1000).mean,
    ),
    "harmonic_tail": (st.tuples(scalars(st.integers(-5, 2000))), lambda a: harmonic_tail(*a)),
    "purity_for_epsilon": (st.tuples(scalars(), scalars()), lambda a: purity_for_epsilon(*a)),
    "depolarized_scrooge_povm": (
        st.tuples(scalars(st.integers(-5, 24)), scalars(st.integers(-3, 3))),
        lambda a: depolarized_scrooge_povm(2, 0.5, a[0], a[1]),
    ),
    "depolarized_haar_ensemble": (
        st.tuples(scalars(st.integers(-3, 4)), scalars(st.integers(-3, 4))),
        lambda a: depolarized_haar_ensemble(a[0], 0.5, a[1]),
    ),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
def test_scalar_entry_point_fuzz(name):
    strategy, call = SCALAR_ENTRY_POINTS[name]

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(args=strategy)
    def run(args):
        _typed_or_valid(lambda: call(args), _finite_result)

    run()


# ---------------------------------------------------------------------------
# main(argv)

# no digits in free text, so --points never asks for more than 8 points
flag_text = (
    st.integers(-3, 8).map(str)
    | st.floats().map(repr)
    | st.text(alphabet="-.eainf x", max_size=3)
)
EXIT_CODES = {0, 1, 2, 3, 4}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the flag's type
        return exc.code


@settings(
    derandomize=True, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(n=flag_text, points=flag_text, gnuplot=st.booleans())
def test_curve_command_fuzz(tmp_path, n, points, gnuplot):
    argv = ["curve", "--n", n, "--points", points, "--out", str(tmp_path / "c.csv")]
    assert _exit_code(argv + ["--gnuplot"] * gnuplot) in EXIT_CODES


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 9).map(str) | flag_text,
    epsilon=st.floats(-0.5, 1.5).map(repr) | flag_text,
    seed=st.integers(-2**70, 2**70).map(str) | flag_text,
    threads=st.sampled_from(["1", "2"]),
)
def test_mc_command_fuzz(n, epsilon, seed, threads):
    argv = ["mc-scrooge", "--n", n, "--epsilon", epsilon, "--samples", "1000",
            "--seed", seed, "--threads", threads]
    assert _exit_code(argv) in EXIT_CODES
