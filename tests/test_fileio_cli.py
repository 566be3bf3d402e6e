import json
import math
import re

import numpy as np
import pytest

from infopurity import Ensemble, Povm, ValidationError, pure_state_density
from infopurity.cli import curve_csv_text, main
from infopurity.fileio import (
    _write,
    decode_ensemble,
    decode_povm,
    encode_ensemble,
    encode_povm,
    load_ensemble,
    save_ensemble,
    save_povm,
)

from _oracles import random_density_matrix, random_symmetrized_povm


def basis_projector(n, k):
    return np.diag(np.eye(n)[k]).astype(complex)


def sample_ensemble():
    rng = np.random.default_rng(17)
    return Ensemble(
        [
            (0.25, random_density_matrix(2, rng)),
            (0.75, random_density_matrix(2, rng)),
        ]
    )


class TestEnsembleCodec:
    def test_round_trip_exact(self):
        e = sample_ensemble()
        decoded = decode_ensemble(encode_ensemble(e))
        assert decoded.dim == e.dim
        for (w1, s1), (w2, s2) in zip(e.items, decoded.items):
            assert abs(w1 - w2) < 1e-15
            assert np.max(np.abs(s1.matrix - s2.matrix)) < 1e-15

    def test_encoding_deterministic(self):
        e = sample_ensemble()
        assert encode_ensemble(e) == encode_ensemble(e)

    def test_subnormalized_convention(self):
        e = sample_ensemble()
        raw = {
            "dim": 2,
            "states": [
                {
                    "matrix_re": (w * s.matrix).real.tolist(),
                    "matrix_im": (w * s.matrix).imag.tolist(),
                }
                for w, s in e.items
            ],
        }
        decoded = decode_ensemble(json.dumps(raw), subnormalized=True)
        assert decoded.weights == pytest.approx(e.weights, abs=1e-12)

    def test_diagnostics_name_the_field(self):
        bad = {
            "dim": 2,
            "states": [
                {"weight": 1.0, "matrix_re": [[1.0, 0.0]], "matrix_im": [[0.0, 0.0]]}
            ],
        }
        with pytest.raises(ValidationError) as err:
            decode_ensemble(json.dumps(bad))
        assert "states[0]" in str(err.value)

    def test_invariant_violations_rejected(self):
        mat = {"matrix_re": [[1.0, 0.0], [0.0, 0.0]], "matrix_im": [[0.0, 0.0], [0.0, 0.0]]}
        bad_weights = {"dim": 2, "states": [dict(weight=0.6, **mat), dict(weight=0.6, **mat)]}
        with pytest.raises(ValidationError):
            decode_ensemble(json.dumps(bad_weights))


class TestPovmCodec:
    def test_round_trip(self):
        m = Povm(random_symmetrized_povm(2, 3, np.random.default_rng(4)))
        decoded = decode_povm(encode_povm(m))
        for e1, e2 in zip(m.elements, decoded.elements):
            assert np.max(np.abs(e1.matrix - e2.matrix)) < 1e-15

    def test_completeness_enforced(self):
        bad = {
            "dim": 2,
            "elements": [
                {"matrix_re": [[1.0, 0.0], [0.0, 0.0]], "matrix_im": [[0.0, 0.0], [0.0, 0.0]]}
            ],
        }
        with pytest.raises(ValidationError):
            decode_povm(json.dumps(bad))


# Encoder output of the parent writer, recorded byte for byte: n = 2 and 3,
# a -0.0 entry ("-0"), integer-valued entries ("1", "0"), 17-digit and
# exponent-form numbers and non-trivial weights.
R3 = math.sqrt(3.0)
GOLDEN_POVMS = {
    2: [
        [[2 / 3, 0.0], [0.0, 0.0]],
        [[1 / 6, -1j * R3 / 6], [1j * R3 / 6, 0.5]],
        [[1 / 6, 1j * R3 / 6], [-1j * R3 / 6, 0.5]],
    ],
    # the Hermitian part keeps the sign of the real -0.0 at [0, 1]
    3: [
        [[1.0, complex(-0.0, -0.0), 0.0], [complex(-0.0, 0.0), 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.5, -0.5j], [0.0, 0.5j, 0.5]],
        [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5j], [0.0, -0.5j, 0.5]],
    ],
}
GOLDEN_ENSEMBLES = {
    2: [
        (0.3, [[0.75, 0.25 - 0.1j], [0.25 + 0.1j, 0.25]]),
        (0.7, [[0.5, complex(0.5, -0.0)], [0.5, 0.5]]),
    ],
    3: [
        (1 / 3, np.eye(3) / 3),
        (2 / 3, [[0.5, 0.0, 0.25j], [0.0, 0.25, 1e-17], [-0.25j, 1e-17, 0.25]]),
    ],
}
GOLDEN_POVM_TEXT = {
    2: """\
{
  "dim": 2,
  "elements": [
    {
      "matrix_re": [
        [0.66666666666666663, 0],
        [0, 0]
      ],
      "matrix_im": [
        [0, 0],
        [0, 0]
      ]
    },
    {
      "matrix_re": [
        [0.16666666666666666, 0],
        [0, 0.5]
      ],
      "matrix_im": [
        [0, -0.28867513459481287],
        [0.28867513459481287, 0]
      ]
    },
    {
      "matrix_re": [
        [0.16666666666666666, 0],
        [0, 0.5]
      ],
      "matrix_im": [
        [0, 0.28867513459481287],
        [-0.28867513459481287, 0]
      ]
    }
  ]
}
""",
    3: """\
{
  "dim": 3,
  "elements": [
    {
      "matrix_re": [
        [1, -0, 0],
        [0, 0, 0],
        [0, 0, 0]
      ],
      "matrix_im": [
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0]
      ]
    },
    {
      "matrix_re": [
        [0, 0, 0],
        [0, 0.5, 0],
        [0, 0, 0.5]
      ],
      "matrix_im": [
        [0, 0, 0],
        [0, 0, -0.5],
        [0, 0.5, 0]
      ]
    },
    {
      "matrix_re": [
        [0, 0, 0],
        [0, 0.5, 0],
        [0, 0, 0.5]
      ],
      "matrix_im": [
        [0, 0, 0],
        [0, 0, 0.5],
        [0, -0.5, 0]
      ]
    }
  ]
}
""",
}
GOLDEN_ENSEMBLE_TEXT = {
    2: """\
{
  "dim": 2,
  "states": [
    {
      "weight": 0.29999999999999999,
      "matrix_re": [
        [0.75, 0.25],
        [0.25, 0.25]
      ],
      "matrix_im": [
        [0, -0.10000000000000001],
        [0.10000000000000001, 0]
      ]
    },
    {
      "weight": 0.69999999999999996,
      "matrix_re": [
        [0.5, 0.5],
        [0.5, 0.5]
      ],
      "matrix_im": [
        [0, -0],
        [0, 0]
      ]
    }
  ]
}
""",
    3: """\
{
  "dim": 3,
  "states": [
    {
      "weight": 0.33333333333333331,
      "matrix_re": [
        [0.33333333333333331, 0, 0],
        [0, 0.33333333333333331, 0],
        [0, 0, 0.33333333333333331]
      ],
      "matrix_im": [
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0]
      ]
    },
    {
      "weight": 0.66666666666666663,
      "matrix_re": [
        [0.5, 0, 0],
        [0, 0.25, 1.0000000000000001e-17],
        [0, 1.0000000000000001e-17, 0.25]
      ],
      "matrix_im": [
        [0, 0, 0.25],
        [0, 0, 0],
        [-0.25, 0, 0]
      ]
    }
  ]
}
""",
}


class TestGoldenText:
    @pytest.mark.parametrize("n", [2, 3])
    def test_povm_bytes(self, n):
        assert encode_povm(Povm(GOLDEN_POVMS[n])) == GOLDEN_POVM_TEXT[n]

    @pytest.mark.parametrize("n", [2, 3])
    def test_ensemble_bytes(self, n):
        assert encode_ensemble(Ensemble(GOLDEN_ENSEMBLES[n])) == GOLDEN_ENSEMBLE_TEXT[n]

    def test_numbers_format_as_17g(self):
        # random bit patterns: subnormals, huge and tiny exponents, both signs
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**64, size=(2000, 2), dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values).all(axis=1)]
        values[:4] = [[0.0, -0.0], [1.0, -2.0], [5e-324, 1e300], [0.1, 2**53]]
        stack = np.empty((len(values), 1, 1), dtype=complex)
        stack.real[:, 0, 0], stack.imag[:, 0, 0] = values.T
        text = _write(1, "elements", stack)
        rows = re.findall(r"\[([^\[\]]+)\]", text)
        assert rows == [format(x, ".17g") for x in values.ravel().tolist()]


class TestCurveCommand:
    def test_two_point_qubit_rows(self):
        text = curve_csv_text(2, 2)
        assert text.splitlines() == [
            "n,P,impurity,q_w,s_a_max",
            "2,0.500000,0.500000,0.000000,0.000000",
            "2,1.000000,0.000000,0.193147,0.693147",
        ]

    def test_qutrit_endpoint_row(self):
        last = curve_csv_text(3, 5).splitlines()[-1]
        assert last == "3,1.000000,0.000000,0.265279,1.098612"

    def test_first_row_is_zero(self):
        for n in (2, 4):
            first = curve_csv_text(n, 3).splitlines()[1]
            assert first.endswith("0.000000,0.000000")

    def test_cli_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["curve", "--n", "3", "--points", "17", "--out", str(out1)]) == 0
        assert main(["curve", "--n", "3", "--points", "17", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_cli_gnuplot_flag(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(
            ["curve", "--n", "2", "--points", "4", "--out", str(out), "--gnuplot"]
        ) == 0
        script = (tmp_path / "curve.gp").read_text()
        assert "curve.csv" in script

    def test_cli_bad_arguments(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curve", "--n", "9", "--points", "4", "--out", str(out)]) == 2
        assert main(["curve", "--n", "2", "--points", "1", "--out", str(out)]) == 2

    def test_cli_write_failure(self, tmp_path):
        missing = tmp_path / "nope" / "c.csv"
        assert main(["curve", "--n", "2", "--points", "2", "--out", str(missing)]) == 1


class TestBoundsCommand:
    def test_orthogonal_pair_values(self, tmp_path, capsys):
        e = Ensemble([(0.5, basis_projector(2, 0)), (0.5, basis_projector(2, 1))])
        path = tmp_path / "e.json"
        save_ensemble(path, e)
        assert main(["bounds", "--ensemble", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jrw_lower"] == pytest.approx(math.log(2) - 0.5, abs=1e-9)
        assert report["holevo_upper"] == pytest.approx(math.log(2), abs=1e-9)
        assert report["state_purities"] == pytest.approx([1.0, 1.0])
        assert report["average_purity"] == pytest.approx(0.5)

    def test_single_state_file(self, tmp_path, capsys):
        e = Ensemble([(1.0, random_density_matrix(2, np.random.default_rng(3)))])
        path = tmp_path / "single.json"
        save_ensemble(path, e)
        assert main(["bounds", "--ensemble", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jrw_lower"] == pytest.approx(0.0, abs=1e-9)
        assert report["holevo_upper"] == pytest.approx(0.0, abs=1e-9)

    def test_zero_plus_file(self, tmp_path, capsys):
        e = Ensemble(
            [(0.5, pure_state_density([1, 0])), (0.5, pure_state_density([1, 1]))]
        )
        path = tmp_path / "zp.json"
        save_ensemble(path, e)
        assert main(["bounds", "--ensemble", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jrw_lower"] == pytest.approx(0.1048829, abs=1e-5)
        assert report["holevo_upper"] == pytest.approx(0.4164955, abs=1e-5)

    def test_text_mode_mentions_bounds(self, tmp_path, capsys):
        e = sample_ensemble()
        path = tmp_path / "e.json"
        save_ensemble(path, e)
        assert main(["bounds", "--ensemble", str(path)]) == 0
        out = capsys.readouterr().out
        assert "jrw_lower:" in out and "holevo_upper:" in out

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "states": [{"weight": 1.0, "matrix_re": [[1.0]], "matrix_im": [[0.0]]}]}')
        assert main(["bounds", "--ensemble", str(path)]) == 3
        assert "states[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state, dim",
        [
            ('{"weight": "abc", "matrix_re": [[1, 0], [0, 0]], "matrix_im": [[0, 0], [0, 0]]}', "2"),
            ('{"weight": 1.0, "matrix_re": [[1, "x"], [0, 0]], "matrix_im": [[0, 0], [0, 0]]}', "2"),
            ("5", "2"),
            ('{"weight": 1.0, "matrix_re": [[1]], "matrix_im": [[0]]}', "true"),
            ('{"weight": 1.0, "matrix_re": [["1", 0], [0, 0]], "matrix_im": [[0, 0], [0, 0]]}', "2"),
            ('{"weight": 1.0, "matrix_re": [[1, 0], [0]], "matrix_im": [[0, 0], [0, 0]]}', "2"),
            (
                '{"weight": 1.0, "matrix_re": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],'
                ' "matrix_im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}',
                "2",
            ),
        ],
        ids=[
            "string-weight", "string-entry", "state-not-object", "bool-dim",
            "numeric-string-entry", "ragged-row", "3x3-in-dim-2",
        ],
    )
    def test_malformed_fields_exit_code(self, tmp_path, capsys, state, dim):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": {dim}, "states": [{state}]}}')
        assert main(["bounds", "--ensemble", str(path)]) == 3
        if dim == "2":
            assert "states[0]" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["bounds", "--ensemble", str(tmp_path / "missing.json")]) == 1


class TestOptimizeCommands:
    def test_optimize_acc_deterministic_and_writes_povm(self, tmp_path, capsys):
        e = Ensemble(
            [(0.5, pure_state_density([1, 0])), (0.5, pure_state_density([1, 1]))]
        )
        path = tmp_path / "e.json"
        save_ensemble(path, e)
        args = ["optimize-acc", "--ensemble", str(path), "--restarts", "3", "--seed", "5", "--tol", "1e-9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        value = float(first.splitlines()[0].split(":")[1])
        assert value == pytest.approx(0.2766516, abs=1e-4)
        written = tmp_path / "e.optimal-povm.json"
        povm = decode_povm(written.read_text())
        assert povm.dim == 2

    def test_optimize_power_writes_ensemble(self, tmp_path, capsys):
        m = Povm([basis_projector(2, 0), basis_projector(2, 1)])
        path = tmp_path / "m.json"
        save_povm(path, m)
        assert main(["optimize-power", "--povm", str(path), "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(math.log(2), abs=1e-6)
        decoded = load_ensemble(tmp_path / "m.optimal-ensemble.json")
        assert decoded.dim == 2

    def test_dimension_limit_exit_code(self, tmp_path):
        e = Ensemble([(1.0, np.eye(9, dtype=complex) / 9)])
        path = tmp_path / "big.json"
        save_ensemble(path, e)
        assert main(["optimize-acc", "--ensemble", str(path)]) == 4


class TestMcCommand:
    def test_exact_at_zero_epsilon(self, capsys):
        assert main(
            ["mc-scrooge", "--n", "2", "--epsilon", "0", "--samples", "2000", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "z: exact" in out

    def test_reports_z_score(self, capsys):
        assert main(
            ["mc-scrooge", "--n", "2", "--epsilon", "1", "--samples", "100000", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert abs(float(fields["estimate"]) - float(fields["analytic"])) < 5 * float(
            fields["std_error"]
        )

    def test_bad_arguments(self):
        assert main(["mc-scrooge", "--n", "2", "--epsilon", "2", "--samples", "2000"]) == 2
        assert main(["mc-scrooge", "--n", "2", "--epsilon", "0.5", "--samples", "10"]) == 2

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
