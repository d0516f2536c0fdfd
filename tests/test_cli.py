"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qconc import (
    SamplerSpec, __version__, emit_state, make_state, parse_state, sample_state, tensor,
)
from qconc.cli import cli_main
from qconc.stateio import MAX_SAMPLE_AMPLITUDES

from conftest import bell_state, ghz_state, ket

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(emit_state(bell_state()), encoding="utf-8")
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(emit_state(ghz_state()), encoding="utf-8")
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    state = tensor(make_state([2], [SQ2, SQ2]), ket([2], [1]))
    path = tmp_path / "product.json"
    path.write_text(emit_state(state), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConcurrenceCommand:
    def test_bell_value(self, capsys, bell_file):
        code, out, _ = run_cli(capsys, "concurrence", "--state", bell_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "qconc"
        assert doc["version"] == __version__
        assert doc["command"] == "concurrence"
        assert doc["parameters"]["state"] == bell_file
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["subsystems"] == 2

    def test_ghz_value(self, capsys, ghz_file):
        code, out, _ = run_cli(capsys, "concurrence", "--state", ghz_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(math.sqrt(3), abs=1e-12)
        assert len(doc["per_cut_sums"]) == 3

    def test_normalization_flag(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "concurrence", "--state", bell_file, "--normalization", "2"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_infinite_normalization_is_input_error(self, capsys, tmp_path):
        # A product state: inf * 0 would be a NaN value.
        path = tmp_path / "product.json"
        path.write_text(emit_state(ket([2, 2], [1, 1])), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "concurrence", "--state", str(path), "--normalization", "inf"
        )
        assert code == 2
        assert out == ""
        assert "normalization" in err and "not finite" not in err

    def test_repeated_runs_byte_identical(self, capsys, ghz_file):
        _, first, _ = run_cli(capsys, "concurrence", "--state", ghz_file)
        _, second, _ = run_cli(capsys, "concurrence", "--state", ghz_file)
        assert first == second

    def test_four_subsystems_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "four.json"
        path.write_text(emit_state(ket([2, 2, 2, 2], [1, 1, 1, 1])), encoding="utf-8")
        code, out, _ = run_cli(capsys, "concurrence", "--state", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "ArityError"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "concurrence", "--state", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_huge_integer_amplitude_is_format_error(self, capsys, tmp_path):
        # 10**400 does not fit a double: a one-line input error (exit 2), not
        # an OverflowError traceback with the domain-error exit code 1.
        path = tmp_path / "huge.json"
        path.write_text(
            '{"dims": [2], "amps": [[1' + "0" * 400 + ', 0], [0, 0]]}', encoding="utf-8"
        )
        code, out, err = run_cli(capsys, "concurrence", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "amps[0]" in err
        assert "Traceback" not in err

    def test_deeply_nested_state_is_format_error(self, capsys, tmp_path):
        # json's decoder gives up on deep nesting with a RecursionError: a
        # one-line input error (exit 2), not a traceback with exit 1.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        code, out, err = run_cli(capsys, "concurrence", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale", [1e200, 1e160, 1e-170])
    def test_extreme_magnitudes(self, capsys, tmp_path, scale):
        path = tmp_path / "bell.json"
        path.write_text(emit_state(make_state([2, 2], scale * bell_state().amps)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "concurrence", "--state", str(path))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-10)

    def test_malformed_state_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2], "amps": oops}', encoding="utf-8")
        code, _, err = run_cli(capsys, "concurrence", "--state", str(path))
        assert code == 2
        assert "line" in err


class TestSeparabilityCommand:
    def test_huge_amplitudes_unprintable_minor_is_input_error(self, capsys, tmp_path):
        # Bell x 1e160 is entangled, but its max |minor| (5e319) has no
        # double; JSON cannot carry inf, so it is a one-line error, exit 2.
        path = tmp_path / "bell.json"
        path.write_text(emit_state(make_state([2, 2], 1e160 * bell_state().amps)), encoding="utf-8")
        code, out, err = run_cli(capsys, "separability", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "not finite" in err
        assert "Traceback" not in err and "Infinity" not in err

    def test_tiny_amplitudes_are_entangled(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        path.write_text(emit_state(make_state([2, 2], 1e-170 * bell_state().amps)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "separability", "--state", str(path))
        assert code == 0
        assert json.loads(out)["all_separable"] is False

    def test_infinite_tolerance_is_not_printed(self, capsys, bell_file):
        code, out, err = run_cli(capsys, "separability", "--state", bell_file, "--tol", "inf")
        assert code == 2
        assert out == ""
        assert "Infinity" not in err

    def test_bell_single_cut(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "separability", "--state", bell_file, "--cut", "1"
        )
        assert code == 0
        doc = json.loads(out)
        certs = doc["certificates"]
        assert len(certs) == 1
        assert certs[0]["cut"] == 1
        assert certs[0]["separable"] is False
        assert certs[0]["max_abs_minor"] == pytest.approx(0.5, abs=1e-15)
        assert certs[0]["factors"] is None
        assert doc["all_separable"] is False

    def test_all_cuts_by_default(self, capsys, ghz_file):
        code, out, _ = run_cli(capsys, "separability", "--state", ghz_file)
        assert code == 0
        doc = json.loads(out)
        assert [c["cut"] for c in doc["certificates"]] == [1, 2, 3]
        assert doc["all_separable"] is False

    def test_product_state_is_separable(self, capsys, product_file):
        code, out, _ = run_cli(capsys, "separability", "--state", product_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_separable"] is True
        for cert in doc["certificates"]:
            assert cert["separable"] is True
            assert len(cert["factors"]) == 2

    def test_cut_out_of_range(self, capsys, bell_file):
        code, _, err = run_cli(
            capsys, "separability", "--state", bell_file, "--cut", "5"
        )
        assert code == 2
        assert "out of range" in err

    def test_tol_flag_loosens_verdict(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "separability", "--state", bell_file, "--cut", "1", "--tol", "10"
        )
        assert code == 0
        assert json.loads(out)["certificates"][0]["separable"] is True

    def test_more_subsystems_than_numpy_axes(self, capsys, tmp_path):
        # A Bell pair on subsystems 1 and 65, with 63 trivial ones between.
        path = tmp_path / "spread.json"
        state = make_state([2] + [1] * 63 + [2], bell_state().amps)
        path.write_text(emit_state(state), encoding="utf-8")
        code, out, _ = run_cli(capsys, "separability", "--state", str(path), "--cut", "1")
        assert code == 0
        assert json.loads(out)["certificates"][0]["separable"] is False
        code, out, _ = run_cli(capsys, "fullsep", "--state", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["fully_separable"] is False
        assert doc["remainder_subsystems"] == [1, 65]


class TestFactorizeCommand:
    def test_entangled_input_exit_1(self, capsys, bell_file):
        code, out, _ = run_cli(capsys, "factorize", "--state", bell_file, "--cut", "1")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "CertificateError"
        assert "not separable" in doc["error"]["message"]

    def test_product_input_factors(self, capsys, product_file):
        code, out, _ = run_cli(
            capsys, "factorize", "--state", product_file, "--cut", "1"
        )
        assert code == 0
        doc = json.loads(out)
        u, v = doc["factors"]
        u_vec = np.array([complex(re, im) for re, im in u["amps"]])
        v_vec = np.array([complex(re, im) for re, im in v["amps"]])
        original = parse_state(open(product_file, encoding="utf-8").read())
        rebuilt = np.kron(u_vec, v_vec)
        overlap = abs(np.vdot(rebuilt, original.amps / np.linalg.norm(original.amps)))
        assert overlap**2 >= 1 - 1e-10

    def test_cut_flag_required(self, capsys, product_file):
        code, _, err = run_cli(capsys, "factorize", "--state", product_file)
        assert code == 2
        assert "--cut" in err


class TestFullsepCommand:
    def test_product_state(self, capsys, product_file):
        code, out, _ = run_cli(capsys, "fullsep", "--state", product_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "fully separable"
        assert doc["fully_separable"] is True
        assert [f["subsystem"] for f in doc["factors"]] == [1, 2]
        assert doc["failed_cuts"] == []
        assert doc["remainder"] is None
        assert doc["remainder_subsystems"] == []

    def test_ghz(self, capsys, ghz_file):
        code, out, _ = run_cli(capsys, "fullsep", "--state", ghz_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "entangled at cut structure"
        assert doc["factors"] == []
        assert len(doc["failed_cuts"]) == 3
        assert doc["remainder_subsystems"] == [1, 2, 3]


    @pytest.mark.parametrize("tol", ["-0.5", "0"])
    def test_bad_tolerance_on_one_subsystem_is_input_error(self, capsys, tmp_path, tol):
        path = tmp_path / "one.json"
        path.write_text(emit_state(ket([3], [1])), encoding="utf-8")
        code, out, err = run_cli(capsys, "fullsep", "--state", str(path), f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "tolerance must be positive" in err


class TestParameterEcho:
    """``parameters`` holds the subcommand's flags in declaration order, on
    success and on a domain error (exit 1) alike."""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["concurrence"], [("normalization", 4.0)]),
            (["separability"], [("cut", None), ("tol", 1e-9)]),
            (["separability", "--tol", "1e-6", "--cut", "2"], [("cut", 2), ("tol", 1e-6)]),
            (["factorize", "--tol", "1e-3", "--cut", "1"], [("cut", 1), ("tol", 1e-3)]),
            (["fullsep"], [("tol", 1e-9)]),
        ],
    )
    def test_success(self, capsys, product_file, argv, flags):
        code, out, _ = run_cli(capsys, argv[0], "--state", product_file, *argv[1:])
        assert code == 0
        assert list(json.loads(out)["parameters"].items()) == [("state", product_file), *flags]

    def _domain_error(self, capsys, tmp_path, state, *argv):
        path = tmp_path / "state.json"
        path.write_text(emit_state(state), encoding="utf-8")
        code, out, _ = run_cli(capsys, argv[0], "--state", str(path), *argv[1:])
        assert code == 1
        doc = json.loads(out)
        parameters = list(doc["parameters"].items())
        assert parameters[0] == ("state", str(path))
        return doc["error"]["type"], parameters[1:]

    def test_concurrence_domain_error(self, capsys, tmp_path):
        error, flags = self._domain_error(
            capsys, tmp_path, ket([2, 2, 2, 2], [1, 1, 1, 1]), "concurrence", "--normalization", "2"
        )
        assert error == "ArityError"
        assert flags == [("normalization", 2.0)]

    def test_separability_domain_error(self, capsys, tmp_path):
        error, flags = self._domain_error(
            capsys, tmp_path, ket([3], [2]), "separability", "--cut", "1", "--tol", "0.5"
        )
        assert error == "ArityError"
        assert flags == [("cut", 1), ("tol", 0.5)]

    def test_factorize_domain_error(self, capsys, tmp_path):
        state = sample_state(SamplerSpec((2, 2), "haar", 7))
        error, flags = self._domain_error(
            capsys, tmp_path, state, "factorize", "--cut", "2", "--tol", "1e-6"
        )
        assert error == "CertificateError"
        assert flags == [("cut", 2), ("tol", 1e-6)]

    def test_unprintable_parameter_on_domain_error_is_input_error(self, capsys, tmp_path):
        # The library would raise the arity error first, but JSON has no inf
        # to echo, so the parser refuses the flag and nothing is printed.
        path = tmp_path / "four.json"
        path.write_text(emit_state(ket([2, 2, 2, 2], [1, 1, 1, 1])), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "concurrence", "--state", str(path), "--normalization", "inf"
        )
        assert code == 2
        assert out == ""
        assert "Infinity" not in err


class TestSampleCommand:
    def test_stdout_document_parses(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--dims", "2,2", "--kind", "haar", "--seed", "42"
        )
        assert code == 0
        state = parse_state(out)
        assert state.dims == (2, 2)
        assert abs(state.norm() - 1.0) <= 1e-12
        assert '"label": "haar[2x2] seed=42"' in out

    def test_write_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "draw.json"
        code, out, _ = run_cli(
            capsys,
            "sample", "--dims", "2,3", "--kind", "product",
            "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["written"] == str(out_path)
        state = parse_state(out_path.read_text(encoding="utf-8"))
        assert state.dims == (2, 3)

    def test_deterministic_across_invocations(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                capsys,
                "sample", "--dims", "3,3", "--kind", "haar",
                "--seed", "123", "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_basis_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--dims", "2,2", "--kind", "basis", "--seed", "0"
        )
        assert code == 0
        np.testing.assert_array_equal(parse_state(out).amps, [1, 0, 0, 0])

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--dims", "2", "--kind", "fancy", "--seed", "0"
        )
        assert code == 2
        assert "invalid choice" in err

    def test_bad_dims_string(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--dims", "2,x", "--kind", "haar", "--seed", "0"
        )
        assert code == 2

    def test_oversized_dims_refused_before_allocating(self, capsys):
        # 2**40 amplitudes would need 16 TiB; the refusal must come first.
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "sample", "--dims", "1048576,1048576", "--kind", "haar", "--seed", "0"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert str(MAX_SAMPLE_AMPLITUDES) in err
        assert peak < 1 << 20

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--dims", "2", "--kind", "haar", "--seed", "-3"
        )
        assert code == 2
        assert "seed" in err


class TestUsageContract:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    def test_unknown_flag(self, capsys, bell_file):
        code, _, err = run_cli(
            capsys, "concurrence", "--state", bell_file, "--frobnicate"
        )
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "entangle-everything")
        assert code == 2

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--tol", ["separability", "--tol", "-1e-3"]),
            ("--tol", ["fullsep", "--tol", "-inf"]),
            ("--tol", ["factorize", "--cut", "1", "--tol", "-1e-3"]),
            ("--normalization", ["concurrence", "--normalization", "-1e-3"]),
        ],
    )
    def test_separate_signed_value_is_usage_error(self, capsys, bell_file, flag, argv):
        # argparse reads "-1e-3" and "-inf" after a space as flags, so the
        # option has no argument; --tol=-1e-3 reaches the flag's own check.
        code, out, err = run_cli(capsys, *argv, "--state", bell_file)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected one argument" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--tol", ["separability", "--tol", "inf"]),
            ("--tol", ["separability", "--cut", "1", "--tol", "nan"]),
            ("--tol", ["factorize", "--cut", "1", "--tol", "inf"]),
            ("--tol", ["fullsep", "--tol=-inf"]),
            ("--normalization", ["concurrence", "--normalization", "inf"]),
            ("--normalization", ["concurrence", "--normalization", "NaN"]),
        ],
    )
    def test_non_finite_flag_refused_by_name(self, capsys, tmp_path, flag, argv):
        # Refused while parsing, before the state is read: no document could
        # echo the value (JSON has no inf or NaN), whatever the state.
        path = tmp_path / "four.json"
        path.write_text(emit_state(ket([2, 2, 2, 2], [1, 1, 1, 1])), encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--state", str(path))
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be a finite number" in err


class TestCrossProcessDeterminism:
    def test_subprocess_runs_byte_identical(self, tmp_path):
        path = tmp_path / "state.json"
        first = subprocess.run(
            [sys.executable, "-m", "qconc.cli",
             "sample", "--dims", "2,2,2", "--kind", "haar", "--seed", "99"],
            capture_output=True, check=True,
        )
        second = subprocess.run(
            [sys.executable, "-m", "qconc.cli",
             "sample", "--dims", "2,2,2", "--kind", "haar", "--seed", "99"],
            capture_output=True, check=True,
        )
        assert first.stdout == second.stdout
        path.write_bytes(first.stdout)
        third = subprocess.run(
            [sys.executable, "-m", "qconc.cli", "concurrence", "--state", str(path)],
            capture_output=True, check=True,
        )
        fourth = subprocess.run(
            [sys.executable, "-m", "qconc.cli", "concurrence", "--state", str(path)],
            capture_output=True, check=True,
        )
        assert third.stdout == fourth.stdout
        assert json.loads(third.stdout)["value"] > 0.1


class TestCertificateBudget:
    def test_refused_before_allocating(self, capsys, monkeypatch):
        # The state is built before measuring, so only the command's own
        # allocations count; the refusal must come before the kernel's.
        state = make_state([1024, 1024], np.ones(1 << 20))
        monkeypatch.setattr("qconc.cli._read_state", lambda path: state)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "separability", "--state", "big.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "minors" in err
        assert peak < 1 << 20

    def test_fullsep_refused_before_allocating(self, capsys, monkeypatch):
        state = make_state([1024, 1024], np.ones(1 << 20))
        monkeypatch.setattr("qconc.cli._read_state", lambda path: state)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "fullsep", "--state", "big.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "minors" in err
        assert peak < 1 << 20

    def test_refused_from_a_state_file(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(emit_state(make_state([256, 256], np.ones(1 << 16))), encoding="utf-8")
        for command in (["separability"], ["factorize", "--cut", "1"], ["fullsep"]):
            code, out, err = run_cli(capsys, *command, "--state", str(path))
            assert code == 2 and out == "" and "budget" in err
        code, out, _ = run_cli(capsys, "concurrence", "--state", str(path))
        assert code == 0 and json.loads(out)["value"] == 0.0
