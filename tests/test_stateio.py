"""Tests for the state file format and the seeded state samplers."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc import (
    DegenerateStateError,
    NonFiniteError,
    SAMPLER_KINDS,
    SamplerSpec,
    ShapeError,
    StateFormatError,
    concurrence,
    emit_state,
    full_separability,
    make_state,
    parse_state,
    sample_state,
)
from qconc.stateio import MAX_SAMPLE_AMPLITUDES

BELL_TEXT = (
    '{"dims":[2,2],"amps":[[0.7071067811865476,0],[0,0],[0,0],'
    "[0.7071067811865476,0]]}"
)

# Frozen draws pinning the sampler contract (PCG64 via default_rng; real parts
# then imaginary parts; product factors in ascending subsystem order).  If
# these fail, the generator changed and every seeded corpus silently shifts.
GOLDEN_HAAR_2X2_SEED7 = [
    complex(0.0006191581263477365, -0.2288439158740952),
    complex(0.15036395757763224, -0.499113398549981),
    complex(-0.13797847224057333, 0.03027134793359321),
    complex(-0.44825075741286224, 0.6745542377239508),
]
GOLDEN_PRODUCT_2X3_SEED11 = [
    complex(0.014248172206331854, -0.08938694780541732),
    complex(-0.22727897460321256, -0.1511589216953601),
    complex(0.5560240144923457, 0.15462631530646967),
    complex(-0.10569454852757916, 0.01847513382759201),
    complex(-0.08186307239180245, 0.31303484186240393),
    complex(-0.04093999929822391, -0.6828975637871305),
]
GOLDEN_EMIT_HAAR_2_SEED1 = (
    '{"dims": [2], "amps": [[0.21424427007839494, 0.20485384406841473], '
    '[0.50936062319821673, -0.80788987544348734]], "label": "pin"}\n'
)

GOLDEN_EMIT_HAAR_32X32_SEED1_SHA256 = (
    "148fc2b88103d2016b63a5972f478b414d42397028363314698a4370e6a228b4"
)


class TestParseState:
    def test_bell_document(self):
        s = parse_state(BELL_TEXT)
        assert s.dims == (2, 2)
        assert s.amps[0] == pytest.approx(1 / math.sqrt(2))
        assert s.amps[1] == 0.0

    def test_single_qubit(self):
        s = parse_state('{"dims":[2],"amps":[[1,0],[0,0]]}')
        assert s.dims == (2,)
        np.testing.assert_array_equal(s.amps, [1, 0])

    def test_label_validated_and_written(self):
        # The label is written and checked on parsing, but not returned.
        s = parse_state('{"dims":[2],"amps":[[1,0],[0,0]],"label":"ghz"}')
        assert '"label": "ghz"' in emit_state(s, label="ghz")
        assert '"label"' not in emit_state(s)

    def test_shape_error_on_length_mismatch(self):
        with pytest.raises(ShapeError):
            parse_state('{"dims":[2,2],"amps":[[1,0]]}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(StateFormatError) as err:
            parse_state('{"dims": [2,\n "amps“: }')
        assert "line" in str(err.value)
        assert "column" in str(err.value)

    def test_top_level_must_be_object(self):
        with pytest.raises(StateFormatError):
            parse_state("[1, 2, 3]")

    @pytest.mark.parametrize(
        "text",
        [
            '{"amps":[[1,0]]}',  # dims missing
            '{"dims":[],"amps":[]}',  # dims empty
            '{"dims":[2,0],"amps":[]}',  # nonpositive dim
            '{"dims":[2.5],"amps":[[1,0],[0,0]]}',  # non-integer dim
            '{"dims":[true,2],"amps":[[1,0],[0,0]]}',  # boolean dim
            '{"dims":[2],"amps":"nope"}',  # amps not a list
            '{"dims":[2],"amps":[[1,0],[0]]}',  # pair of wrong length
            '{"dims":[2],"amps":[[1,0],["0",0]]}',  # non-numeric component
            '{"dims":[2],"amps":[[1,0],[true,0]]}',  # boolean component
            '{"dims":[2],"amps":[[1,0],[0,0]],"label":7}',  # non-string label
        ],
    )
    def test_structurally_invalid_documents(self, text):
        with pytest.raises(StateFormatError):
            parse_state(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"dims":[2],"amps":[[1,0],[Infinity,0]]}',
            '{"dims":[2],"amps":[[1,0],[0,NaN]]}',
            '{"dims":[2],"amps":[[1,0],[-Infinity,0]]}',
            '{"dims":[2],"amps":[[1,0],[1e400,0]]}',  # overflows to inf
            '{"dims":[2],"amps":[[1,0],[0,0]],"note":NaN}',  # outside the amplitudes
        ],
    )
    def test_non_finite_rejected(self, text):
        with pytest.raises(NonFiniteError):
            parse_state(text)

    def test_all_zero_amplitudes_rejected(self):
        with pytest.raises(DegenerateStateError):
            parse_state('{"dims":[2],"amps":[[0,0],[0,0]]}')

    def test_no_normalization_applied(self):
        s = parse_state('{"dims":[2],"amps":[[3,0],[4,0]]}')
        assert s.norm() == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "pair",
        ["[0.5]", "[0.5, 0.5, 0.5]", '["0.5", 0.5]', "[0.5, true]", "[[0.5], 0.5]", "null",
         "[0.5, null]", '{"re": 0.5, "im": 0.5}'],
    )
    def test_bad_pair_far_into_the_document_is_named(self, pair):
        # All other pairs are valid, so the batched check alone cannot name it.
        with pytest.raises(StateFormatError) as err:
            parse_state(_long_document(pair))
        assert str(err.value) == "amps[3000] must be a [re, im] pair of numbers"

    def test_integer_too_large_for_a_double_is_named(self):
        with pytest.raises(StateFormatError) as err:
            parse_state(_long_document("[" + "7" * 400 + ", 0.5]"))
        assert str(err.value) == "amps[3000] contains an integer too large for a double"

    def test_first_bad_pair_is_named(self):
        text = _long_document('["x", 0]').replace("[0.5, 0.5]]}", "[1" + "0" * 400 + ", 0]]}")
        with pytest.raises(StateFormatError, match=re.escape("amps[3000] must be")):
            parse_state(text)

    def test_integer_components_convert_as_float_does(self):
        ints = [3, 0, 2**53 + 1, -(2**63 + 1), 2**64 + 2**12 + 1, 10**300 + 7,
                2**1024 - 2**970 - 1, 1]
        text = json.dumps({"dims": [len(ints) // 2],
                           "amps": [list(p) for p in zip(ints[0::2], ints[1::2])]})
        parts = parse_state(text).amps.view(np.float64)
        assert parts.tobytes() == np.array([float(v) for v in ints]).tobytes()

    def test_empty_amps_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            parse_state('{"dims":[2],"amps":[]}')


def _long_document(pair: str, count: int = 4096, at: int = 3000) -> str:
    """A [count] state document whose pair at index at is the given JSON text."""
    pairs = ["[0.5, 0.5]"] * count
    pairs[at] = pair
    return '{"dims": [%d], "amps": [%s]}' % (count, ", ".join(pairs))


def _reference_float(x: float) -> str:
    """The state file's number format, one value at a time."""
    s = format(x, ".17g")
    return s if any(ch in s for ch in ".eE") else s + ".0"


def _reference_document(state) -> str:
    pairs = ", ".join(f"[{_reference_float(z.real)}, {_reference_float(z.imag)}]"
                      for z in state.amps)
    return '{"dims": [%s], "amps": [%s]}\n' % (", ".join(map(str, state.dims)), pairs)


class TestEmitState:
    def test_canonical_key_order(self):
        text = emit_state(make_state([2], [1, 0]), label="x")
        assert text.index('"dims"') < text.index('"amps"') < text.index('"label"')
        assert text.endswith("}\n")

    @pytest.mark.parametrize("label", [7, 1.5, b"ghz", ["ghz"]])
    def test_non_string_label_refused_on_emit(self, label):
        # parse_state refuses a non-string label, so emit_state must not write one.
        with pytest.raises(TypeError, match="label"):
            emit_state(make_state([2], [1, 0]), label=label)

    def test_emitted_text_is_valid_json(self):
        text = emit_state(make_state([2, 2], [0.5, 0.5j, -0.5, -0.5j]))
        doc = json.loads(text)
        assert doc["dims"] == [2, 2]
        assert doc["amps"][1] == [0.0, 0.5]

    def test_round_trip_bell(self):
        bell = parse_state(BELL_TEXT)
        again = parse_state(emit_state(bell))
        assert again.dims == bell.dims
        np.testing.assert_array_equal(again.amps, bell.amps)

    def test_negative_zero_survives(self):
        s = make_state([2], [complex(-0.0, 1.0), 1.0])
        again = parse_state(emit_state(s))
        assert math.copysign(1.0, again.amps[0].real) == -1.0

    def test_frozen_emission(self):
        s = sample_state(SamplerSpec((2,), "haar", 1))
        assert emit_state(s, label="pin") == GOLDEN_EMIT_HAAR_2_SEED1

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(12) * 10.0 ** rng.integers(-8, 9)
        amps = amps + 1j * rng.standard_normal(12)
        s = make_state([3, 4], amps)
        again = parse_state(emit_state(s))
        assert again.dims == s.dims
        assert np.array_equal(again.amps, s.amps)

    def test_special_values_match_the_reference_format(self):
        values = [0.0, -0.0, -7.0, 1e16, 99999999999999984.0, 1e17, -1e17, 2.0**60,
                  5e-324, 1e-300, 1e300, 0.5, 2.0**53 + 2, -123456.0, 1e15 + 0.125]
        values += [-v for v in values]
        s = make_state([len(values) // 2], np.array(values).view(np.complex128))
        assert emit_state(s) == _reference_document(s)
        assert parse_state(emit_state(s)).amps.tobytes() == s.amps.tobytes()

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16385])
    def test_states_across_the_chunk_size_match_the_reference(self, n):
        s = sample_state(SamplerSpec((n,), "haar", n))
        assert emit_state(s) == _reference_document(s)

    def test_basis_state_matches_the_reference(self):
        s = sample_state(SamplerSpec((4, 8), "basis", 0))
        assert emit_state(s) == _reference_document(s)
        assert emit_state(s).startswith('{"dims": [4, 8], "amps": [[1.0, 0.0], [0.0, 0.0], ')

    def test_frozen_haar_32x32_emission(self):
        text = emit_state(sample_state(SamplerSpec((32, 32), "haar", 1)), label="pin")
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_EMIT_HAAR_32X32_SEED1_SHA256

    def test_readme_example_is_the_writers_output(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        [line] = [line for line in readme.splitlines() if line.startswith('{"dims": [2, 2]')]
        bell = make_state([2, 2], [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        assert line + "\n" == emit_state(bell, label="bell")

    def test_round_trip_haar_3x4(self):
        s = sample_state(SamplerSpec((3, 4), "haar", 123))
        again = parse_state(emit_state(s))
        assert np.array_equal(again.amps, s.amps)


class TestSamplerSpec:
    def test_valid(self):
        spec = SamplerSpec((2, 3), "haar", 5)
        assert spec.dims == (2, 3)
        assert spec.kind == "haar"
        assert spec.seed == 5

    def test_kinds_catalog(self):
        assert set(SAMPLER_KINDS) == {"haar", "product", "basis"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SamplerSpec((2,), "bures", 0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            SamplerSpec((), "haar", 0)
        with pytest.raises(ValueError):
            SamplerSpec((0, 2), "haar", 0)

    def test_non_integer_dims_and_seed_rejected(self):
        # int() would truncate them to dims (2, 2) and seed 1.
        with pytest.raises(ShapeError):
            SamplerSpec((2.9, 2), "haar", 1)
        with pytest.raises(ValueError, match="seed"):
            SamplerSpec((2, 2), "haar", 1.7)

    def test_boolean_dims_and_seed_rejected(self):
        with pytest.raises(ShapeError):
            SamplerSpec((True, True), "basis", 0)
        with pytest.raises(ValueError, match="seed"):
            SamplerSpec((2, 2), "basis", True)
        with pytest.raises(ValueError, match="seed"):
            SamplerSpec((2,), "haar", False)

    def test_numpy_integers_accepted(self):
        spec = SamplerSpec((np.int64(2), np.uint8(3)), "haar", np.uint64(2**64 - 1))
        assert spec.dims == (2, 3) and spec.seed == 2**64 - 1
        assert all(type(v) is int for v in (*spec.dims, spec.seed))

    def test_amplitude_count_bound(self):
        # Only the spec is built: refusing must not depend on drawing.
        SamplerSpec((MAX_SAMPLE_AMPLITUDES,), "haar", 0)
        SamplerSpec((2, MAX_SAMPLE_AMPLITUDES // 2), "product", 0)
        with pytest.raises(ValueError, match="amplitudes"):
            SamplerSpec((MAX_SAMPLE_AMPLITUDES + 1,), "basis", 0)
        with pytest.raises(ValueError, match="amplitudes"):
            SamplerSpec((2**20, 2**20), "haar", 0)

    def test_seed_range(self):
        SamplerSpec((2,), "haar", 0)
        SamplerSpec((2,), "haar", 2**64 - 1)
        with pytest.raises(ValueError):
            SamplerSpec((2,), "haar", -1)
        with pytest.raises(ValueError):
            SamplerSpec((2,), "haar", 2**64)


class TestSampleState:
    def test_basis_kind(self):
        s = sample_state(SamplerSpec((2, 2), "basis", 12345))
        np.testing.assert_array_equal(s.amps, [1, 0, 0, 0])

    def test_haar_is_normalized(self):
        s = sample_state(SamplerSpec((3, 3), "haar", 9))
        assert abs(s.norm() - 1.0) <= 1e-12

    def test_same_seed_same_state(self):
        a = sample_state(SamplerSpec((2, 2, 2), "haar", 77))
        b = sample_state(SamplerSpec((2, 2, 2), "haar", 77))
        assert np.array_equal(a.amps, b.amps)

    def test_different_seeds_differ(self):
        a = sample_state(SamplerSpec((2, 2), "haar", 1))
        b = sample_state(SamplerSpec((2, 2), "haar", 2))
        assert not np.array_equal(a.amps, b.amps)

    def test_frozen_haar_draw(self):
        s = sample_state(SamplerSpec((2, 2), "haar", 7))
        np.testing.assert_array_equal(s.amps, GOLDEN_HAAR_2X2_SEED7)

    def test_frozen_product_draw(self):
        s = sample_state(SamplerSpec((2, 3), "product", 11))
        np.testing.assert_array_equal(s.amps, GOLDEN_PRODUCT_2X3_SEED11)

    @pytest.mark.parametrize("seed", range(15))
    def test_product_kind_has_zero_concurrence(self, seed):
        s = sample_state(SamplerSpec((2, 2), "product", seed))
        assert concurrence(s).value <= 1e-10

    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_product_kind_fully_separable(self, seed):
        s = sample_state(SamplerSpec((3, 2, 2), "product", seed))
        assert full_separability(s).verdict == "fully separable"

    def test_product_of_ones_dims(self):
        s = sample_state(SamplerSpec((1, 1), "product", 4))
        assert s.dims == (1, 1)
        assert abs(abs(s.amps[0]) - 1.0) <= 1e-12
