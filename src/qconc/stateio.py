"""State file format and seeded random-state generators.

A state file is a UTF-8 JSON object with keys, in canonical order:

    {"dims": [2, 2], "amps": [[0.5, 0.0], ...], "label": "optional"}

"amps" holds [re, im] pairs in row-major order over the multi-index.  The
writer emits floats with 17 significant digits, which round-trip doubles
bit-exactly, so parse(emit(state)) reproduces the amplitudes exactly.

Sampler contract (stable across releases; golden files in the test corpus
pin it): a numpy default_rng (PCG64) is seeded with the spec seed.
"haar" draws all real parts, then all imaginary parts, of an i.i.d. standard
complex Gaussian vector and normalizes it, giving the uniform distribution
on the unit sphere.  "product" does the same per subsystem in ascending
order and tensors the factors.  "basis" is the deterministic |1, 1, ..., 1>.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, StateFormatError
from .states import PureState, check_dims, make_state, normalize, tensor

SAMPLER_KINDS = ("haar", "product", "basis")

# Largest amplitude count a sampler draws: 16 MiB of complex amplitudes,
# about 45 MiB as a state file.  SamplerSpec refuses more before anything
# is allocated.
MAX_SAMPLE_AMPLITUDES = 1 << 20


def _fmt_float(x: float) -> str:
    # 17 significant digits; force a decimal point so json round-trips the
    # value (and the sign of -0.0) as a float.
    s = format(float(x), ".17g")
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def _reject_constant(token: str):
    raise NonFiniteError(f"non-finite number {token!r} is not allowed in a state file")


def parse_state(text: str) -> PureState:
    """Parse a state document; amplitudes are taken as-is, not normalized.

    Only what the JSON alone shows is checked here; make_state validates
    the state itself (ShapeError, NonFiniteError, DegenerateStateError).
    The label is checked but not returned.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise StateFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise StateFormatError("JSON arrays or objects are nested too deeply") from None
    if not isinstance(doc, dict):
        raise StateFormatError("top-level value must be a JSON object")
    dims = doc.get("dims")
    if not (
        isinstance(dims, list)
        and dims
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise StateFormatError('"dims" must be a nonempty array of positive integers')
    amps = doc.get("amps")
    if not isinstance(amps, list):
        raise StateFormatError('"amps" must be an array of [re, im] pairs')
    parts = np.empty((len(amps), 2))
    for i, pair in enumerate(amps):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateFormatError(f"amps[{i}] must be a [re, im] pair of numbers")
        try:
            parts[i] = pair
        except OverflowError:
            raise StateFormatError(f"amps[{i}] contains an integer too large for a double") from None
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFormatError('"label" must be a string')
    return make_state(dims, parts.view(np.complex128))


def emit_state(state: PureState, label: str | None = None) -> str:
    """Canonical serialization; parse_state(emit_state(s)) is bit-exact.

    A label that is neither a string nor None is a TypeError, as
    parse_state would refuse the document.
    """
    if label is not None and not isinstance(label, str):
        raise TypeError(f"label must be a string or None, got {type(label).__name__}")
    dims_part = "[" + ", ".join(str(d) for d in state.dims) + "]"
    amps_part = "[" + ", ".join(
        f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]" for z in state.amps
    ) + "]"
    parts = [f'"dims": {dims_part}', f'"amps": {amps_part}']
    if label is not None:
        parts.append(f'"label": {json.dumps(label)}')
    return "{" + ", ".join(parts) + "}\n"


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: dims, kind ("haar" | "product" | "basis"), and seed."""

    dims: tuple[int, ...]
    kind: str
    seed: int

    def __post_init__(self) -> None:
        dims = check_dims(self.dims)
        if math.prod(dims) > MAX_SAMPLE_AMPLITUDES:
            raise ValueError(
                f"dims {dims} give {math.prod(dims)} amplitudes; "
                f"the samplers draw at most {MAX_SAMPLE_AMPLITUDES}"
            )
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "seed", seed)


def _haar_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    vec = re + 1j * im
    return vec / np.linalg.norm(vec)


def sample_state(spec: SamplerSpec) -> PureState:
    """Draw the state determined by the spec; same spec, same state, always."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "basis":
        amps = np.zeros(math.prod(spec.dims), dtype=np.complex128)
        amps[0] = 1.0
        return make_state(spec.dims, amps)
    if spec.kind == "haar":
        return normalize(make_state(spec.dims, _haar_vector(rng, math.prod(spec.dims))))
    # product: independent Haar factors, ascending subsystem order
    factors = [make_state((n,), _haar_vector(rng, n)) for n in spec.dims]
    return normalize(tensor(*factors))
