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
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StateFormatError
from .states import PureState, make_state, normalize, tensor

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
    raise ValueError(f"non-finite number {token!r} is not allowed in a state file")


@dataclass(frozen=True, eq=False)
class StateFile:
    """In-memory form of a state document: dims, amplitudes, optional label."""

    dims: tuple[int, ...]
    amps: np.ndarray
    label: str | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StateFormatError("dims must be a nonempty list of positive integers")
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != math.prod(dims):
            raise ShapeError(
                f"amplitude count {amps.size} does not match prod(dims) = {math.prod(dims)}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_text(cls, text: str) -> "StateFile":
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
        amps_raw = doc.get("amps")
        if not isinstance(amps_raw, list):
            raise StateFormatError('"amps" must be an array of [re, im] pairs')
        amps = np.empty(len(amps_raw), dtype=np.complex128)
        for i, pair in enumerate(amps_raw):
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise StateFormatError(f"amps[{i}] must be a [re, im] pair of numbers")
            try:
                finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
            except OverflowError:
                raise StateFormatError(
                    f"amps[{i}] contains an integer too large for a double"
                ) from None
            if not finite:
                raise ValueError(f"amps[{i}] contains a non-finite number")
            amps[i] = complex(pair[0], pair[1])
        label = doc.get("label")
        if label is not None and not isinstance(label, str):
            raise StateFormatError('"label" must be a string')
        if len(amps_raw) != math.prod(dims):
            raise ShapeError(
                f"amps has {len(amps_raw)} entries but prod(dims) = {math.prod(dims)}"
            )
        return cls(dims=tuple(dims), amps=amps, label=label)

    def to_text(self) -> str:
        dims_part = "[" + ", ".join(str(d) for d in self.dims) + "]"
        amps_part = "[" + ", ".join(
            f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]" for z in self.amps
        ) + "]"
        parts = [f'"dims": {dims_part}', f'"amps": {amps_part}']
        if self.label is not None:
            parts.append(f'"label": {json.dumps(self.label)}')
        return "{" + ", ".join(parts) + "}\n"

    @classmethod
    def from_state(cls, state: PureState, label: str | None = None) -> "StateFile":
        return cls(dims=state.dims, amps=state.amps, label=label)

    def to_state(self) -> PureState:
        return make_state(self.dims, self.amps)


def parse_state(text: str) -> PureState:
    """Parse a state document; amplitudes are taken as-is, not normalized."""
    return StateFile.from_text(text).to_state()


def emit_state(state: PureState, label: str | None = None) -> str:
    """Canonical serialization; parse_state(emit_state(s)) is bit-exact."""
    return StateFile.from_state(state, label=label).to_text()


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: dims, kind ("haar" | "product" | "basis"), and seed."""

    dims: tuple[int, ...]
    kind: str
    seed: int

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive integers, got {self.dims}")
        if math.prod(dims) > MAX_SAMPLE_AMPLITUDES:
            raise ValueError(
                f"dims {dims} give {math.prod(dims)} amplitudes; "
                f"the samplers draw at most {MAX_SAMPLE_AMPLITUDES}"
            )
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "seed", int(self.seed))


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
