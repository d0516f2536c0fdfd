"""Concurrence of pure bipartite/tripartite states via sums of squared 2x2
minors of one-vs-rest matricizations, Schwarz-equality separability
certificates, product-state factorization, and an independent reduced-density
oracle for cross-validation."""

from .concurrence import (
    DEFAULT_NORMALIZATION,
    DEFAULT_TOLERANCE,
    ConcurrenceReport,
    FullSeparabilityResult,
    SeparabilityCertificate,
    concurrence,
    factorize_cut,
    full_separability,
    is_separable_cut,
)
from .errors import (
    ArityError,
    CertificateError,
    DegenerateStateError,
    InternalConsistencyError,
    NonFiniteError,
    QconcError,
    ShapeError,
    StateFormatError,
    WorkBudgetError,
)
from .oracle import DensityMatrix, numeric_rank, oracle_concurrence, purity, reduced_density
from .schwarz import matricize, max_abs_minor, minor_sum_sq, schwarz_gap
from .stateio import SAMPLER_KINDS, SamplerSpec, emit_state, parse_state, sample_state
from .states import Cut, PureState, amplitude, make_state, normalize, tensor

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "CertificateError",
    "ConcurrenceReport",
    "Cut",
    "DEFAULT_NORMALIZATION",
    "DEFAULT_TOLERANCE",
    "DegenerateStateError",
    "DensityMatrix",
    "FullSeparabilityResult",
    "InternalConsistencyError",
    "NonFiniteError",
    "PureState",
    "QconcError",
    "SAMPLER_KINDS",
    "SamplerSpec",
    "SeparabilityCertificate",
    "ShapeError",
    "StateFormatError",
    "WorkBudgetError",
    "amplitude",
    "concurrence",
    "emit_state",
    "factorize_cut",
    "full_separability",
    "is_separable_cut",
    "make_state",
    "matricize",
    "max_abs_minor",
    "minor_sum_sq",
    "normalize",
    "numeric_rank",
    "oracle_concurrence",
    "parse_state",
    "purity",
    "reduced_density",
    "sample_state",
    "schwarz_gap",
    "tensor",
]
