"""Jones polynomial evaluation at roots of unity t = e^(2 pi i / k).

Three routes to the same number, cross-checking each other:

- an exact symbolic oracle over the Temperley-Lieb diagram algebra with
  integer Laurent coefficients (tljones.tl),
- an exact numeric evaluator through the unitary path-model representation
  and its sector-weighted trace (tljones.pathmodel, tljones.evaluation),
- a simulated quantum sampler that estimates the same trace from
  Hadamard-test bits (tljones.sampling).
"""

from .braids import (
    BraidError,
    BraidParseError,
    BraidWord,
    closure_component_count,
    inverse,
    markov_conjugate,
    markov_stabilize,
    parse_braid_word,
    product,
    writhe,
)
from .checks import CheckReport, Tolerances, run_verification
from .evaluation import EvaluationResult, jones_value_exact, markov_trace_pathmodel, weighted_trace
from .laurent import ExactDivisionError, LaurentPoly, convert_to_t
from .pathmodel import (
    ModelParams,
    PathBasis,
    PathModelError,
    SectorOperator,
    adjacency_eigen_check,
    braid_gen_unitary,
    choose_a,
    enumerate_paths,
    global_gate,
)
from .sampling import (
    SamplerConfig,
    SamplerError,
    hadamard_circuit_check,
    iterations_for,
    sample_jones_value,
)
from .tl import (
    LOOP_WEIGHT,
    PlanarMatching,
    TLElement,
    TLError,
    jones_polynomial,
    jones_rep,
    markov_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BraidError",
    "BraidParseError",
    "BraidWord",
    "CheckReport",
    "EvaluationResult",
    "ExactDivisionError",
    "LOOP_WEIGHT",
    "LaurentPoly",
    "ModelParams",
    "PathBasis",
    "PathModelError",
    "PlanarMatching",
    "SamplerConfig",
    "SamplerError",
    "SectorOperator",
    "TLElement",
    "TLError",
    "Tolerances",
    "adjacency_eigen_check",
    "braid_gen_unitary",
    "choose_a",
    "closure_component_count",
    "convert_to_t",
    "enumerate_paths",
    "global_gate",
    "hadamard_circuit_check",
    "inverse",
    "iterations_for",
    "jones_polynomial",
    "jones_rep",
    "jones_value_exact",
    "markov_conjugate",
    "markov_stabilize",
    "markov_trace",
    "markov_trace_pathmodel",
    "parse_braid_word",
    "product",
    "run_verification",
    "sample_jones_value",
    "weighted_trace",
    "writhe",
]
