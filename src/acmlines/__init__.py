"""ACM tests, generators, and Hilbert functions for unions of
coordinate lines in a product of three projective lines."""

from .criteria import (
    AcmVerdict,
    MultiplicityTensor,
    acm_decision,
    criterion_hyp4_numeric,
    criterion_hyp5_numeric,
    criterion_hyp6_numeric,
    has_hyp_star,
    is_acm,
    multiplicity_tensor,
)
from .errors import (
    AcmLinesError,
    BadN,
    BadParameter,
    BadPermutation,
    BoxTooSmallWarning,
    CriteriaDisagreement,
    DuplicateLine,
    EmptyPointSet,
    EmptyVariety,
    NotAcm,
    NotFerrers,
    OutOfBounds,
    SizeLimit,
    UnknownHyperplane,
    UnusedHyperplane,
    UnusedHyperplaneWarning,
)
from .experiment import ExperimentReport, HfCounterexample, run_hf_experiment
from .ferrers import (
    CompleteIntersection,
    DegreeSets,
    FerrersCheck,
    GeneratorSet,
    GridResolution,
    degree_sets,
    delta_hilbert,
    detect_complete_intersection,
    ferrers_companion,
    grid_resolution,
    hilbert_difference,
    hilbert_function,
    is_ferrers_variety,
    is_literal_ferrers,
    minimal_generators,
    points_generator_degrees,
    resembles_ferrers,
    row_partition,
)
from .graphs import (
    Graph,
    build_graph,
    complement,
    graph_to_dot,
    is_chordal,
    is_induced_cycle,
)
from .oracles import (
    SimplicialComplex,
    generator_degree_scan,
    hilbert_oracle,
    reisner_cm,
    stanley_reisner_complex,
)
from .sampling import (
    all_varieties,
    random_ferrers_variety,
    random_partition,
    random_variety,
)
from .variety import (
    EMPTY_VARIETY,
    HyperplaneId,
    VarietyOfLines,
    compact,
    direction_slice,
    grid_from_points,
    make_variety,
    permute_families,
    points_from_json,
    relabel,
    remove_hyperplane,
    render,
    validate,
    validation_errors,
    variety_from_json,
    variety_to_dict,
    variety_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
