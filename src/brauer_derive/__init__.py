"""Exact structure and derived-equivalence certificates for the nonstandard
domestic Brauer graph algebras attached to one-loop Brauer graphs."""

__version__ = "0.1.0"

from .algebra import (
    CartanMatrix,
    NotStabilized,
    Presentation,
    QuotientAlgebra,
    a_n_presentation,
    omega_relations,
    presentations_equal_on_basis,
    quotient_basis,
    socle_quotient,
)
from .graph import (
    BrauerGraph,
    DomainError,
    MalformedInput,
    ValidationError,
    edge_count,
    loop_star,
    parse_graph,
    serialize_graph,
    validate,
)
from .homological import (
    ChainMap,
    ChainMapFailure,
    NotAComplex,
    ProjComplex,
    check_complex,
    happel_cartan,
    homotopy_hom,
    is_null_homotopic,
    mapping_cone,
    minimize,
)
from .linalg import QQ, PrimeField
from .quiver import BrauerQuiver, build_quiver, cycle_at, quiver_to_dot
from .reduction import (
    ReductionStep,
    ReductionTrace,
    certify_trace,
    classify,
    load_trace,
    reduce_to_normal_form,
)
from .tilting import (
    CertificateFailure,
    EmptyTree,
    EnlargeData,
    NonUniqueHom,
    RelationFailure,
    TiltCertificate,
    TiltingComplex,
    check_tilting,
    end_cartan,
    enlarge_complex,
    enlarge_data,
    enlarge_graph_move,
    shrink_complex,
    verify_end_generators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
