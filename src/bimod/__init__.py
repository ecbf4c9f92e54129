"""Numerical toolkit for finite-dimensional Hilbert C*-bimodules: index
elements, conjugate equations, basic construction, and the concrete families
(weighted Hilbert spaces, conditional expectations, weighted graphs)."""

from .multimatrix import (
    AlgebraElement,
    ContractError,
    MultiMatrixAlgebra,
    StructureError,
    ToolkitError,
    center_decompose,
    decompose_star_algebra,
    functional_calculus,
    inverse_on_support,
    operator_norm,
    support_projection,
)
from .bimodule import (
    FrameSet,
    HilbertBimodule,
    ModuleOperator,
    ValidationReport,
    amplify,
    contragredient,
    frame_operator,
    generalized_basis_step,
    identity_bimodule,
    left_tight_frame,
    rank_one_sum_norm,
    tensor,
    tensor_lift,
    tensor_push,
    tight_frame,
    validate,
)
from .index import (
    BasicConstruction,
    BestConstants,
    CPMap,
    IndexReport,
    basic_construction,
    best_constants,
    extend_left_inner,
    fiber_decomposition,
    index_element,
    invertibility_trichotomy,
    module_operator_algebra,
    relative_commutant,
    right_index,
)
from .conjugation import (
    ConjugateSolution,
    build_conjugate,
    conjugate_pair_identities,
    cp_characterization,
    inner_from_conjugate,
    min_dimension,
    morita_check,
    rescale_left,
    tensor_conjugate,
    verify_conjugate,
)
from .constructors import (
    ExpectationSpec,
    GraphSpec,
    Inclusion,
    column_bimodule,
    expectation_cp_gap,
    from_expectation,
    from_hilbert_space,
    from_weight_graph,
    minimal_cp_multiplier,
    quasi_basis,
    trace_weighted_expectation,
)

__version__ = "0.1.0"
