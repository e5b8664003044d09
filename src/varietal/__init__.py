"""Finite presheaf algebra workbench.

Presentations of parametrized operations over a finite presheaf base,
depth-bounded free algebras with saturation certificates, sum and tensor of
presentations, relative monads (clones), pretheories with compilation to
presentations, and the satisfaction Galois connection at an explicit finite
scale.
"""

from .base import (
    IndexCategory,
    Presheaf,
    PresheafMorphism,
    StructureError,
    coproduct,
    copower,
    empty,
    finite_set,
    hom_set,
    jointly_surjective,
    parallel_pair_index,
    product,
    terminal,
    trivial_index,
)
from .syntax import (
    Assignment,
    Equation,
    FreeFormSignature,
    OperationSymbol,
    ParamTerm,
    Term,
    TraditionalSignature,
    act,
    app,
    enumerate_terms,
    from_traditional,
    precompose,
    standardize,
    substitute,
    var,
    var_assignment,
)
from .algebra import (
    Algebra,
    ResourceCeiling,
    enumerate_algebras,
    evaluate,
    interpretation_table,
    is_homomorphism,
    satisfies,
)
from .presentation import (
    FreeAlgebra,
    Presentation,
    QuotientEquation,
    TwoStagePresentation,
    free_algebra,
    kronecker_equation,
    palg_satisfies,
    quotient_map_equal,
    sum_presentations,
    tensor,
)
from .clones import (
    HAlgebraStructure,
    RelativeMonad,
    check_h_algebra,
    check_relative_monad,
    clone_of_presentation,
    standardized_presentation,
)
from .pretheory import (
    ConcreteModel,
    Pretheory,
    check_concrete_model,
    check_pretheory,
    kleisli_models,
    kleisli_pretheory,
    presentation_of_pretheory,
)
from .birkhoff import (
    BirkhoffWindow,
    GaloisScale,
    restrict_to_generators,
)

__version__ = "0.1.0"
