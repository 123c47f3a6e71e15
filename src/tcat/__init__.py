"""tcat: numerics for skeletal premodular categories.

Finite skeletal category data (fusion rules, F/R-symbols, pivotal
coefficients) drives a graphical-calculus engine; on top of it sit the
S-matrix and Muger-center diagnostics, a tube-algebra construction of the
Drinfeld center, the tautological functor from the square of the category
into the center, and an explicit inverse functor with the four witnessing
natural transformations, together with numeric certificates of where the
pair fails to be mutually inverse on degenerate inputs.
"""

from .category import (CategoryData, PivotalCoeffs, Scalar, SimpleLabel,
                       ToleranceCfg, ValidationReport, global_dim,
                       load_category, loads_category, serialize_category,
                       validate)
from .catalog import catalog, catalog_names
from .engine import (CasimirPair, Morphism, ObjectExpr, braiding, compose,
                     cup_cap, hom_basis, identity, identity_resolution,
                     omega_loop, quantum_dim, quantum_trace, tensor)
from .modularity import (ModularityVerdict, MugerReport, SMatrix, is_modular,
                         muger_center, s_matrix)
from .deligne import DeligneMorphism, DelignePair, pair_morphism, pair_object
from .center import (CenterObject, CouplingIdempotent, FactorizationReport,
                     HalfBraiding, TubeAlgebra, center_simples, coupling_gamma,
                     functor_F, functor_G, invertibility_report,
                     nat_transforms, tube_algebra, verify_center_object)
from .errors import (CompositionError, DecompositionError, IdempotencyError,
                     InvalidCategoryError, SchemaError, ShapeError, TcatError,
                     UnknownCategoryError)

__version__ = "0.1.0"

__all__ = [
    "CategoryData", "PivotalCoeffs", "Scalar", "SimpleLabel", "ToleranceCfg",
    "ValidationReport", "global_dim", "load_category", "loads_category",
    "quantum_dim", "serialize_category", "validate",
    "catalog", "catalog_names",
    "CasimirPair", "Morphism", "ObjectExpr", "braiding", "compose",
    "cup_cap", "hom_basis", "identity", "identity_resolution", "omega_loop",
    "quantum_trace", "tensor",
    "ModularityVerdict", "MugerReport", "SMatrix", "is_modular",
    "muger_center", "s_matrix",
    "DeligneMorphism", "DelignePair", "pair_morphism", "pair_object",
    "CenterObject", "CouplingIdempotent", "FactorizationReport",
    "HalfBraiding", "TubeAlgebra", "center_simples", "coupling_gamma",
    "functor_F", "functor_G", "invertibility_report", "nat_transforms",
    "tube_algebra", "verify_center_object",
    "CompositionError", "DecompositionError", "IdempotencyError",
    "InvalidCategoryError", "SchemaError", "ShapeError", "TcatError",
    "UnknownCategoryError",
    "__version__",
]
