"""Exact normal forms and KMS states for product-system Toeplitz algebras.

The package splits into layers:

* :mod:`ntkms.semigroup` - the positive cones (nat-mult, nat-add), their
  lattice order, truncation windows and scaling maps with tail bounds;
* :mod:`ntkms.coeff` - coefficient engines (Toeplitz, Laurent, scalar),
  canonical finite combinations of monomials, and trace/moment data;
* :mod:`ntkms.product_system` - fibers with orthonormal bases, index
  maps, left actions, and the built-in example systems;
* :mod:`ntkms.nt` - the normal form i_s(xi) i_r(1_l)* with exact star
  products, adjoints, core expectation, range projections and dynamics;
* :mod:`ntkms.states` - KMS_beta and ground states from traces, via
  truncated series with explicit tail certificates;
* :mod:`ntkms.fock` - an independent compressed Fock-space oracle;
* :mod:`ntkms.verify` - the property checks and suite runner;
* :mod:`ntkms.dsl` - a small expression language with a canonical
  printer, used by the CLI.
"""

from .coeff import (
    CoefficientElement,
    LaurentEngine,
    SCALAR,
    ScalarEngine,
    TOEPLITZ,
    ToeplitzEngine,
    TraceSpec,
    haar_trace,
    identity_trace,
    mixture_trace,
    point_mass_trace,
)
from .dsl import DSLError, format_element, parse_element
from .fock import TruncatedFock
from .nt import (
    NTElement,
    TermBudgetExceeded,
    get_term_budget,
    term_budget,
    unit_projection,
)
from .product_system import (
    AffineToeplitzSystem,
    BUILTIN_SYSTEMS,
    CuntzSystem,
    ModuleVector,
    ProductSystem,
    TorusDilationSystem,
    get_system,
)
from .semigroup import (
    NAT_ADD,
    NAT_MULT,
    ScalingHomomorphism,
    Semigroup,
    TruncationSet,
    tail_bound,
)
from .states import (
    KMSContext,
    StateValue,
    euler_product,
    euler_truncation_gap,
    ground_state,
    zeta_series,
)
from .verify import (
    CheckReport,
    SUITE_NAMES,
    reconstruct_trace,
    run_suites,
)

__version__ = "0.1.0"

__all__ = [
    "AffineToeplitzSystem",
    "BUILTIN_SYSTEMS",
    "CheckReport",
    "CoefficientElement",
    "CuntzSystem",
    "DSLError",
    "KMSContext",
    "LaurentEngine",
    "ModuleVector",
    "NAT_ADD",
    "NAT_MULT",
    "NTElement",
    "ProductSystem",
    "SCALAR",
    "SUITE_NAMES",
    "ScalarEngine",
    "ScalingHomomorphism",
    "Semigroup",
    "StateValue",
    "TOEPLITZ",
    "TermBudgetExceeded",
    "ToeplitzEngine",
    "TorusDilationSystem",
    "TraceSpec",
    "TruncatedFock",
    "TruncationSet",
    "euler_product",
    "euler_truncation_gap",
    "format_element",
    "get_system",
    "get_term_budget",
    "ground_state",
    "haar_trace",
    "identity_trace",
    "mixture_trace",
    "parse_element",
    "point_mass_trace",
    "reconstruct_trace",
    "run_suites",
    "tail_bound",
    "term_budget",
    "unit_projection",
    "zeta_series",
    "__version__",
]
