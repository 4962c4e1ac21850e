"""enslat: disordered quantum ensembles as semi-infinite lattices.

Map an ensemble of disordered N-level systems onto a single lattice via the
orthogonal polynomials of the disorder measures, propagate the lattice
wavefunction exactly, and recover the disorder-averaged density matrix by a
partial trace over the lattice index; cross-validate against Monte Carlo,
Gauss-quadrature and closed-form oracles, or run the map in reverse
(constant-coupling lattice -> semicircle-disordered ensemble).
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySupport,
    EnslatError,
    InvalidOrder,
    LeakageExceeded,
    NormDefectExceeded,
    NotHermitian,
    NotNormalized,
    NumericalBreakdown,
    SystemTooLarge,
    TableTooShort,
    UnboundedSupport,
    UnsupportedFamily,
)
from .measures import (
    DisorderDistribution,
    RecurrenceTable,
    characteristic_function,
    gauss_rule,
    orthonormal_values,
    quantile,
    recurrence_analytic,
    recurrence_stieltjes,
    recurrence_table,
)
from .lattice import (
    EnsembleSpec,
    LatticeBasis,
    LatticeOperator,
    PolynomialCoupling,
    boundary_shell,
    build_general,
    table_orders,
)
from .states import (
    LatticeState,
    expanded_initial,
    localized_initial,
)
from .dynamics import (
    LeakageReport,
    PropagationPlan,
    auto_depth,
    propagate,
)
from .reduction import (
    DensityTrajectory,
    partial_trace,
    trajectory_from_states,
)
from .oracle import (
    OracleConfig,
    analytic_qubit,
    chain_to_ensemble,
    mc_average,
    quad_average,
)

__version__ = "0.3.0"
