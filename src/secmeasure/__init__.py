"""Secondary measures, reducers, and equi-normal density families.

Numerical construction of the secondary (companion) measure of a
probability density on a compact interval, its reducer, the one-parameter
equi-normal family rho_t, the associated isometry V and its inverse, and a
closed-form solver for the induced integral equation.
"""

from .errors import (DegenerateMeasure, DenominatorZero, DomainError,
                     EvaluationFailure, ExprSyntaxError,
                     ExtrapolationDivergence, InstabilityDetected,
                     InvalidDensity, InvalidParameter, NonConvergence,
                     PointOnInterval, SecmeasureError, UnknownDensity,
                     UnknownFunction)
from .expressions import Expr, parse
from .family import (FamilyDensity, denominator_root_scan, dirac_limit_check,
                     equi_normality_check, family, family_density,
                     family_transform, moment0_curve, validate_parameter)
from .measures import (CATALOG_NAMES, BaseDensity, Density, MomentSequence,
                       catalog, inner_product, mean_project, moment, moments,
                       user_density)
from .operators import (IntegralEquationProblem, apply_V, apply_V_inverse,
                        barycentric_check, composition_check, isometry_check,
                        make_context, residual_check, solve_integral_equation,
                        transform_relation_check, transformed_polys)
from .orthopoly import (PolynomialSequence, RecurrenceCoefficients, apply_T,
                        orthonormal_polys, recurrence_coefficients,
                        secondary_polys)
from .quadrature import DEFAULT_SPEC, IntegrationSpec, Interval, tanh_sinh
from .report import (OutputTable, VerificationReport, numeric_report,
                     property_report)
from .stieltjes import (SecondaryMeasure, lerch_phi_half, perron_invert,
                        reducer, secondary_measure, secondary_transform,
                        stieltjes_transform)
from .verify import SUITES, run_suite

__version__ = "1.0.0"
