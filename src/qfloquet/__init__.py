"""Floquet analysis for quaternion-valued linear differential equations.

Quaternion matrix algebra through the complex-adjoint embedding, fundamental
matrix integration, monodromy/multiplier/exponent computation, stability
classification for constant and periodic systems, and a quaternion-valued
Hill's equation analyzer.
"""

from .quaternion import (DivisionByZero, Quaternion, conj, inverse, norm,
                         qexp, similar, standardize)
from .qmatrix import (LogFailure, NonSquare, NotAnEigenvalue, OmegaViolation,
                      PairingFailure, QMatrix, RecoveryFailure, Singular,
                      SpectrumEntry, StandardSpectrum, adjoint, allclose,
                      expm, from_adjoint, frobenius_sq, inv, logm,
                      omega_residual, qdet, quaternion_schur,
                      right_eigenvector, spectral_map_check,
                      standard_eigenvalues, sum_norm)
from .expressions import (DomainError, EvalError, ExprSyntaxError, MatrixSpec,
                          UnknownIdentifier, compile_expr, evaluate, parse,
                          render)
from .integrate import (IntegratorConfig, NonFiniteState, QuadratureFailure,
                        StepBudgetExceeded, StepCounts, StepUnderflow,
                        Trajectory, integrate, integrate_batch,
                        liouville_residual, trace_integral)
from .floquet import (Evidence, FloquetData, NotPeriodic, PeriodicWitness,
                      PeriodicityViolation, Stability, StabilityVerdict,
                      ZeroMultiplier, characteristic_exponents,
                      characteristic_multipliers, classify_constant,
                      classify_multipliers, classify_periodic,
                      exponent_sum_residual, monodromy,
                      multiplier_product_check, normal_form,
                      periodic_solutions)
from .hill import (HillProblem, HillReport, NotRealCoefficient, analyze,
                   analyze_batch, analyze_chart, classify_real, companion,
                   k_matrix_diagnostics)

__version__ = "0.1.0"
