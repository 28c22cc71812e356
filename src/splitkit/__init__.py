"""splitkit: three-operator monotone splitting with executable certificates.

Solvers for the inclusion ``0 in (A + B + C)(x)`` where ``A`` and ``C`` are
maximally monotone with tractable resolvents and ``B`` is monotone and
Lipschitz but not necessarily cocoercive, plus a certificate engine that
checks the per-iteration inequalities and Lyapunov descent underlying their
convergence, and Euler simulators for the continuous-time flows the methods
discretize.
"""

from .certificates import (CertificateError, CertificateReport,
                           GroundTruthError, ReferencePoint, certify_trace,
                           descent_report, lemma_bforb_slack,
                           lemma_brfob_slack, omega_residual, phi_bforb,
                           phi_brfob, reference_point)
from .dynamics import (AlignmentError, FlowTrajectory, InnerSolveError,
                       discretization_gap, simulate_dr_flow, simulate_ppa)
from .operators import (AffineOperator, BilinearCoupling, BoxNormalCone,
                        CapabilityError, CustomOperator,
                        DimensionMismatchError, InvalidBoxError,
                        MonotoneOperator, NotMonotoneError, OperatorError,
                        ProblemTriple, ScaledL1, ZeroOperator, forward_eval,
                        resolvent)
from .problems import (AffineInstance, SaddleInstance, SingularProblemError,
                       load_instance, make_affine_instance,
                       make_saddle_instance, save_instance,
                       solve_affine_direct)
from .solvers import (Method, NOT_GUARANTEED, SolverConfig, SolverError,
                      Trace, max_stepsize, run)

__version__ = "0.1.0"
