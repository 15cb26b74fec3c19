"""Exact verification of the 1/4 lower bound on P(X > E X) for binomial X.

The bound holds whenever 1 > p >= ln(4/3)/n, with equality only at
n = 2, p = 1/2, and the constant ln(4/3) cannot be improved.  All tail
probabilities are exact rationals; every irrational constant lives in a
certified interval enclosure.
"""

from .enclosure import (
    DEFAULT_PRECISION_BITS,
    PRECISION_CAP,
    Enclosure,
    PreconditionError,
    UndecidedComparisonError,
    Verdict,
    b_enclosure,
    c_enclosure,
    compare_certified,
    decide_certified,
    exp_enclosure,
    ln_enclosure,
    sqrt_enclosure,
)
from .binom import (
    BinomialSpec,
    ExceedanceRecord,
    pmf,
    survival,
    tail_gt_mean,
)
from .bounds import (
    CurvePoint,
    OptimalityWitness,
    TheoremVerdict,
    check_proposition,
    check_theorem,
    figure_points,
    optimality_search,
    proposition_sweep,
    theorem_sweep,
)
from .proofs import (
    BerryEsseenEval,
    anderson_samuels_sweep,
    berry_esseen_epsilon,
    epsilon_star,
    main_proof_sweep,
    verify_appendix,
    verify_case1,
    verify_case2,
    verify_case3,
    verify_case4,
    verify_case5,
    verify_main_proof,
    verify_proposition_proof,
)
from . import cli
from .report import ProofReport, ProofStep

__version__ = "0.1.0"
