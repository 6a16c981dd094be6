"""Joint moments of random binary tries: exact, asymptotic, Monte-Carlo.

Size S_n (internal nodes), external path length K_n and internal path
length N_n of a trie over n independent Bernoulli(p) bit strings are
strongly but differently correlated: rho(S_n, N_n) -> 1 for every p, while
rho(S_n, K_n) -> 0 for p != 1/2 and oscillates periodically around
0.9272416035... when p = 1/2.  This package computes the moments exactly
(dynamic program over the split recurrences), asymptotically (gamma-series
Fourier coefficients of the periodic fluctuations) and by simulation, and
verifies the bivariate normal limit by whitening with 2x2 matrix inverse
square roots.
"""

from .asym import (FourierCoeffs, IRRATIONAL, ModelParams, RatioSpec,
                   SymMatrix2, F_of_n, F_profile, cov_coeffs, detect_ratio,
                   fluct_eval, g1_sym, g2_general, g2_sym, g3_sym, invsqrt2,
                   params, sigma_matrix, sqrt2, sym_coeffs)
from .errors import (DegenerateVariance, DepthGuardExceeded, KeyExhausted,
                     NotPositiveDefinite, PoleError, RatioSpecMismatch,
                     TrieMomentsError, TruncationNotConverged,
                     WorkBudgetExceeded)
from .exact import MomentTable, compute
from .gammafn import cdigamma, cgamma
from .mc import joint_histogram, run, whiten
from .trie import key_shapes, sample_keys, sample_shapes, trial_rng

__version__ = "0.1.0"

__all__ = [
    "FourierCoeffs", "IRRATIONAL", "ModelParams", "RatioSpec", "SymMatrix2",
    "F_of_n", "F_profile", "cov_coeffs", "detect_ratio", "fluct_eval",
    "g1_sym", "g2_general", "g2_sym", "g3_sym", "invsqrt2", "params",
    "sigma_matrix", "sqrt2", "sym_coeffs",
    "DegenerateVariance", "DepthGuardExceeded", "KeyExhausted",
    "NotPositiveDefinite", "PoleError", "RatioSpecMismatch",
    "TrieMomentsError", "TruncationNotConverged", "WorkBudgetExceeded",
    "MomentTable", "compute",
    "cdigamma", "cgamma",
    "joint_histogram", "run", "whiten",
    "key_shapes", "sample_keys", "sample_shapes", "trial_rng",
    "__version__",
]
