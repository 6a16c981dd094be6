"""The public names of the package: a new export is a deliberate edit here."""

import triemoments

PUBLIC = (
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
)


def test_all_is_pinned():
    assert tuple(triemoments.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(triemoments, name), name
    # the Poisson model is a test oracle (tests/poisson.py), not library API
    names = triemoments.__all__
    assert not [n for n in names if n.startswith("Poisson")]
    assert "GuardExceeded" not in names and "DepthGuardExceeded" in names
