"""Every comparison threshold of the package, one named constant per concept.

The other modules read their thresholds from this table and write none of
their own (tests/test_imports.py keeps float literals below 1e-2 out of
them). Two sites share a name only when they decide the same question.
"Relative" thresholds are scaled by the norm of the quantity compared.
"""

from __future__ import annotations

# -- dense states (graphstate) --------------------------------------------

# Largest register build_state and attach_vertex allocate: 2^20 amplitudes.
DEFAULT_QUBIT_CAP = 20
# |chi| below this, after wrapping into (-pi, pi], is a zero weight: no edge.
ZERO_WEIGHT = 1e-12
# A branch with probability below this is impossible and gets no state.
ZERO_PROB_CUTOFF = 1e-14
# Largest | |psi| - 1 | of a PureState, and | |A|^2 + |B|^2 - 1 | of the bra
# pair_weight_from_projection takes.
STATE_NORM_TOL = 1e-10
# Largest entry of U U+ - I for an apply_local gate, and | |a|^2 + |b|^2 - 1 |
# for a project_qubit ket.
NORM_TOL = 1e-12

# -- photonic layer (fock) -------------------------------------------------

# Largest entry of U U+ - I for a ModeUnitary, and of S S+ - I/2 for a (1/sqrt2)-unitary seed.
UNITARY_TOL = 1e-10
# Largest |<f1|f2>| the closed form (enumerate_table) accepts: its premise is
# orthogonal left branch states, which the Fock oracle does not need.
ORTHOGONAL_TOL = 1e-10

# -- closed forms against their oracles ------------------------------------

# A closed form and its independent oracle (or the numerics it predicts) agree
# within this: analysis and protocols abort past it, a verify check fails.
ABORT_TOL = 1e-10
# Largest |sum p - 1| of a distribution sample_outcomes draws from, and largest negative p.
PROB_SUM_TOL = 1e-10

# -- projection analysis (analysis) ----------------------------------------

# |z| >= 1 - GRAM_TOL is a degenerate Gram overlap: the branch states are parallel.
GRAM_TOL = 1e-12
# A squared norm below this vanishes: an outcome or a projection with no weight.
VANISHING_NORM_SQ = 1e-28
# Relative |term| below which an argument in resulting_weight's formula is undefined.
DEGENERATE_ARG_TOL = 1e-12
# Relative magnitude spread of the direct T_ef unitarity test; the argument
# form is tested at its square root, and only spreads between the two may split them.
TEF_TOL = 1e-10
# Relative |x||y| below which one side of the T_ef argument form has no phase.
TEF_ZERO_PRODUCT = 1e-14
# Angle past which the T_ef argument form has removed a pi shift.
PI_SHIFT_TOL = 1e-6
# Relative residual of the fused and maximally-entangled class conditions.
CLASS_TOL = 1e-9
# Relative N^2 below which classify_projection skips the maximally-entangled test.
CLASS_NORM_FLOOR = 1e-20
# Relative |AD - BC| below which a projection is a product.
PRODUCT_TOL = 1e-12
# Eigenvalues at or below this add nothing to the entropy (0 log 0 = 0).
ENTROPY_FLOOR = 1e-300
# Angle residual of an inverted formula: the xi root and the GHZ |A| inversion.
INVERSION_TOL = 1e-9
# Largest |Re(A B* (1 + e^{i chi1})(1 + e^{i chi2}))| at which both GHZ
# outcomes give one pair weight.
EQUAL_OUTCOMES_TOL = 1e-10
# Largest relevant |det M| that the no-good-failure theorem counts as zero.
NO_GOOD_DET_TOL = 1e-12
# Largest cross product of two same-detector directions that counts as shared.
NO_GOOD_PREMISE_TOL = 1e-10
# Pattern weight above which a check tests the pattern: the no-good premise,
# the Bell-retention premise and the balanced-entropy det rho.
LIVE_TOL = 1e-12
# Default residual tolerance of the appendix grid scans.
SCAN_TOL = 1e-6
# Distance from a known solution manifold within which a scan hit lies on it.
SCAN_SNAP = 1e-3

# -- protocols ------------------------------------------------------------

# Two edge weights (or a weight and pi) are equal: the X-like eligibility cases.
WEIGHT_TOL = 1e-9
# Largest amplitude where a logical pair's two bits differ.
PAIR_SUPPORT_TOL = 1e-12
# Second singular value below which a state is a product across a cut.
SCHMIDT_TOL = 1e-10
# Schmidt spectra and rotated amplitudes agree: two 2-qubit states are local-unitary equivalent.
LU_MATCH_TOL = 1e-9
# (1 - cos chi1)(1 - cos chi2) below which the GHZ pair weight can only be 0.
ZERO_RANGE = 1e-14
# Round-off allowed above a closed-form bound of 1/4.
BOUND_SLACK = 1e-12

# -- verification suite (verify) ------------------------------------------

# Probability above which the oracle check compares a pattern's det rho.
DET_LIVE_PROB = 1e-10
# Bell retention: the premise M M+ proportional to I, and p_ij independent of z.
RETENTION_TOL = 1e-12
# End-to-end 1 - fidelity of the xi-family projection against its target pair.
HYPERBOLA_FIDELITY_TOL = 1e-8
