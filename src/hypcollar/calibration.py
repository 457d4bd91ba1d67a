"""Frozen calibration constants for the collar bounds.

These are regression values: computed once with scripts/calibrate.py on a
reference grid and frozen here.  They are not ground truth — the asymptotic
statements only hold up to uniform constants — but pinning them catches
regressions in the numerics.  Regenerate with::

    python3 scripts/calibrate.py
"""

# Nonstandard half-collar with a degenerate opposite boundary, l in [2, 20]
# (10-point uniform grid): ranges of (bound * e^{l/2}) with ~30% margin.
HALF_COLLAR_EXP_BAND_LOWER = (0.009, 0.10)   # observed [0.0122, 0.0742]
HALF_COLLAR_EXP_BAND_UPPER = (0.48, 1.55)    # observed [0.6367, 1.1619]
HALF_COLLAR_GM_BAND = (0.065, 0.40)          # observed [0.0880, 0.2937]

# Very wide analytic envelope for the geometric-mean summary on the same
# sweep; a point summary escaping this indicates a real defect, not drift.
HALF_COLLAR_WIDE_BAND = (0.02, 50.0)

# Twist gain: (glued lower bound) / (2 * standard half-collar lambda)
# >= l * e^{|t| l / 2} / TWIST_GAIN_K for l in {8, 12, 16}, |t| in
# {0, 0.25, 0.5}.  Observed worst constant 544.3.
TWIST_GAIN_K = 700.0

# Glued half-twist collar (both opposite boundaries degenerate), l in [4, 16]
# (7-point grid): ranges of (bound * e^{l/4}) with margin.
GLUED_HALF_TWIST_BAND_LOWER = (0.0055, 0.017)  # observed [0.00735, 0.01292]
GLUED_HALF_TWIST_BAND_UPPER = (0.25, 0.90)     # observed [0.3275, 0.6939]
