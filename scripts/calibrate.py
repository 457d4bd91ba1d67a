#!/usr/bin/env python3
"""Recompute the frozen constants in hypcollar/calibration.py.

Prints observed ranges on the reference grids; update the constants file by
hand (with margin) if the numerics legitimately change.
"""

import math

import numpy as np

from hypcollar import collar_modulus as cm
from hypcollar.hypgeom import standard_half_collar_lambda


def main():
    print("# nonstandard half-collar, gamma = inf, l in [2, 20]")
    lo, hi, gms = [], [], []
    for l in np.linspace(2, 20, 10):
        b = cm.nonstandard_half_collar_lambda(cm.HalfCollarSpec(float(l), math.inf))
        e = math.exp(0.5 * l)
        lo.append(b.lower * e)
        hi.append(b.upper * e)
        gms.append(b.geometric_mean * e)
    print("lower * e^(l/2): [%.6g, %.6g]" % (min(lo), max(lo)))
    print("upper * e^(l/2): [%.6g, %.6g]" % (min(hi), max(hi)))
    print("gmean * e^(l/2): [%.6g, %.6g]" % (min(gms), max(gms)))

    print("# twist gain over standard collars")
    worst = 0.0
    for l in (8.0, 12.0, 16.0):
        for t in (0.0, 0.25, 0.5):
            res = cm.glued_collar_lambda(cm.GluedCollarSpec(l, math.inf, math.inf, t))
            gain = res.bounds.lower / (2.0 * standard_half_collar_lambda(l))
            worst = max(worst, l * math.exp(0.5 * abs(t) * l) / gain)
    print("TWIST_GAIN_K must exceed %.6g" % worst)

    print("# glued half-twist collar, l in [4, 16]")
    lo, hi = [], []
    for l in np.linspace(4, 16, 7):
        res = cm.glued_collar_lambda(cm.GluedCollarSpec(float(l), math.inf, math.inf, 0.5))
        e = math.exp(0.25 * l)
        lo.append(res.bounds.lower * e)
        hi.append(res.bounds.upper * e)
    print("lower * e^(l/4): [%.6g, %.6g]" % (min(lo), max(lo)))
    print("upper * e^(l/4): [%.6g, %.6g]" % (min(hi), max(hi)))


if __name__ == "__main__":
    main()
