#!/usr/bin/env python3
"""Eigenvalue decay |alpha_n| across aperture sizes.

Smaller apertures shrink the data set L(Theta) and push the operator spectrum
down faster, which is the ill-posedness the Picard series has to divide by.
Emits one CSV row per (theta, n, |alpha_n|, parity).
"""

import argparse
import itertools
import math

import numpy as np

from prolate.symset_basis import Geometry, build_quadrature, compute_symset_basis


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=5.0)
    ap.add_argument("--thetas", default="1.0,0.75,0.5,0.25",
                    help="aperture half-angles as fractions of pi")
    ap.add_argument("--resolution", type=int, default=128)
    ap.add_argument("--modes", type=int, default=120)
    ap.add_argument("-o", "--out", default="aperture_spectra.csv")
    args = ap.parse_args()

    with open(args.out, "w", encoding="utf-8") as f:
        f.write("theta_over_pi,n,abs_alpha,parity\n")
        for frac in (float(t) for t in args.thetas.split(",")):
            geo = Geometry.limited_aperture(frac * math.pi)
            quad = build_quadrature(geo, args.resolution, method="polar")
            n_modes = min(args.modes, len(quad) // 2 - 1)
            basis = compute_symset_basis(args.c, geo, quad, n_modes)
            mags = np.abs(basis.alphas)
            count = int(np.sum(mags > 1e-3 * mags[0]))
            print(f"theta = {frac:.2f} pi: |A| = {quad.total_weight:.4f}, "
                  f"{count} modes above 1e-3 |alpha_0|")
            parity = np.where(basis.modes["even"], "even", "odd")
            f.writelines(map("{!r},{},{!r},{}\n".format, itertools.repeat(frac),
                             range(len(mags)), mags.tolist(), parity.tolist()))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
