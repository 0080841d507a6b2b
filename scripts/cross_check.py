#!/usr/bin/env python3
"""Random cross-validation sweep: direct vs transform vs Monte Carlo.

Draws seeded random instances, skips invalid/degenerate ones, checks
the two symbolic results are identical Fractions (exit 1 with the
instance on stderr if not), and (optionally) checks a Monte Carlo
estimate against them.  Each line gives the volume, ``leaves=``, the
number of powers K * e^(alpha*x) / x^(n+1) with alpha > 0 that the
direct method's closing level keeps for the closed form, and
``perturbations=``, the number of the direct run's levels whose path met
a pole (each such pole counts as left of its path).

    python scripts/cross_check.py --count 50 --m 2 3 4 --n-max 8 --mc-samples 200000
"""
import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lapvol as lv
from lapvol.cli import _int_in_range

SKIP = (lv.NotCompact, lv.NotPointed, lv.DegenerateInstance)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=_int_in_range(1), default=50,
                    help="valid instances to collect")
    ap.add_argument("--m", type=_int_in_range(1), nargs="+", default=[2, 3, 4])
    ap.add_argument("--n-max", type=_int_in_range(2), default=8,
                    help="largest n drawn; n is drawn from 2..N-MAX")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--signed", action=argparse.BooleanOptionalAction, default=True,
                    help="draw mixed-sign instances (--no-signed: nonnegative ones)")
    ap.add_argument("--mc-samples", type=_int_in_range(0), default=0,
                    help="if > 0, also Monte-Carlo check each instance")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    done = skipped = mc_bad = 0
    t0 = time.perf_counter()
    while done < args.count:
        m = rng.choice(args.m)
        n = rng.randint(2, args.n_max)
        inst = lv.random_instance(rng, m, n, signed=args.signed)
        try:
            norm = lv.normalize(inst)
            dr = lv.run_direct(norm)
            tr = lv.run_transform(norm)
        except SKIP as exc:
            skipped += 1
            continue
        if dr.result != tr.result:
            A = [[str(a) for a in row] for row in inst.rows]
            b = [str(x) for x in inst.rhs]
            print(f"METHOD DISAGREEMENT on A={A} b={b}: direct {dr.result}, "
                  f"transform {tr.result}", file=sys.stderr)
            return 1
        leaves = dr.leaves
        line = (f"m={m} n={n:2d} vol={str(dr.result):>20s} leaves={leaves:4d} "
                f"perturbations={len(dr.config.ledger)}")
        if args.mc_samples > 0:
            est = lv.mc_volume(inst, args.mc_samples, seed=rng.randint(0, 2**31))
            dev = abs(est.estimate - float(dr.result))
            if est.estimate == 0.0 and dr.result > 0:
                flag = "0 hits (box too coarse at this sample count)"
            elif dev <= 3 * est.stderr:
                flag = "ok"
            else:
                flag = "OUTSIDE 3 SIGMA"
                mc_bad += 1
            line += f" mc={est.estimate:.5f}+-{est.stderr:.5f} {flag}"
        print(line)
        done += 1
    dt = time.perf_counter() - t0
    print(f"\n{done} instances agreed exactly, {skipped} draws skipped, {dt:.1f}s")
    if args.mc_samples > 0:
        print(f"Monte Carlo outside 3 sigma: {mc_bad}/{done} "
              "(a few are expected by chance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
