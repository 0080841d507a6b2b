#!/usr/bin/env python3
"""Node-count census: how full does the residue tree actually get?

For each (m, n) cell, draws seeded random instances and reports the
observed worst per-level node count (residues, before like-term
merging) next to the (n+1)^k ceiling, the worst number of those
residues that merging removed, and the time per volume.  The
O(n^m)-flavored growth is visible directly.

    python scripts/node_census.py --m 2 3 4 --n 2 4 6 8 --trials 5
"""
import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lapvol as lv

SKIP = (lv.NotCompact, lv.NotPointed, lv.DegenerateInstance)


def census_cell(rng, m, n, trials):
    worst = [0] * (m - 1)
    merged = [0] * (m - 1)
    elapsed = 0.0
    done = 0
    while done < trials:
        inst = lv.random_instance(rng, m, n, signed=True)
        try:
            t0 = time.perf_counter()
            norm = lv.normalize(inst)
            run = lv.run_direct(norm)
            elapsed += time.perf_counter() - t0
        except SKIP:
            continue
        for k, lvl in enumerate(run.levels):
            worst[k] = max(worst[k], lvl.residues)
            merged[k] = max(merged[k], lvl.residues - lvl.terms_out)
        done += 1
    return worst, merged, elapsed / trials


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--n", type=int, nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    print(f"{'m':>2} {'n':>3}  {'avg time':>11}  per-level worst / bound merged=K")
    for m in args.m:
        for n in args.n:
            worst, merged, avg = census_cell(rng, m, n, args.trials)
            cells = "  ".join(
                f"L{k+1}:{w}/{(n + 1) ** (k + 1)} merged={g}"
                for k, (w, g) in enumerate(zip(worst, merged))
            )
            print(f"{m:>2} {n:>3}  {avg * 1000:8.1f} ms  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
