#!/usr/bin/env python3
"""Node-count census: how full does the residue tree actually get?

For each (m, n) cell, draws seeded random instances and reports each
method's mean time per run (normalize excluded), the largest bit length
of a volume's numerator or denominator in the cell, and the direct
method's observed worst per-level node count (residues, before like-term
merging) next to the (n+1)^k ceiling, with the worst number of those
residues that merging removed (``merged``, which also counts the
residues the exponent bound drops without building them at each level
but the closing one, and the closing level's residues with
alpha <= 0; the node counts include the dropped residues too).  The O(n^m)-flavored growth
is visible directly.

Two make-ups:

* ``signed`` (the default): ``random_instance(rng, m, n, signed=True)``
  from one ``random.Random(--seed)`` shared by the cells, small
  rationals, often degenerate; a draw that either method or the gates
  refuse is skipped and another one drawn.
* ``shuffled``: one row uniform in [1, 999], the other rows nonzero
  integers in [-999, 999] with random signs, the rows shuffled, and b
  uniform in [1, 999]; each cell draws from its own
  ``random.Random(f"shuffled:{m}:{n}")``, so a cell's draws do not depend
  on the other cells.  No draw is skipped: one that the gates or the
  degeneracy check refuse is counted in ``refused=K``.

Exits 1, printing the draw, if the two methods give different volumes
on it or either raises an internal engine error (DivergentSlice or
MalformedH).

    python scripts/node_census.py --m 2 3 4 --n 2 4 6 8 --trials 5
    python scripts/node_census.py --make-up shuffled --m 3 --n 64 --trials 3
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
ENGINE_FAULTS = (lv.DivergentSlice, lv.MalformedH)
ENTRY_MAX = 999


def shuffled_instance(rng, m, n):
    """An instance of the shuffled make-up (see the module docstring)."""
    A = [[rng.randint(1, ENTRY_MAX) for _ in range(n)]]
    for _ in range(m - 1):
        A.append([rng.choice((-1, 1)) * rng.randint(1, ENTRY_MAX) for _ in range(n)])
    rng.shuffle(A)
    return lv.make_instance(A, [rng.randint(1, ENTRY_MAX) for _ in range(m)])


def timed(fn, norm):
    t0 = time.perf_counter()
    run = fn(norm)
    return run, time.perf_counter() - t0


def census_cell(rng, m, n, trials, shuffled):
    worst = [0] * (m - 1)
    merged = [0] * (m - 1)
    elapsed = [0.0, 0.0]
    bits = done = refused = 0
    while done < trials:
        if shuffled:
            inst = shuffled_instance(rng, m, n)
        else:
            inst = lv.random_instance(rng, m, n, signed=True)
        try:
            norm = lv.normalize(inst)
            direct, t_direct = timed(lv.run_direct, norm)
            transform, t_transform = timed(lv.run_transform, norm)
        except ENGINE_FAULTS as exc:
            raise SystemExit(f"ENGINE ERROR on A={inst.rows} b={inst.rhs}: "
                             f"{type(exc).__name__}: {exc}")
        except lv.VolumeEngineError as exc:
            if shuffled or not isinstance(exc, SKIP):
                done += 1
                refused += 1
            continue
        done += 1
        if direct.result != transform.result:
            raise SystemExit(f"METHOD DISAGREEMENT on A={inst.rows} b={inst.rhs}: "
                             f"direct {direct.result}, transform {transform.result}")
        elapsed[0] += t_direct
        elapsed[1] += t_transform
        bits = max(bits, direct.result.numerator.bit_length(),
                   direct.result.denominator.bit_length())
        for k, lvl in enumerate(direct.levels):
            worst[k] = max(worst[k], lvl.residues)
            merged[k] = max(merged[k], lvl.residues - lvl.terms_out)
    runs = max(trials - refused, 1)
    return worst, merged, [t / runs for t in elapsed], bits, refused


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=_int_in_range(1), nargs="+", default=[2, 3, 4])
    ap.add_argument("--n", type=_int_in_range(1), nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--trials", type=_int_in_range(1), default=5)
    ap.add_argument("--seed", type=int, default=1, help="the signed make-up's seed")
    ap.add_argument("--make-up", choices=("signed", "shuffled"), default="signed")
    args = ap.parse_args()

    shuffled = args.make_up == "shuffled"
    rng = random.Random(args.seed)
    print(f"{'m':>2} {'n':>3}  {'direct':>11}  {'transform':>11}  {'bits':>9}  "
          "per-level worst / bound merged=K")
    for m in args.m:
        for n in args.n:
            cell_rng = random.Random(f"shuffled:{m}:{n}") if shuffled else rng
            worst, merged, (t_direct, t_transform), bits, refused = census_cell(
                cell_rng, m, n, args.trials, shuffled)
            cells = "  ".join(
                f"L{k+1}:{w}/{(n + 1) ** (k + 1)} merged={g}"
                for k, (w, g) in enumerate(zip(worst, merged))
            )
            tail = f"  refused={refused}" if refused else ""
            print(f"{m:>2} {n:>3}  {t_direct * 1000:8.1f} ms  {t_transform * 1000:8.1f} ms  "
                  f"{bits:>9}  {cells}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
