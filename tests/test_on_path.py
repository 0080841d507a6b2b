"""Poles on an integration path, read as infinitesimal shifts.

A level counts a root on its path as left of it, which reads each
level's path as moved right by an infinitesimal, each later level's
shift infinitesimal against the one before (:mod:`lapvol.engine`).
The tests below rerun every on-path case on a contour moved so by small
nested shifts, where no root sits on a path, and require the same volume
and LevelStats; and they check the on-path runs of the 461-draw sweep
against :func:`facet_volume.facet_volume`, which shares no code with
the residue engine.  The direct cases were chosen in the sign order
(:func:`lapvol.direct.sign_order`), so they run in it.

The exponent bound keeps an exponent that is zero at the seed c, and
the moved contour can make it negative and prune it.  Where that
happens (ZERO_KEPT) the pruned runs differ in their counts but not in
their volume, and the unpruned reference driver, which the bound does
not touch, gives the same LevelStats on both contours.
"""
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol.direct import sign_order
from lapvol.transform import eliminated_var

from conftest import outcome
from facet_volume import facet_volume
from test_closing_level import (
    REPAIR_DRAWS,
    reference_direct,
    repair_draw,
    sign_run,
    sweep_instance,
)

RUNS = {"direct": sign_run, "transform": lv.run_transform}

# (seed, m, n) of the 461-draw sweep, n <= 5, whose run of the method
# (direct: in the sign order) meets a root on a path at the LP-found seed
SWEEP_ON_PATH = {
    "direct": [(10, 5, 2), (17, 3, 2), (1, 4, 3), (12, 4, 4), (13, 5, 5), (14, 5, 5),
               (16, 5, 5), (2, 5, 5), (22, 5, 5), (24, 3, 5), (9, 4, 5)],
    "transform": [(10, 5, 3), (20, 3, 4), (21, 4, 4), (24, 5, 5)],
}

# the direct cases whose run keeps an exponent that is zero at c and
# negative at the moved contour
ZERO_KEPT = [5013, (13, 5, 5)]

# (name, method, abscissae): the instances are built in the test
CASES = (
    [("paper-example", "direct", None), ("paper-example", "transform", (1, 1, 2))]
    + [(seed, "direct", abscissae) for seed, abscissae in REPAIR_DRAWS]
    + [(key, method, None) for method, keys in SWEEP_ON_PATH.items() for key in keys]
)


def instance(name):
    if name == "paper-example":
        return lv.paper_example()[0]
    if isinstance(name, int):
        return repair_draw(name)
    return sweep_instance(*name)


def moved_run(norm, method, abscissae, ledger):
    """The seed c moved as the ledger reads it, and the run on it: the
    abscissa of each ledger level's variable up by e_i, e_1 = 2^-32 and
    each e_(i+1) = 2^-32 * e_i, all halved until no root sits on a path.
    The transform moves c_j up and c_r down by e_i, so d = sum(c) stays."""
    c = list(norm.interior if abscissae is None else map(Fraction, abscissae))
    r = eliminated_var(norm.columns)
    scale = Fraction(1)
    for _ in range(64):
        moved, eps = list(c), scale
        for rec in ledger:
            eps /= 2 ** 32
            moved[rec.var - 1] += eps
            if method == "transform":
                moved[r - 1] -= eps
        run = RUNS[method](norm, moved)
        if not run.config.ledger:
            return moved, run
        scale /= 2
    raise AssertionError("every shift met a root on a path")


def unrepaired(levels):
    """The LevelStats as a run on a contour without on-path roots has them."""
    return tuple(s._replace(repaired=0) for s in levels)


@pytest.mark.parametrize("name,method,abscissae", CASES)
def test_the_moved_contour_gives_the_same_run(name, method, abscissae):
    norm = lv.normalize(instance(name))
    run = RUNS[method](norm, abscissae)
    assert run.config.ledger
    assert all(rec.on_path > 0 for rec in run.config.ledger)
    assert [rec.var for rec in run.config.ledger] == [
        s.var for s in run.levels if s.repaired]
    seed, moved = moved_run(norm, method, abscissae, run.config.ledger)
    assert (moved.result, moved.leaves) == (run.result, run.leaves)
    assert (moved.levels == unrepaired(run.levels)) == (name not in ZERO_KEPT)
    if method == "direct":
        order = sign_order(norm.columns)
        want = outcome(reference_direct, norm, abscissae, prune=False, order=order)
        got = outcome(reference_direct, norm, seed, prune=False, order=order)
        if isinstance(want[0], type):
            assert got == want  # a repeated pole below a pruned term
        else:
            assert want[0] == run.result and want[3] == run.config.ledger
            assert got[:3] == (want[0], unrepaired(want[1]), want[2]) and got[3] == ()


@pytest.mark.parametrize("method,key", [(method, key) for method, keys in SWEEP_ON_PATH.items()
                                        for key in keys])
def test_on_path_sweep_runs_give_the_facet_volume(method, key):
    inst = sweep_instance(*key)
    run = RUNS[method](lv.normalize(inst))
    assert run.config.ledger
    assert run.result == facet_volume(inst.rows, inst.rhs)
