"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All symbolic comparisons are exact Fraction
equality; the Monte Carlo and quadrature criteria carry the stated
statistical / numerical tolerances.
"""
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lapvol as lv
from lapvol import cli
from lapvol.direct import run_direct
from lapvol.terms import ContourConfig
from lapvol.transform import run_transform

from conftest import SKIPPABLE, frac_vec
from dense import Term, final_level_value, initial_term, integrate_level
from linform import LinForm
from test_residue import _random_simple_pole_case, _residue_value, numeric_vertical_line

F = Fraction


def report(num, ok, desc):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def worked():
    inst, vol = lv.paper_example()
    return lv.normalize(inst), vol


def test_criterion_01_direct_worked_example(worked):
    norm, vol = worked
    t0 = time.perf_counter()
    run = run_direct(norm, abscissae=(3, 2, 1))
    config = ContourConfig({1: F(3), 2: F(2), 3: F(1)})
    branches, config, _ = integrate_level([initial_term(norm)], 1, config)
    partials = []
    for branch in branches:
        out, _, _ = integrate_level([branch], 2, config)
        partials.append(sum((final_level_value(t, 3) for t in out), F(0)))
    elapsed = time.perf_counter() - t0
    ok = (
        run.result == F(17, 48)
        and partials == [F(-1, 8), F(23, 48), F(0)]
        and elapsed < 1.0
    )
    report(1, ok, f"direct method: 17/48 with c=(3,2,1), partials (-1/8, 23/48, 0) in {elapsed:.3f}s")


def test_criterion_02_transform_worked_example(worked):
    norm, vol = worked
    t0 = time.perf_counter()
    run = run_transform(norm)
    elapsed = time.perf_counter() - t0
    ok = run.H_coefficient == F(17, 24) and run.result == F(17, 48) and elapsed < 1.0
    report(2, ok, f"transform method: C = 17/24, volume 17/48 in {elapsed:.3f}s")


def test_criterion_03_two_constraint_closed_form_equivalence():
    rng = random.Random(4801)
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        n = rng.randint(1, 12)
        a, b = frac_vec(rng, n), frac_vec(rng, n)
        try:
            expected = lv.m2_closed_form(a, b)
        except lv.GenericityViolated:
            continue
        norm = lv.normalize(lv.make_instance([a, b], [1, 1]))
        assert lv.run_direct(norm).result == expected
        assert lv.run_transform(norm).result == expected
        done += 1
    elapsed = time.perf_counter() - t0
    ok = done == 200 and elapsed < 60.0
    report(3, ok, f"200 random m=2 instances: direct == transform == closed form in {elapsed:.1f}s")


def test_criterion_04_identity_suite():
    rng = random.Random(4802)
    checked = 0
    for n in range(1, 9):
        done = 0
        while done < 1000:
            a = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            try:
                assert lv.identity_check(a, b)
            except lv.GenericityViolated:
                continue
            done += 1
        checked += done
    report(4, checked == 8000, "identity holds exactly for 1000 generic pairs per n in 1..8")


def test_criterion_05_known_volumes_and_rejections(capsys):
    ok = True
    for n in range(1, 16):
        inst, vol = lv.simplex_instance(n)
        norm = lv.normalize(inst)
        ok &= lv.run_direct(norm).result == F(1, math.factorial(n))
        ok &= lv.run_transform(norm).result == F(1, math.factorial(n))
    inst, vol = lv.paper_example()
    ok &= lv.run_direct(lv.normalize(inst)).result == F(17, 48)
    fixtures = Path(__file__).resolve().parent.parent / "instances"
    code_unbounded = cli.main(["volume", str(fixtures / "unbounded.json")])
    code_nonpointed = cli.main(["volume", str(fixtures / "nonpointed.json"), "--check-only"])
    capsys.readouterr()
    ok &= code_unbounded == 4
    ok &= code_nonpointed == 5
    report(5, ok, "simplex 1..15 exact, paper example 17/48, rejection exits 4 and 5")


_CRITERION6_RUNS = []


def test_criterion_06_cross_method_exactness():
    rng = random.Random(4803)
    done = 0
    attempts = 0
    while done < 100 and attempts < 2000:
        attempts += 1
        m = rng.choice([2, 3, 4])
        n = rng.randint(2, 10)
        inst = lv.random_instance(rng, m, n, signed=True)
        try:
            norm = lv.normalize(inst)
            dr = run_direct(norm)
            tr = run_transform(norm)
        except SKIPPABLE:
            continue
        assert dr.result == tr.result, f"method disagreement on {inst}"
        _CRITERION6_RUNS.append((norm.n, dr, tr))
        done += 1
    report(6, done == 100, f"100 random m in 2..4 instances: identical Fractions ({attempts} draws)")


def test_criterion_07_node_count_bound():
    assert _CRITERION6_RUNS, "criterion 6 must run first"
    ok = True
    for n, dr, tr in _CRITERION6_RUNS:
        for k, lvl in enumerate(dr.levels, start=1):
            ok &= lvl.terms_out <= (n + 1) ** k
        for k, lvl in enumerate(tr.levels, start=1):
            ok &= lvl.terms_out <= (n + 1) ** k
    report(7, ok, f"node counts stayed within (n+1)^k on all {len(_CRITERION6_RUNS)} criterion-6 runs")


def test_criterion_08_scaling_law():
    rng = random.Random(4804)
    done = 0
    while done < 20:
        m, n = rng.choice([2, 3]), rng.randint(1, 6)
        inst = lv.random_instance(rng, m, n, signed=True)
        try:
            base = lv.run_direct(lv.normalize(inst)).result
        except SKIPPABLE:
            continue
        for t in (F(1, 2), F(2), F(3)):
            scaled = lv.make_instance(inst.rows, [t * bi for bi in inst.rhs])
            assert lv.run_direct(lv.normalize(scaled)).result == t**n * base
        done += 1
    report(8, done == 20, "volume at t*b equals t^n * volume at b for t in {1/2, 2, 3}")


def test_criterion_09_perturbation_path(worked):
    norm, vol = worked
    run = run_direct(norm, abscissae=(1, 1, 1))
    ok = run.result == F(17, 48) and len(run.config.ledger) >= 1
    report(9, ok, f"c=(1,1,1) fixture: {len(run.config.ledger)} ledger entries, exact 17/48")


def test_criterion_10_monte_carlo_consistency():
    rng = random.Random(4805)
    cases = [lv.paper_example()[0]]
    exacts = [F(17, 48)]
    while len(cases) < 11:
        m, n = rng.choice([2, 3]), rng.randint(2, 3)
        inst = lv.random_instance(rng, m, n)
        try:
            vol = lv.run_direct(lv.normalize(inst)).result
        except SKIPPABLE:
            continue
        est = lv.mc_volume(inst, 1000, seed=0)
        if float(vol) / float(max(est.box)) ** n * 1_000_000 < 100:
            continue  # box too loose for a meaningful million-sample test
        cases.append(inst)
        exacts.append(vol)
    hits = total = 0
    for inst, vol in zip(cases, exacts):
        for seed in range(20):
            est = lv.mc_volume(inst, 1_000_000, seed=seed)
            total += 1
            if abs(est.estimate - float(vol)) <= 3 * est.stderr:
                hits += 1
    ok = hits / total >= 0.95
    report(10, ok, f"{hits}/{total} million-sample runs within 3 stderr of exact")


def test_criterion_11_residue_micro_oracle():
    rng = random.Random(4806)
    done = 0
    worst = 0.0
    while done < 100:
        alpha, c1, betas, gs = _random_simple_pole_case(rng)
        term = Term(
            F(1),
            LinForm.var(1, alpha),
            tuple((LinForm([(1, b), (2, g)]), 1) for b, g in zip(betas, gs)),
        )
        config = ContourConfig({1: c1, 2: F(1)})
        out, _, _ = integrate_level([term], 1, config, [])
        sym = _residue_value(out)
        if abs(sym) < 1e-3:
            continue
        num = numeric_vertical_line(
            float(alpha), float(c1), [(float(b), float(g)) for b, g in zip(betas, gs)]
        )
        rel = abs(num.real - sym) / abs(sym)
        worst = max(worst, rel)
        assert rel < 1e-6
        done += 1
    report(11, done == 100, f"100 residue sums vs contour quadrature, worst rel err {worst:.2e}")
