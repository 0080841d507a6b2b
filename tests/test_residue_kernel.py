"""The dense residue kernel against the LinForm engine it replaced.

The reference is the LinForm engine of :mod:`linform_engine`: terms of
LinForm exponents and primitive LinForm factors, classified by a
per-level classifier into PoleSites, each elimination written as a
LinForm, each exponent coefficient a Fraction.  ``integrate_level`` and
``close_level`` of ``lapvol.terms``, on the dense forms of the same
inputs and converted back (:mod:`dense`), must return exactly what it
returns: equal terms with their factors in the same order, equal
LevelStats and equal ledgers, or the same refusal.
"""
import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import lapvol as lv
from lapvol import direct, transform
from lapvol.engine import contour
from lapvol.terms import ContourConfig, Side

import linform_engine as reference
from conftest import draws, outcome, prime_row_draws
from dense import (
    Term,
    canonical_term,
    close_level,
    direct_slots,
    initial_term,
    integrate_level,
    substituted_term,
    transform_slots,
)
from linform import LinForm


def in_order(value):
    """Dicts as their item lists, so that key order is compared too
    (Terms compare their factors in order already)."""
    if isinstance(value, dict):
        return list(value.items())
    return value


def checked_level(seen, level_fn, reference_fn, terms, args, rule, **kwargs):
    """Run one level through the kernel and the reference on equal
    inputs (the reference also takes its side ``rule``) and require
    equal results and ledgers; returns the reference's result, or None
    after an equal refusal.  ``seen`` counts the levels, refusals and
    levels whose path met a root."""
    got = outcome(level_fn, terms, *args, **kwargs)
    want = outcome(reference_fn, terms, *args, rule, **kwargs)
    if isinstance(want[0], type):
        assert got == want
        seen["refusals"] += 1
        return None
    assert [in_order(x) for x in got] == [in_order(x) for x in want]
    assert got[-2].ledger == want[-2].ledger and got[-2].abscissae == want[-2].abscissae
    seen["levels"] += 1
    seen["repairs"] += want[-1].repaired
    return want


def check_run(seen, start, order, last, n, config, rule, force_side):
    """Every level of one run: the intermediate levels through
    integrate_level, the last one through close_level at degree n+1."""
    terms = [start]
    for k in order[:-1]:
        result = checked_level(seen, integrate_level, reference.integrate_level, terms,
                               (k, config), rule, force_side=force_side)
        if result is None:
            return
        terms, config, _ = result
        assert all(canonical_term(t) == t for t in terms)
    checked_level(seen, close_level, reference.close_level, terms, (order[-1], last, n, config),
                  rule, force_side=force_side)


def check_instances(norms):
    """Both methods' runs on each instance under every forced side (None
    is the engine's own choice)."""
    seen = Counter()
    rules = reference.SideRule
    for norm in norms:
        methods = direct.method(norm.columns), transform.method(norm.columns)
        configs = [contour(norm, method) for method in methods]
        assert [config.slots for config in configs] == [direct_slots(norm), transform_slots(norm)]
        starts = outcome(initial_term, norm), outcome(substituted_term, norm)
        for side in (None, Side.LEFT, Side.RIGHT):
            for start, method, config, rule in zip(
                    starts, methods, configs, (rules.BY_EXPONENT_SIGN, rules.FEWER_POLES)):
                if isinstance(start, Term):
                    check_run(seen, start, method.levels, method.last, norm.n, config, rule, side)
    return seen


def test_kernel_matches_reference_on_prime_row_draws():
    seen = check_instances(prime_row_draws(60, 11))
    assert seen["levels"] > 1000


def test_kernel_matches_reference_on_signed_draws():
    seen = check_instances(draws(True, 60, 12))
    assert seen["levels"] > 500 and seen["refusals"] > 0 and seen["repairs"] > 0


def test_kernel_matches_reference_on_the_repaired_paper_example():
    norm = lv.normalize(lv.paper_example()[0])
    # the default contour repairs l3 at the last residue level
    assert check_instances([norm])["repairs"] == 3


def test_close_level_matches_reference_with_implicit_on_a_fractional_exponent():
    # the kernel carries the reference's implicit coefficient on l2 in the
    # exponent itself; here the exponent l1/2 - l2/3 has a common
    # denominator of 6
    l1, l2 = LinForm.var(1), LinForm.var(2)
    exponent = LinForm([(1, Fraction(1, 2)), (2, Fraction(-1, 3))])
    factors = tuple((f, 1) for f in (l1, l1 + l2, l1 + 2 * l2, l1 - 5 * l2, l2))
    term = canonical_term(Term(Fraction(3, 2), exponent, factors))
    config = ContourConfig({1: Fraction(3), 2: Fraction(1)})
    for implicit in (0, 1):
        lifted = canonical_term(Term(Fraction(3, 2), exponent + implicit * l2, factors))
        got = close_level([lifted], 1, 2, 3, config)
        want = reference.close_level([term], 1, 2, 3, config,
                                     reference.SideRule.BY_EXPONENT_SIGN, implicit=implicit)
        assert [in_order(x) for x in got] == [in_order(x) for x in want]
        # at the root of l1, alpha = -1/3 + implicit
        assert bool(want[0]) == (implicit == 1)


def test_reference_takes_only_types_from_the_kernel():
    # the reference shares no code with lapvol.terms: it imports the
    # contour, ledger, side and stats types and no function, and never
    # the module itself
    tree = ast.parse(Path(reference.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "lapvol.terms":
                taken.update(alias.name for alias in node.names)
            elif node.module == "lapvol":
                assert "terms" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert "lapvol.terms" not in {alias.name for alias in node.names}
    assert taken == {"ContourConfig", "LevelStats", "PerturbationRecord", "Side"}
