"""LinForm terms in and out of the dense engine of ``lapvol.terms``.

The engine runs on int tuples over a slot layout (the config's variables
in ascending id).  The tests write their terms and pole sites with
LinForms, as :mod:`linform_engine` defines them, and pass them through
the wrappers below: each converts the terms to the dense form over the
config's slots, calls the engine, and converts what it returns back, so
a test reads and asserts LinForm terms and pole sites.
"""
from fractions import Fraction
from math import lcm

from lapvol import direct, engine, terms, transform
from linform import LinForm
from linform_engine import PoleSite, Term, canonical_term


def dense_form(form, slots):
    """A primitive LinForm as an int tuple over ``slots``."""
    coeffs = dict(form.items())
    assert set(coeffs) <= set(slots), f"{form} holds a variable outside the slots {slots}"
    assert all(Fraction(c).denominator == 1 for c in coeffs.values())
    return tuple(int(coeffs.get(v, 0)) for v in slots)


def lin_form(ints, slots):
    return LinForm.from_items(tuple((v, c) for v, c in zip(slots, ints) if c))


def dense_term(term, slots):
    """The dense term of a LinForm term's canonical form."""
    term = canonical_term(term)
    coeffs = dict(term.exponent.items())
    den = lcm(*(c.denominator for c in coeffs.values()))
    exponent = (den, tuple(int(coeffs.get(v, 0) * den) for v in slots))
    return term.coeff, exponent, tuple((dense_form(f, slots), m) for f, m in term.denom)


def lin_term(term, slots):
    coeff, (den, ints), denom = term
    exponent = LinForm.from_items(tuple((v, Fraction(c, den)) for v, c in zip(slots, ints) if c))
    return Term(coeff, exponent, tuple((lin_form(f, slots), m) for f, m in denom))


def slots_of(lin_terms):
    """The variables of LinForm terms, ascending: their slot layout."""
    return tuple(sorted({v for t in lin_terms for f in (t.exponent, *(f for f, _ in t.denom))
                         for v in f.variables}))


def direct_slots(norm):
    return direct.method(norm.columns).slots


def transform_slots(norm):
    return transform.method(norm.columns).slots


def _start_term(norm, method):
    return lin_term(engine.start_term(norm, method), method.slots)


def initial_term(norm):
    return _start_term(norm, direct.method(norm.columns))


def substituted_term(norm):
    return _start_term(norm, transform.method(norm.columns))


def classified(lin_terms, var, config):
    """The level's pole sites, one per distinct factor holding ``var`` in
    first-seen order, as the engine classifies them, and its config."""
    slots = config.slots
    _, sides, config, _ = terms._classified([dense_term(t, slots) for t in lin_terms], var, config)
    return [PoleSite(lin_form(f, slots), var, side, 1) for f, side in sides.items()], config


def integrate_level(lin_terms, var, config, force_side=None):
    slots = config.slots
    out, config, stats = terms.integrate_level([dense_term(t, slots) for t in lin_terms], var,
                                               config, force_side)
    return [lin_term(t, slots) for t in out], config, stats


def close_level(lin_terms, var, last, n, config, force_side=None):
    return terms.close_level([dense_term(t, config.slots) for t in lin_terms], var, last, n,
                             config, force_side)


def merge_like_terms(lin_terms):
    slots = slots_of(lin_terms)
    return [lin_term(t, slots) for t in terms.merge_like_terms(
        [dense_term(t, slots) for t in lin_terms])]


def final_level_value(term, var):
    return terms.final_level_value(dense_term(term, (var,)))
