"""LinForm terms in and out of the dense engine of ``lapvol.terms``.

The engine runs on int tuples over a slot layout (the config's variables
in ascending id).  The tests write their terms and pole sites with
LinForms, as :mod:`linform_engine` defines them, and pass them through
the wrappers below: each converts the terms and the site history to the
dense form over the config's slots, calls the engine, and converts what
it returns back, so a test reads and asserts LinForm terms.
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


def dense_history(history, slots):
    return [(var, tuple((dense_form(s.factor.primitive()[1], slots), s.side) for s in sites))
            for var, sites in history]


def lin_history(history, slots):
    return [(var, tuple(PoleSite(lin_form(g, slots), var, side, 1) for g, side in sites))
            for var, sites in history]


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


def _run_level(level_fn, lin_terms, config, history, *args, **kwargs):
    """``level_fn`` on the dense forms of ``lin_terms`` and ``history``;
    the history is converted back in place, also after a refusal."""
    slots = config.slots
    dense = dense_history(history, slots)
    try:
        return slots, level_fn([dense_term(t, slots) for t in lin_terms], *args, dense, **kwargs)
    finally:
        history[:] = lin_history(dense, slots)


def integrate_level(lin_terms, var, config, history, force_side=None):
    slots, (out, config, stats) = _run_level(terms.integrate_level, lin_terms, config, history,
                                             var, config, force_side=force_side)
    return [lin_term(t, slots) for t in out], config, stats


def close_level(lin_terms, var, last, n, config, history, force_side=None):
    return _run_level(terms.close_level, lin_terms, config, history, var, last, n, config,
                      force_side=force_side)[1]


def merge_like_terms(lin_terms):
    slots = slots_of(lin_terms)
    return [lin_term(t, slots) for t in terms.merge_like_terms(
        [dense_term(t, slots) for t in lin_terms])]


def final_level_value(term, var):
    return terms.final_level_value(dense_term(term, (var,)))


def perturb_abscissa(config, var, level_sites, history):
    slots = config.slots
    sites = [dense_form(s.factor.primitive()[1], slots) for s in level_sites]
    return terms.perturb_abscissa(config, var, sites, dense_history(history, slots))
