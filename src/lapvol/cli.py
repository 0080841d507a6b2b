"""Command-line front end.

    lapvol volume FILE [--method direct|transform|both] [--digits K]
                       [--check-only] [--verify-mc --samples N --seed S]
                       [--stats] [--tolerate-floats]
    lapvol --gen simplex:N | box:N | paper-example    (1 <= N <= 1000)

Exit codes: 0 ok, 2 invalid file/usage, 3 nonpositive b, 4 unbounded,
5 not pointed, 6 degenerate instance, 7 internal (divergent slice,
malformed last-level shape, or disagreeing methods).

The parse keeps a JSON int as an int and makes a "p/q" string (or, under
--tolerate-floats, a decimal literal) an exact Fraction; both
``normalize`` and ``--check-only`` then clean and scale the rows in one
integer pass, :func:`lapvol.polytope.scale_and_dedupe`.  ``--verify-mc``
alone solves one bounding LP per coordinate for its sampling box.

The command line is read in one pass where it is `volume FILE` and
options spelled in full (:func:`_volume_args`); argparse, loaded then,
reads every other form and writes every usage, help and error message.
"""
from __future__ import annotations

import contextlib
import functools
import json
import re
import sys
import types
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from . import __version__, polytope
from .errors import (
    DegenerateInstance,
    DivergentSlice,
    EmptyAfterCleanup,
    InstanceFormatError,
    MalformedH,
    NonpositiveB,
    NotCompact,
    NotPointed,
)
from .direct import run_direct
from .linforms import var_name
from .polytope import PolytopeInstance, certify, normalize
from .terms import LevelStats
from .transform import run_transform

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_BAD_FILE = 2
EXIT_NONPOSITIVE_B = 3
EXIT_NOT_COMPACT = 4
EXIT_NOT_POINTED = 5
EXIT_DEGENERATE = 6
EXIT_INTERNAL = 7

_ERROR_CODES = [
    (InstanceFormatError, EXIT_BAD_FILE),
    (EmptyAfterCleanup, EXIT_BAD_FILE),
    (NonpositiveB, EXIT_NONPOSITIVE_B),
    (NotCompact, EXIT_NOT_COMPACT),
    (NotPointed, EXIT_NOT_POINTED),
    (DegenerateInstance, EXIT_DEGENERATE),
    (DivergentSlice, EXIT_INTERNAL),
    (MalformedH, EXIT_INTERNAL),
]


def decimal_string(x: Fraction, digits: int) -> str:
    """Exact rational-to-decimal rendering to ``digits`` places by long
    division, rounding the last digit half-up.  No binary floating point
    is involved anywhere."""
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    whole, rem = divmod(abs(num), den)
    frac, r = divmod(rem * 10 ** digits, den)
    if 2 * r >= den:
        frac += 1
        if frac == 10 ** digits:
            whole += 1
            frac = 0
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


# Bounds on a decimal literal accepted under --tolerate-floats, checked on
# the text before any conversion: Fraction("1e999999999") would build an
# integer with a billion digits.
_MAX_MANTISSA_DIGITS = 100
_MAX_EXPONENT_DIGITS = 3
_DECIMAL = r"[+-]?([0-9]*)(?:\.([0-9]*))?(?:[eE][+-]?([0-9]+))?"  # compiled on first use
_MAX_GEN = 1000  # the largest N of --gen simplex:N and box:N (box:N writes N^2 entries)


def _shown(text: str) -> str:
    """``text`` as a refusal quotes it: its repr, cut after 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def _too_long(exc: ValueError) -> bool:
    """Whether ``exc`` is int()'s refusal of a literal with more digits
    than the interpreter's int-to-str cap; its message advises a call
    that a command-line user cannot make."""
    return "int_max_str_digits" in str(exc)


def _too_long_message() -> str:
    return f"number too long: more than {_int_str_cap()} digits"


def _exact_text(text: str, tolerate_floats: bool, kind: str = "decimal literal") -> Fraction:
    """The exact value of the text of an instance entry: a "p/q" string
    or, under --tolerate-floats and with one warning, a decimal literal
    such as "-1.25e-3", given as a JSON number (``kind`` "float
    literal") or as a string.  Anything else, and a literal whose
    mantissa has more than _MAX_MANTISSA_DIGITS digits or whose exponent
    has more than _MAX_EXPONENT_DIGITS, is refused (exit 2) with the
    text quoted by _shown; a "p/q" refusal quotes it as given."""
    stripped = text.strip()
    if "." not in stripped and "e" not in stripped.lower():
        try:
            return Fraction(stripped)
        except ZeroDivisionError as exc:
            raise InstanceFormatError(f"not a rational: {_shown(text)} ({exc})")
        except ValueError as exc:
            # Fraction's own message would quote the whole text again
            detail = f" ({_too_long_message()})" if _too_long(exc) else ""
            raise InstanceFormatError(f"not a rational: {_shown(text)}{detail}")
    shown = _shown(stripped)
    if not tolerate_floats:
        raise InstanceFormatError(
            f"{kind} {shown} not accepted: exact rationals only "
            "(use \"p/q\" strings, or pass --tolerate-floats)"
        )
    match = re.fullmatch(_DECIMAL, stripped)
    if match is None:
        raise InstanceFormatError(f"not a decimal literal: {shown}")
    whole, frac, exp = match.groups()
    if len(whole) + len(frac or "") > _MAX_MANTISSA_DIGITS or len(exp or "") > _MAX_EXPONENT_DIGITS:
        raise InstanceFormatError(
            f"decimal literal {shown} too long: at most {_MAX_MANTISSA_DIGITS} "
            f"mantissa digits and a {_MAX_EXPONENT_DIGITS}-digit exponent"
        )
    try:
        value = Fraction(stripped)
    except ValueError:
        raise InstanceFormatError(f"not a decimal literal: {shown}")
    print(f"warning: converting decimal literal {stripped!r} to {value} exactly", file=sys.stderr)
    return value


def _not_a_number(text: str):
    """json's hook for NaN, Infinity and -Infinity, which have no exact
    value."""
    raise InstanceFormatError(f"not a number: {text!r}")


def _parse_rational(value, tolerate_floats: bool):
    """An entry that is not a JSON int: a Fraction (read by the
    parse_float hook) as it is, a string read by :func:`_exact_text`;
    InstanceFormatError for anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return _exact_text(value, tolerate_floats)
    shown = repr(value)  # a list, object, bool or null, cut as _shown cuts a text
    raise InstanceFormatError(f"not a rational: {shown[:40]}{'...' * (len(shown) > 40)}")


@functools.lru_cache(maxsize=None)
def _decoder(tolerate_floats: bool):
    """The decoder of instance files, built once per process for each
    ``tolerate_floats``.  json hands the parse_float hook the literal's
    text, so a decimal converts exactly (0.1 -> 1/10, not the binary
    float)."""
    return json.JSONDecoder(parse_constant=_not_a_number,
                            parse_float=lambda t: _exact_text(t, tolerate_floats, "float literal"))


def load_instance(path: str, tolerate_floats: bool = False) -> PolytopeInstance:
    """Read the JSON instance document {"A": [[...]], "b": [...]} with
    entries given as integers (kept as ints) or "p/q" strings (read as
    Fractions), converting each entry once."""
    try:
        with open(path) as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # refused as json.load refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _decoder(tolerate_floats).decode(text)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}")
    except RecursionError:  # json's decoder recurses once per level of nesting
        raise InstanceFormatError(f"{path}: invalid JSON (nested too deeply)")
    except ValueError as exc:
        if _too_long(exc):  # json reads an int literal with int()
            raise InstanceFormatError(f"{path}: {_too_long_message()}")
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict) or "A" not in doc or "b" not in doc:
        raise InstanceFormatError(f'{path}: expected an object with keys "A" and "b"')
    if not (isinstance(doc["A"], list) and all(isinstance(row, list) for row in doc["A"])
            and isinstance(doc["b"], list)):
        raise InstanceFormatError(f'{path}: "A" must be a list of rows and "b" a list')

    def entries(values):
        return tuple([v if type(v) is int else _parse_rational(v, tolerate_floats) for v in values])
    try:
        return polytope._checked_instance(tuple(map(entries, doc["A"])), entries(doc["b"]))
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}")


def write_instance_json(inst: PolytopeInstance, out) -> None:
    """``json.dumps(doc, indent=2)`` and a newline for the document {"A": rows,
    "b": rhs} of entry strings (none needs an escape), written to ``out`` row by row."""
    out.write('{\n  "A": [')
    for i, row in enumerate(inst.rows):
        entries = '",\n      "'.join(map(str, row))
        out.write(f'{"," if i else ""}\n    [\n      "{entries}"\n    ]')
    entries = '",\n    "'.join(map(str, inst.rhs))
    out.write(f'\n  ],\n  "b": [\n    "{entries}"\n  ]\n}}\n')


def _fmt_vec(values) -> str:
    return f"({', '.join(map(str, values))})"


def _cmd_check_only(inst: PolytopeInstance) -> int:
    columns, dropped, merged = polytope.scale_and_dedupe(inst)
    print(f"normalize: m={len(columns[0][1])} n={len(columns)} "
          f"(dropped {dropped} vacuous, merged {merged} duplicate rows)")
    try:
        c, u = certify(columns)
    except NotCompact:
        # for b > 0 both gates fail together (the conditions are
        # equivalent); the report exits with the deepest failed
        # hypothesis, the Theorem-1 pointedness gate
        print("compact: false")
        print("pointed: false")
        print("valid: false")
        return EXIT_NOT_POINTED
    print(f"compact: true witness={_fmt_vec(u)}")
    print(f"pointed: true witness={_fmt_vec(c)}")
    print("valid: true")
    return EXIT_OK


# The interpreter caps int-to-str conversions (0 meaning no cap); older
# interpreters have no cap.
_int_str_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)


@contextlib.contextmanager
def _uncapped_int_str():
    """Lift the int-to-str cap for the block, restoring it afterwards: an
    exact volume, witness or message is printed whatever its size."""
    cap = _int_str_cap()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _print_stats(kind: str, run) -> None:
    levels = run.levels
    if kind == "direct":
        order = [lvl.var for lvl in levels] + [run.last]
        print(f"stats: method=direct order={','.join(map(var_name, order))}")
        # the closed-form last variable, as a level without poles
        levels += (LevelStats(run.last, run.leaves, 0, 0, 0, 0, run.leaves, run.leaves),)
    for i, lvl in enumerate(levels, start=1):
        print(
            f"stats: method={kind} level={i} terms_in={lvl.terms_in} "
            f"poles={lvl.poles_found} left={lvl.left} right={lvl.right} "
            f"terms_out={lvl.terms_out} merged={lvl.residues - lvl.terms_out}"
        )
    for rec in run.config.ledger:
        print(f"stats: perturbation var={var_name(rec.var)} on_path={rec.on_path}")
    if kind == "transform":
        print(f"stats: transform C={run.H_coefficient}")


def _cmd_volume(args) -> int:
    # the cap holds while the file is parsed, so an over-long number in
    # it is refused (exit 2); every line and message after that is
    # written uncapped, including those formatted when an error is raised
    inst = load_instance(args.file, args.tolerate_floats)
    with _uncapped_int_str():
        if args.check_only:
            return _cmd_check_only(inst)
        return _volume_report(inst, args)


def _volume_report(inst: PolytopeInstance, args) -> int:
    norm = normalize(inst)
    runs = {}
    if args.method in ("direct", "both"):
        runs["direct"] = run_direct(norm)
    if args.method in ("transform", "both"):
        runs["transform"] = run_transform(norm)
    values = {k: r.result for k, r in runs.items()}
    volume, *others = values.values()
    if any(v != volume for v in others):  # not set(): a Fraction's hash costs more
        found = " ".join(f"{k}={v}" for k, v in values.items())
        print(f"error: method disagreement on {args.file}: {found}; this is an "
              "engine bug, please report the instance", file=sys.stderr)
        return EXIT_INTERNAL
    if args.verify_mc:
        # sampled before anything is printed: a body outside the float
        # range is refused with one error line
        from .oracle import mc_volume  # loaded on first use, as is numpy
        try:
            est = mc_volume(inst, args.samples, args.seed, norm)
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            print("error: --verify-mc needs numpy", file=sys.stderr)
            return EXIT_BAD_FILE
        except ValueError as exc:
            print(f"error: --verify-mc: {exc}", file=sys.stderr)
            return EXIT_BAD_FILE
    print(f"{volume} ({decimal_string(volume, args.digits)})")
    if args.method == "both":
        print("methods agree: direct == transform (exact)")
    if args.stats:
        for kind, run in runs.items():
            _print_stats(kind, run)
    if args.verify_mc:
        z = est.z_score(volume)
        print(
            f"mc: estimate={est.estimate:.6f} stderr={est.stderr:.6f} "
            f"z={z:+.2f} samples={est.samples} seed={est.seed}"
        )
    return EXIT_OK


def _cmd_gen(spec: str) -> int:
    from .oracle import known_instance  # loaded on first use: `volume` never needs it

    kind, _, arg = spec.partition(":")
    digits = arg.lstrip("0")
    if kind in ("simplex", "box") and re.fullmatch("[0-9]{1,4}", digits) and int(digits) <= _MAX_GEN:
        inst, _vol = known_instance(kind, int(digits))
    elif spec == "paper-example":
        inst, _vol = known_instance("paper-example")
    else:
        print(f"error: invalid generator {spec!r} (expected simplex:N or box:N with "
              f"an integer 1 <= N <= {_MAX_GEN}, or paper-example)", file=sys.stderr)
        return EXIT_BAD_FILE
    write_instance_json(inst, sys.stdout)
    return EXIT_OK


def _int_in_range(least: int, most: Callable[[], int] = lambda: 0):
    """An argparse type accepting integers >= ``least`` and, unless
    ``most()`` is 0, <= ``most()`` (usage error, exit 2, otherwise).
    ``most`` is called when the option is parsed, not when the parser is
    built."""
    def integer(text: str) -> int:
        value = int(text)
        cap = most()
        if value < least or cap and value > cap:
            from argparse import ArgumentTypeError  # loaded only to refuse
            bound = f"at least {least}" if value < least else f"at most {cap}"
            raise ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return integer


# The options of `volume` and their add_argument keywords: build_parser
# adds them, and _volume_args reads them.
_VOLUME_OPTIONS = {
    "--method": {"choices": ("direct", "transform", "both"), "default": "both"},
    # the rendered digits pass through one int-to-str conversion
    "--digits": {"type": _int_in_range(0, _int_str_cap), "default": 12,
                 "help": "decimal digits to render (default 12)"},
    "--check-only": {"action": "store_true",
                     "help": "run the validation gates and report flags/witnesses only"},
    "--verify-mc": {"action": "store_true", "help": "append a Monte Carlo cross-check line"},
    "--samples": {"type": _int_in_range(1), "default": 1_000_000},
    "--seed": {"type": _int_in_range(0), "default": 0},
    "--stats": {"action": "store_true",
                "help": "print per-level node counts and the perturbation ledger"},
    "--tolerate-floats": {"action": "store_true",
                          "help": "convert decimal literals to exact rationals with a warning"},
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # loaded only where the command line needs argparse

    parser = argparse.ArgumentParser(
        prog="lapvol",
        description="Exact polytope volume from half-spaces by Laplace-transform inversion.",
    )
    parser.add_argument("--version", action="version", version=f"lapvol {__version__}")
    parser.add_argument(
        "--gen",
        metavar="KIND",
        help="write a generated instance to stdout (simplex:N, box:N, paper-example)",
    )
    sub = parser.add_subparsers(dest="command")
    vol = sub.add_parser("volume", help="compute the exact volume of an instance file")
    vol.add_argument("file")
    for option, keywords in _VOLUME_OPTIONS.items():
        vol.add_argument(option, **keywords)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def _volume_args(argv=None):
    """The attributes of ``_parser().parse_args(argv)`` in a
    SimpleNamespace (an argparse.Namespace would load argparse), read in
    one pass where argv is `volume FILE` and options of _VOLUME_OPTIONS
    spelled in full, each value a token of its own, in any order (the
    last of a repeated option wins); None for any other argv, and for a
    value that the option's type or choices refuse, which argparse then
    reports.  FILE and the values may not start with "-"."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] != "volume":
        return None
    args = {"gen": None, "command": "volume", "file": None}
    for option, keywords in _VOLUME_OPTIONS.items():
        args[option[2:].replace("-", "_")] = keywords.get("default", False)
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = _VOLUME_OPTIONS.get(token)
        if keywords is None:
            if token.startswith("-") or args["file"] is not None:
                return None
            args["file"] = token
            continue
        value = True
        if "action" not in keywords:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except Exception:
                # argparse calls the type again: it reports a ValueError, a
                # TypeError or its own error, and raises any other
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        args[token[2:].replace("-", "_")] = value
    return None if args["file"] is None else types.SimpleNamespace(**args)


def main(argv=None) -> int:
    args = _volume_args(argv)
    if args is None:
        parser = _parser()
        args = parser.parse_args(argv)
        if args.gen:
            return _cmd_gen(args.gen)
        if args.command != "volume":
            parser.print_usage(sys.stderr)
            return EXIT_BAD_FILE
    try:
        return _cmd_volume(args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        for cls, code in _ERROR_CODES:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise AssertionError  # unreachable


if __name__ == "__main__":
    sys.exit(main())
