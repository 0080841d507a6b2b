"""Command-line front end.

    lapvol volume FILE [--method direct|transform|both] [--digits K]
                       [--check-only] [--verify-mc --samples N --seed S]
                       [--stats] [--tolerate-floats]
    lapvol --gen simplex:N | box:N | paper-example

Exit codes: 0 ok, 2 invalid file/usage, 3 nonpositive b, 4 unbounded,
5 not pointed, 6 degenerate instance, 7 internal (divergent slice,
malformed transform or disagreeing methods).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Callable

from . import __version__
from .errors import (
    DegenerateInstance,
    DivergentSlice,
    EmptyAfterCleanup,
    InstanceFormatError,
    MalformedH,
    NoAdmissiblePerturbation,
    NonpositiveB,
    NotCompact,
    NotPointed,
)
from .direct import run_direct
from .linforms import var_name
from .oracle import known_instance, mc_volume
from .polytope import (
    PolytopeInstance,
    certify,
    integer_columns,
    make_instance,
    normalize,
    scale_and_dedupe,
)
from .transform import run_transform

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
    (NoAdmissiblePerturbation, EXIT_INTERNAL),
]


def decimal_string(x: Fraction, digits: int) -> str:
    """Exact rational-to-decimal rendering to ``digits`` places by long
    division, rounding the last digit half-up.  No binary floating point
    is involved anywhere."""
    sign = "-" if x < 0 else ""
    num, den = abs(x).numerator, abs(x).denominator
    whole, rem = divmod(num, den)
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


def _exact_decimal(text: str) -> Fraction:
    """The exact value of a decimal literal such as "-1.25e-3", refusing
    (exit 2) any other text and a literal whose mantissa has more than
    _MAX_MANTISSA_DIGITS digits or whose exponent has more than
    _MAX_EXPONENT_DIGITS."""
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
    match = re.fullmatch(_DECIMAL, text)
    if match is None:
        raise InstanceFormatError(f"not a decimal literal: {shown}")
    whole, frac, exp = match.groups()
    if len(whole) + len(frac or "") > _MAX_MANTISSA_DIGITS or len(exp or "") > _MAX_EXPONENT_DIGITS:
        raise InstanceFormatError(
            f"decimal literal {shown} too long: at most {_MAX_MANTISSA_DIGITS} "
            f"mantissa digits and a {_MAX_EXPONENT_DIGITS}-digit exponent"
        )
    try:
        return Fraction(text)
    except ValueError:
        raise InstanceFormatError(f"not a decimal literal: {shown}")


def _parse_rational(value, tolerate_floats: bool) -> Fraction:
    if isinstance(value, bool):
        raise InstanceFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):  # produced by the tolerant float hook
        return value
    if isinstance(value, float):
        raise InstanceFormatError(
            f"float literal {value!r} not accepted: exact rationals only "
            "(use strings like \"1/10\", or pass --tolerate-floats)"
        )
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text.lower():
            if tolerate_floats:
                value = _exact_decimal(text)
                print(f"warning: converting decimal literal {text!r} exactly", file=sys.stderr)
                return value
            raise InstanceFormatError(
                f"decimal literal {text!r} not accepted: exact rationals only "
                "(use \"p/q\" strings, or pass --tolerate-floats)"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"not a rational: {value!r} ({exc})")
    raise InstanceFormatError(f"not a rational: {value!r}")


def load_instance(path: str, tolerate_floats: bool = False) -> PolytopeInstance:
    """Read the JSON instance document {"A": [[...]], "b": [...]} with
    entries given as integer or "p/q" strings."""
    if tolerate_floats:
        def hook(text):
            # the json hook receives the raw literal text, so the decimal
            # string converts exactly (0.1 -> 1/10, not the binary float)
            value = _exact_decimal(text)
            print(f"warning: converting decimal literal {text!r} to {value} exactly",
                  file=sys.stderr)
            return value
    else:
        def hook(text):
            raise InstanceFormatError(
                f"float literal {text!r} not accepted: exact rationals only "
                "(use \"p/q\" strings, or pass --tolerate-floats)"
            )
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=hook)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}")
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict) or "A" not in doc or "b" not in doc:
        raise InstanceFormatError(f'{path}: expected an object with keys "A" and "b"')
    if not (isinstance(doc["A"], list) and all(isinstance(row, list) for row in doc["A"])
            and isinstance(doc["b"], list)):
        raise InstanceFormatError(f'{path}: "A" must be a list of rows and "b" a list')
    try:
        A = [[_parse_rational(v, tolerate_floats) for v in row] for row in doc["A"]]
        b = [_parse_rational(v, tolerate_floats) for v in doc["b"]]
        return make_instance(A, b)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}")


def instance_json(inst: PolytopeInstance) -> str:
    doc = {
        "A": [[str(v) for v in row] for row in inst.rows],
        "b": [str(v) for v in inst.rhs],
    }
    return json.dumps(doc, indent=2)


def _fmt_vec(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _cmd_check_only(inst: PolytopeInstance) -> int:
    rows, dropped, merged = scale_and_dedupe(inst)
    print(f"normalize: m={len(rows)} n={len(rows[0])} "
          f"(dropped {dropped} vacuous, merged {merged} duplicate rows)")
    try:
        c, u = certify(integer_columns(rows))
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
    exact volume is printed whatever its size."""
    cap = _int_str_cap()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _print_stats(kind: str, run) -> None:
    if kind == "direct":
        print(f"stats: method=direct order={','.join(var_name(lvl.var) for lvl in run.levels)}")
    for i, lvl in enumerate(run.levels, start=1):
        print(
            f"stats: method={kind} level={i} terms_in={lvl.terms_in} "
            f"poles={lvl.poles_found} left={lvl.left} right={lvl.right} "
            f"terms_out={lvl.terms_out} merged={lvl.residues - lvl.terms_out}"
        )
    for rec in run.config.ledger:
        print(f"stats: perturbation var={var_name(rec.var)} epsilon={rec.epsilon} delta={rec.delta}")
    if kind == "transform":
        print(f"stats: transform C={run.H_coefficient}")


def _cmd_volume(args) -> int:
    inst = load_instance(args.file, args.tolerate_floats)
    if args.check_only:
        return _cmd_check_only(inst)
    norm = normalize(inst)
    runs = {}
    if args.method in ("direct", "both"):
        runs["direct"] = run_direct(norm)
    if args.method in ("transform", "both"):
        runs["transform"] = run_transform(norm)
    values = {k: r.result for k, r in runs.items()}
    if len(set(values.values())) != 1:
        found = " ".join(f"{k}={v}" for k, v in values.items())
        print(f"error: method disagreement on {args.file}: {found}; this is an "
              "engine bug, please report the instance", file=sys.stderr)
        return EXIT_INTERNAL
    volume = next(iter(values.values()))
    if args.verify_mc:
        # sampled before anything is printed: a body outside the float
        # range is refused with one error line
        try:
            est = mc_volume(inst, args.samples, args.seed, norm)
        except ValueError as exc:
            print(f"error: --verify-mc: {exc}", file=sys.stderr)
            return EXIT_BAD_FILE
    with _uncapped_int_str():
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
    kind, _, arg = spec.partition(":")
    try:
        if kind == "simplex":
            inst, _vol = known_instance("simplex", int(arg))
        elif kind == "box":
            inst, _vol = known_instance("box", int(arg))
        elif kind == "paper-example":
            inst, _vol = known_instance("paper-example")
        else:
            raise ValueError(f"unknown generator {spec!r} "
                             "(expected simplex:N, box:N, or paper-example)")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    print(instance_json(inst))
    return EXIT_OK


def _int_in_range(least: int, most: Callable[[], int] = lambda: 0):
    """An argparse type accepting integers >= ``least`` and, unless
    ``most()`` is 0, <= ``most()`` (usage error, exit 2, otherwise).
    ``most`` is called when the option is parsed, not when the parser is
    built."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        cap = most()
        if cap and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
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
    vol.add_argument("--method", choices=("direct", "transform", "both"), default="both")
    # the rendered digits pass through one int-to-str conversion
    vol.add_argument("--digits", type=_int_in_range(0, _int_str_cap), default=12,
                     help="decimal digits to render (default 12)")
    vol.add_argument("--check-only", action="store_true",
                     help="run the validation gates and report flags/witnesses only")
    vol.add_argument("--verify-mc", action="store_true",
                     help="append a Monte Carlo cross-check line")
    vol.add_argument("--samples", type=_int_in_range(1), default=1_000_000)
    vol.add_argument("--seed", type=int, default=0)
    vol.add_argument("--stats", action="store_true",
                     help="print per-level node counts and the perturbation ledger")
    vol.add_argument("--tolerate-floats", action="store_true",
                     help="convert decimal literals to exact rationals with a warning")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
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
