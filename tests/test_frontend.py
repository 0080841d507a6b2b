"""The integer front end (parse, scale/dedupe, columns, seed) against the
Fraction front end it replaced (tests/fraction_frontend.py): the same
columns, counts, rows, --check-only reports and refusals."""
import json
import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol import cli, polytope

import fraction_frontend as ref


def spelled(value, rng):
    """``value`` as a JSON entry: an int where it is integral and the
    draw says so, else a "p/q" string, sometimes unreduced."""
    value = Fraction(value)
    form = rng.randrange(3)
    if form == 0 and value.denominator == 1:
        return value.numerator
    k = 1 if form < 2 else rng.randint(2, 4)
    return f"{value.numerator * k}/{value.denominator * k}"


def signed_docs(seed, count):
    """Signed draws spelled with int and string entries mixed, some with
    a vacuous row, a scaled duplicate row or a nonpositive b added."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        inst = lv.random_instance(rng, rng.randint(1, 5), rng.randint(1, 7), signed=True)
        rows = [list(row) for row in inst.rows]
        rhs = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in rows]
        extra = rng.randrange(6)
        if extra == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * inst.n)
            rhs.insert(0, Fraction(rng.randint(1, 5)))
        elif extra == 1:
            i, t = rng.randrange(len(rows)), Fraction(rng.randint(1, 7), rng.randint(1, 3))
            rows.append([v * t for v in rows[i]])
            rhs.append(rhs[i] * t)
        elif extra == 2:
            rhs[rng.randrange(len(rhs))] = rng.randint(-2, 0)
        docs.append({"A": [[spelled(v, rng) for v in row] for row in rows],
                     "b": [spelled(v, rng) for v in rhs]})
    return docs


FIXED_DOCS = [
    # scaled copies of one row: one survives, two are merged
    {"A": [[1, 2], [2, 4], ["1/2", "1"], [3, -1]], "b": [1, 2, "1/2", 1]},
    {"A": [["2/4", "1"], [1, 2], [-1, 3]], "b": ["1/2", 1, "3/2"]},
    # the same row over different b is no duplicate
    {"A": [[1, 2], [1, 2], [-1, 1]], "b": [1, 2, 1]},
    # vacuous rows, given as ints and as strings
    {"A": [[0, 0], ["0/3", 0], [1, 1]], "b": [1, "1/7", 1]},
    # the paper example, with integer and string entries mixed
    {"A": [[1, "1"], ["-2", 2], [2, "-1/1"]], "b": [1, "1", "2/2"]},
    # denominators of A that do not divide b, and b that does not divide D
    {"A": [["1/6", "5/4"], ["-1/10", "7/3"], ["3/5", "-2/9"]], "b": ["7/3", "5/6", "9/4"]},
    {"A": [[6, 10, 15]], "b": [4]},
    # gates: unbounded and not pointed
    {"A": [[1, -1]], "b": [1]},
    {"A": [[-1, 1], [1, -2]], "b": [1, 3]},
    # refusals: zero and negative b, nothing left after cleanup
    {"A": [[1, 1]], "b": [0]},
    {"A": [[1, 1], [1, 2], [2, 1]], "b": [1, "-3", "-1/2"]},
    {"A": [[0, 0], ["0", "0/5"]], "b": [5, "2/3"]},
    # refusals of the shape: ragged rows, a short or long b
    {"A": [[1, 2], [3]], "b": [1, 1]},
    {"A": [[1, 2], [3, 4]], "b": [1]},
    {"A": [[1, 2]], "b": [1, 1]},
]

DOCS = FIXED_DOCS + signed_docs(31, 150)


def refusal(fn, *args):
    try:
        return fn(*args)
    except (ValueError, lv.VolumeEngineError) as exc:
        return type(exc).__name__, str(exc)


def integer_front_end(doc):
    inst = refusal(lv.make_instance, doc["A"], doc["b"])
    return inst if type(inst) is tuple else refusal(polytope.scale_and_dedupe, inst)


def fraction_front_end(doc):
    inst = refusal(ref.make_instance, doc["A"], doc["b"])
    if isinstance(inst[0], str):
        return inst
    out = refusal(ref.scale_and_dedupe, *inst)
    if isinstance(out[0], str):
        return out
    rows, dropped, merged = out
    return ref.integer_columns(rows), dropped, merged


def test_docs_meet_every_case():
    outcomes = [integer_front_end(doc) for doc in DOCS]
    kinds = {out[0] for out in outcomes if isinstance(out[0], str)}
    assert kinds == {"ValueError", "NonpositiveB", "EmptyAfterCleanup"}
    cleaned = [out for out in outcomes if not isinstance(out[0], str)]
    assert any(dropped for _, dropped, _ in cleaned) and any(merged for _, _, merged in cleaned)
    assert any(den > 1 for columns, _, _ in cleaned for den, _ in columns)


def test_json_ints_stay_ints_and_strings_become_fractions(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"A": [[1, "2/4"], ["-3", 0]], "b": [2, "1/3"]}))
    inst = cli.load_instance(str(path))
    assert [[type(v) for v in row] for row in inst.rows] == [[int, Fraction], [Fraction, int]]
    assert [type(v) for v in inst.rhs] == [int, Fraction]
    assert inst.rows == ((1, Fraction(1, 2)), (-3, 0)) and inst.rhs == (2, Fraction(1, 3))


@pytest.mark.parametrize("doc", DOCS)
def test_load_instance_matches_make_instance(doc, tmp_path):
    # the reader converts each entry once and checks the shape as
    # make_instance does: the same instance, entry types included, or the
    # same refusal
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        want = lv.make_instance(doc["A"], doc["b"])
    except ValueError as exc:
        with pytest.raises(lv.InstanceFormatError) as info:
            cli.load_instance(str(path))
        assert str(info.value) == f"{path}: {exc}"
        return
    got = cli.load_instance(str(path))
    assert got == want and type(got.rows) is type(got.rhs) is tuple
    types = [[type(v) for v in row] for row in (*got.rows, got.rhs)]
    assert types == [[type(v) for v in row] for row in (*want.rows, want.rhs)]
    assert all(type(row) is tuple for row in got.rows)


@pytest.mark.parametrize("doc", DOCS)
def test_front_end_matches_fraction_reference(doc, tmp_path, capsys):
    # columns and counts, or the refusal with its message
    assert integer_front_end(doc) == fraction_front_end(doc)
    # the normalized rows, built from the columns
    try:
        norm = lv.normalize(lv.make_instance(doc["A"], doc["b"]))
    except (ValueError, lv.VolumeEngineError):
        pass
    else:
        rows = ref.scale_and_dedupe(*ref.make_instance(doc["A"], doc["b"]))[0]
        assert norm.rows == rows and norm.columns == ref.integer_columns(rows)
        assert all(type(v) is Fraction for row in norm.rows for v in row)
        assert (norm.m, norm.n) == (len(rows), len(rows[0]))
    # the --check-only report, exit code and error line
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["volume", str(path), "--check-only"])
    captured = capsys.readouterr()
    try:
        expected_code, lines, error = ref.check_only_lines(doc["A"], doc["b"])
    except ValueError as exc:
        expected_code, lines, error = 2, [], f"error: {path}: {exc}"
    assert code == expected_code
    assert captured.out.splitlines() == lines
    assert captured.err == ("" if error is None else error + "\n")
