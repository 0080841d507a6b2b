"""CLI behavior: report lines, exit codes, file format."""
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lapvol import cli, polytope
from lapvol.oracle import known_instance, mc_volume
from lapvol.polytope import normalize

from conftest import LP_SOLVED_ROWS
from test_lp import dense_seed
from facet_volume import facet_volume

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- decimal rendering ----------------------------------------------------


@pytest.mark.parametrize(
    "value,digits,expected",
    [
        (Fraction(17, 48), 12, "0.354166666667"),
        (Fraction(17, 48), 4, "0.3542"),
        (Fraction(1, 2), 3, "0.500"),
        (Fraction(-1, 3), 5, "-0.33333"),
        (Fraction(7), 2, "7.00"),
        (Fraction(999, 1000), 2, "1.00"),
        (Fraction(5, 2), 0, "3"),  # rounds half up at the boundary
    ],
)
def test_decimal_string(value, digits, expected):
    assert cli.decimal_string(value, digits) == expected


# -- volume command --------------------------------------------------------


def test_volume_paper_example(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"))
    assert code == 0
    assert out.splitlines()[0] == "17/48 (0.354166666667)"
    assert "methods agree" in out


def test_volume_single_value_line(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"),
                       "--method", "direct", "--digits", "4")
    assert code == 0
    assert out.splitlines()[0] == "17/48 (0.3542)"


def test_volume_simplex(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "simplex3.json"))
    assert code == 0
    assert out.startswith("1/6 (0.1666")


def test_stats_lines(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"), "--stats")
    assert code == 0
    assert "stats: method=direct level=1" in out
    assert "stats: transform C=17/24" in out


def test_stats_lines_report_merging(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"), "--stats")
    assert code == 0
    levels = [l for l in out.splitlines() if " level=" in l]
    assert len(levels) == 5  # direct levels 1-3, transform levels 1-2
    for line in levels:
        fields = dict(kv.split("=") for kv in line.split()[1:])
        assert line.startswith(f"stats: method={fields['method']} level={fields['level']} "
                               f"terms_in={fields['terms_in']} poles=")
        assert line.endswith(f"terms_out={fields['terms_out']} merged={fields['merged']}")
        assert int(fields["merged"]) >= 0


def test_stats_direct_order_and_levels(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"),
                       "--method", "direct", "--stats")
    assert code == 0
    assert out.splitlines()[1:] == [
        "stats: method=direct order=l2,l3,l1",
        "stats: method=direct level=1 terms_in=1 poles=3 left=2 right=1 terms_out=2 merged=0",
        "stats: method=direct level=2 terms_in=2 poles=6 left=6 right=0 terms_out=2 merged=4",
        "stats: method=direct level=3 terms_in=2 poles=0 left=0 right=0 terms_out=2 merged=0",
        "stats: perturbation var=l3 on_path=1",
    ]


# The full --stats report of both methods: at m = 1, where no level runs
# and direct's closed-form line counts the one power, and at m = 2, where
# the closing level is the only residue level and counts its alpha > 0
# powers (the residue with alpha <= 0 is in merged=).
STATS_REPORTS = [
    ("simplex3.json", [
        "1/6 (0.166666666667)",
        "methods agree: direct == transform (exact)",
        "stats: method=direct order=l1",
        "stats: method=direct level=1 terms_in=1 poles=0 left=0 right=0 terms_out=1 merged=0",
        "stats: transform C=1",
    ]),
    ({"A": [[1, 2], [3, 1]], "b": [1, 1]}, [
        "7/60 (0.116666666667)",
        "methods agree: direct == transform (exact)",
        "stats: method=direct order=l1,l2",
        "stats: method=direct level=1 terms_in=1 poles=3 left=3 right=0 terms_out=2 merged=1",
        "stats: method=direct level=2 terms_in=2 poles=0 left=0 right=0 terms_out=2 merged=0",
        "stats: method=transform level=1 terms_in=1 poles=4 left=2 right=2 terms_out=1 merged=1",
        "stats: transform C=7/30",
    ]),
]


@pytest.mark.parametrize("instance,lines", STATS_REPORTS, ids=["m1", "m2"])
def test_stats_report_of_both_methods(tmp_path, capsys, instance, lines):
    path = (str(INSTANCES / instance) if isinstance(instance, str)
            else write(tmp_path, "m2.json", instance))
    code, out, err = run(capsys, "volume", path, "--method", "both", "--stats")
    assert (code, out, err) == (0, "\n".join(lines) + "\n", "")


def test_verify_mc_line(capsys):
    code, out, _ = run(
        capsys, "volume", str(INSTANCES / "paper-example.json"),
        "--verify-mc", "--samples", "50000", "--seed", "3",
    )
    assert code == 0
    mc_lines = [l for l in out.splitlines() if l.startswith("mc:")]
    assert len(mc_lines) == 1
    assert "seed=3" in mc_lines[0] and "stderr=" in mc_lines[0]


WITHOUT_NUMPY = """\
import sys
sys.path.insert(0, {src!r})
sys.modules["numpy"] = None  # every import of numpy fails
from lapvol import cli
sys.exit(cli.main(["volume", {path!r}, "--verify-mc", "--samples", "1000"]))
"""


def test_verify_mc_without_numpy_is_one_error_line():
    # a fresh interpreter, so that no numpy is loaded already
    code = WITHOUT_NUMPY.format(src=str(REPO / "src"), path=str(INSTANCES / "paper-example.json"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: --verify-mc needs numpy\n")


# -- exit codes --------------------------------------------------------------


def test_exit_2_missing_file(capsys):
    code, _, err = run(capsys, "volume", "/nonexistent/x.json")
    assert code == 2 and "error:" in err


def test_exit_2_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "volume", str(path))
    assert code == 2


def test_exit_2_missing_keys(tmp_path, capsys):
    code, _, _ = run(capsys, "volume", write(tmp_path, "x.json", {"A": [["1"]]}))
    assert code == 2


@pytest.mark.parametrize("doc", [{"A": 5, "b": [1]}, {"A": [1], "b": [1]}, {"A": [[1]], "b": 1}])
def test_exit_2_malformed_shapes(tmp_path, capsys, doc):
    code, _, err = run(capsys, "volume", write(tmp_path, "x.json", doc))
    assert code == 2
    assert "must be a list" in err


def usage_error(capsys, *argv):
    """Exit code and stderr of a command line that argparse refuses,
    which prints nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert out == ""
    return exc.value.code, err


def test_exit_2_negative_digits(capsys):
    code, err = usage_error(capsys, "volume", str(INSTANCES / "paper-example.json"),
                            "--digits", "-2", "--method", "transform")
    assert code == 2
    assert "--digits: must be at least 0, got -2" in err


@pytest.fixture
def int_str_limit_4300():
    """CPython's default int-to-str limit, whatever the environment set."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_exit_2_digits_above_int_str_limit(capsys, int_str_limit_4300):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"),
                       "--digits", "4300", "--method", "transform")
    assert code == 0
    assert len(out.splitlines()[0].split("(0.")[1].rstrip(")")) == 4300
    code, err = usage_error(capsys, "volume", str(INSTANCES / "paper-example.json"),
                            "--digits", "4301", "--method", "transform")
    assert code == 2
    assert "--digits: must be at most 4300" in err
    assert "got 4301" in err


def test_parser_built_once(monkeypatch, capsys):
    cli._parser.cache_clear()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for _ in range(3):
        assert run(capsys, "volume", str(INSTANCES / "paper-example.json"))[0] == 0
    assert len(built) == 1
    cli._parser.cache_clear()


def test_digits_cap_read_when_parsed(capsys, int_str_limit_4300):
    path = str(INSTANCES / "paper-example.json")
    assert run(capsys, "volume", path, "--digits", "4300")[0] == 0  # parser built
    sys.set_int_max_str_digits(1000)
    code, err = usage_error(capsys, "volume", path, "--digits", "1001")
    assert code == 2
    assert "--digits: must be at most 1000, got 1001" in err
    assert run(capsys, "volume", path, "--digits", "1000")[0] == 0


def test_volume_beyond_int_str_limit_renders_exactly(tmp_path, capsys, int_str_limit_4300):
    # vol{x >= 0, x1 + .. + x5 <= 10^1000} = 10^5000 / 5!: its numerator
    # has 4998 digits, more than the interpreter renders by default
    path = write(tmp_path, "huge.json", {"A": [["1"] * 5], "b": ["1" + "0" * 1000]})
    code, out, err = run(capsys, "volume", path, "--digits", "2", "--stats")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == 4300  # the cap is back
    sys.set_int_max_str_digits(0)
    volume = Fraction(10 ** 5000, 120)
    lines = out.splitlines()
    assert lines[0] == f"{volume} ({cli.decimal_string(volume, 2)})"
    assert lines[1] == "methods agree: direct == transform (exact)"
    assert lines[-1] == f"stats: transform C={volume * 120}"


_REPEATED_POLE = ("; coincident denominator factors before the final level. A tiny random "
                  "perturbation of A removes the coincidence at the price of an approximate "
                  "volume.\n")


def test_coincident_message_beyond_int_str_limit(tmp_path, capsys, int_str_limit_4300):
    # the first two columns are equal, (1, 7..7) over b = (1, 1/3..3): a
    # pole of order 2 at l1 = -(7..7 * 3..3)*l2, 6000 digits in the direct
    # refusal message; the transform meets no repeated pole
    A, b = [[1, 1, 5], ["7" * 3000, "7" * 3000, 1]], [1, "1/" + "3" * 3000]
    path = write(tmp_path, "wide.json", {"A": A, "b": b})
    errors = []
    for method in ("direct", "both"):
        code, out, err = run(capsys, "volume", path, "--method", method)
        assert code == 6 and out == ""
        errors.append(err)
    code, out, err = run(capsys, "volume", path, "--method", "transform", "--digits", "0")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == 4300  # the cap is back
    sys.set_int_max_str_digits(0)
    root = int("7" * 3000) * int("3" * 3000)
    assert errors == [f"error: pole of order 2 at l1 = -{root}*l2{_REPEATED_POLE}"] * 2
    assert Fraction(out.split()[0]) == facet_volume(A, b)


def test_check_only_witness_beyond_int_str_limit(tmp_path, capsys, int_str_limit_4300):
    A, b = [["1/" + "7" * 3000, 1], [1, 2]], ["3" * 3000, 1]
    path = write(tmp_path, "wide.json", {"A": A, "b": b})
    code, out, err = run(capsys, "volume", path, "--check-only")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == 4300
    sys.set_int_max_str_digits(0)
    c, u = polytope.certify(polytope.scale_and_dedupe(cli.make_instance(A, b))[0])
    assert out.splitlines()[1:] == [f"compact: true witness={cli._fmt_vec(u)}",
                                    f"pointed: true witness={cli._fmt_vec(c)}",
                                    "valid: true"]
    assert re.search(r"\d{4301}", out)


@pytest.mark.parametrize("entry", ["9" * 4301, '"1/' + "3" * 4301 + '"'])
def test_exit_2_number_beyond_int_str_limit(tmp_path, capsys, int_str_limit_4300, entry):
    # the parse keeps the cap: an over-long JSON int or "p/q" string is refused
    path = tmp_path / "long.json"
    path.write_text('{"A": [[' + entry + ', 1]], "b": [1]}')
    code, out, err = run(capsys, "volume", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    # one short line that names the cap, not the interpreter's advice
    assert err.count("\n") == 1 and len(err) < len(str(path)) + 120, err
    assert "number too long: more than 4300 digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("options", [[], ["--tolerate-floats"]])
def test_exit_2_float_literal_quoted_short(tmp_path, capsys, options):
    # a long JSON float literal is quoted cut to 40 characters, as a string is
    path = tmp_path / "long.json"
    path.write_text('{"A": [[0.' + "1" * 5000 + ', 1]], "b": [1]}')
    code, out, err = run(capsys, "volume", str(path), *options)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < len(str(path)) + 120, err
    assert repr("0." + "1" * 38) + "..." in err


def test_exit_2_non_number_entry_quoted_short(tmp_path, capsys):
    # an entry that is neither a number nor a string is quoted by its
    # repr, cut to 40 characters as a refused text is
    path = tmp_path / "list.json"
    path.write_text(json.dumps({"A": [[list(range(3000)), 1]], "b": [1]}))
    code, out, err = run(capsys, "volume", str(path))
    shown = repr(list(range(3000)))[:40]
    assert (code, out, err) == (2, "", f"error: not a rational: {shown}...\n")
    path.write_text('{"A": [[true, null]], "b": [1]}')
    assert run(capsys, "volume", str(path))[2] == "error: not a rational: True\n"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("options", [[], ["--tolerate-floats"]])
def test_exit_2_not_a_number(tmp_path, capsys, constant, options):
    # no exact value exists, so --tolerate-floats is no remedy and not advised
    path = tmp_path / "nan.json"
    path.write_text('{"A": [[%s, 1]], "b": [1]}' % constant)
    code, out, err = run(capsys, "volume", str(path), *options)
    assert (code, out, err) == (2, "", f"error: not a number: {constant!r}\n")


def readme_exit_codes():
    table = (REPO / "README.md").read_text().split("### Exit codes", 1)[1].split("\n\n")[1]
    return {int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.M)}


_entries = st.one_of(
    st.integers(-4, 6),
    st.sampled_from(["1/2", "-3/4", "0", "2", "1/0", "x", "", " 5 ", "1.5", "2e1", "."]),
    st.floats(-4, 6),
    st.sampled_from([float("nan"), float("inf")]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_rows = st.lists(st.lists(_entries, max_size=4), max_size=4)


@st.composite
def _instances(draw):
    """Well-formed documents, so that the gates and the engine run too."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    value = st.one_of(st.integers(-3, 6), st.sampled_from(["1/2", "-3/4", "5/3", "0"]))
    A = [[draw(value) for _ in range(n)] for _ in range(m)]
    b = [draw(st.one_of(st.integers(-1, 4), st.just("1/2"))) for _ in range(m)]
    return {"A": A, "b": b}


_docs = st.one_of(
    _instances(),
    _instances(),
    _instances(),
    st.one_of(
        st.fixed_dictionaries({"A": _rows, "b": st.lists(_entries, max_size=4)}),
        st.fixed_dictionaries({"A": _entries, "b": _entries}),
        st.dictionaries(st.text(max_size=2), _entries, max_size=2),
        st.lists(_entries, max_size=2),
        _entries,
    ),
)
_options = st.lists(st.sampled_from([
    ["--method", "direct"], ["--method", "transform"], ["--stats"], ["--check-only"],
    ["--tolerate-floats"], ["--digits", "0"], ["--verify-mc", "--samples", "50"],
]), max_size=3)
_bad_option = st.sampled_from([[]] * 8 + [["--digits", "-1"], ["--samples", "0"]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_docs, raw=st.one_of(st.none(), st.none(), st.none(), st.text(max_size=12)),
       options=_options, bad=_bad_option)
def test_fuzz_every_exit_code_is_documented(doc, raw, options, bad):
    codes = readme_exit_codes()
    assert codes == {0, 2, 3, 4, 5, 6, 7}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(raw if raw is not None else json.dumps(doc))
        argv = ["volume", str(path)] + [arg for option in options for arg in option] + bad
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in codes


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_exit_2_samples_below_one(capsys, samples):
    code, err = usage_error(capsys, "volume", str(INSTANCES / "paper-example.json"),
                            "--verify-mc", "--samples", samples)
    assert code == 2
    assert f"--samples: must be at least 1, got {samples}" in err


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_exit_2_seed_below_zero(capsys, seed):
    # refused as usage, before the volume is computed
    code, err = usage_error(capsys, "volume", str(INSTANCES / "paper-example.json"),
                            "--verify-mc", "--seed", seed)
    assert code == 2
    assert f"--seed: must be at least 0, got {seed}" in err


def test_exit_2_float_literal(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"A": [["0.1", "1"]], "b": ["1"]})
    code, _, err = run(capsys, "volume", path)
    assert code == 2
    assert "exact" in err


def test_tolerate_floats_converts_exactly(tmp_path, capsys):
    doc = {"A": [[0.5, "1"], ["1", "3"]], "b": ["1", "1"]}
    path = write(tmp_path, "f.json", doc)
    code, out, err = run(capsys, "volume", path, "--tolerate-floats", "--method", "direct")
    assert code == 0
    assert "warning" in err
    # 0.5 became exactly 1/2; the first row is then redundant and the body
    # is the triangle {x >= 0, x1 + 3 x2 <= 1} of area 1/6
    assert out.splitlines()[0].split()[0] == "1/6"


@pytest.mark.parametrize("literal", ["1e999999999", "-2.5E+1000", "1." + "0" * 100 + "1"])
def test_tolerate_floats_refuses_long_decimals(tmp_path, capsys, literal):
    # refused on the text, before Fraction could build a huge integer
    as_string = {"A": [[literal, "1"]], "b": ["1"]}
    path = write(tmp_path, "s.json", as_string)
    code, _, err = run(capsys, "volume", path, "--tolerate-floats")
    assert code == 2 and "too long" in err
    as_float = tmp_path / "f.json"
    as_float.write_text('{"A": [[%s, 1]], "b": [1]}' % literal)
    code, _, err = run(capsys, "volume", str(as_float), "--tolerate-floats")
    assert code == 2 and "too long" in err


def test_tolerate_floats_accepts_bounded_decimals(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"A": [[2.5e-1, "0.5e1"]], "b": ["1e2"]}')
    code, out, err = run(capsys, "volume", str(path), "--tolerate-floats")
    # one warning text for a JSON number and a string: the literal and its value
    assert code == 0 and err == (
        "warning: converting decimal literal '2.5e-1' to 1/4 exactly\n"
        "warning: converting decimal literal '0.5e1' to 5 exactly\n"
        "warning: converting decimal literal '1e2' to 100 exactly\n")
    # {x >= 0, x1/4 + 5 x2 <= 100}: a triangle with legs 400 and 20
    assert out.splitlines()[0].split()[0] == "4000"


def test_exit_3_nonpositive_b(tmp_path, capsys):
    path = write(tmp_path, "b0.json", {"A": [["1", "1"]], "b": ["0"]})
    code, _, err = run(capsys, "volume", path)
    assert code == 3


def test_exit_4_unbounded(capsys):
    code, _, err = run(capsys, "volume", str(INSTANCES / "unbounded.json"))
    assert code == 4
    assert "unbounded" in err


def test_exit_5_nonpointed_check_only(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "nonpointed.json"), "--check-only")
    assert code == 5
    assert "compact: false" in out
    assert "pointed: false" in out
    assert "valid: false" in out


def test_exit_6_degenerate_box(tmp_path, capsys):
    # each variable factor meets its column factor: the first level
    # collects a pole of order 2
    path = write(tmp_path, "box.json", {"A": [["1", "0"], ["0", "1"]], "b": ["1", "1"]})
    code, out, err = run(capsys, "volume", path)
    assert (code, out, err) == (6, "", "error: pole of order 2 at l1 = 0" + _REPEATED_POLE)


@pytest.mark.parametrize("method,message", [
    ("direct", "error: pole of order 2 at l2 = -1/2*l1"),
    ("transform", "error: pole of order 2 at l2 = -p"),
], ids=["direct", "transform"])
def test_exit_6_coincident_columns_message(tmp_path, capsys, method, message):
    # the first two columns are equal: one column factor of multiplicity
    # 2, which the first level collects as a pole of order 2
    path = write(tmp_path, "dup.json", {"A": [[1, 1, 2], [2, 2, -1]], "b": [1, 1]})
    code, out, err = run(capsys, "volume", path, "--method", method)
    assert (code, out, err) == (6, "", message + _REPEATED_POLE)


def test_check_only_valid_instance(capsys):
    code, out, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"), "--check-only")
    assert code == 0
    assert "compact: true" in out
    assert "pointed: true" in out
    assert "valid: true" in out
    # the printed compactness witness has u >= 0 and A'u >= 1
    line = next(l for l in out.splitlines() if l.startswith("compact:"))
    u = [Fraction(v) for v in line.split("witness=(")[1].rstrip(")").split(", ")]
    rows = [[1, 1], [-2, 2], [2, -1]]
    assert all(v >= 0 for v in u)
    assert all(sum(rows[i][j] * u[i] for i in range(3)) >= 1 for j in range(2))


def paths_with_lp_counts(tmp_path):
    """The paper example, whose seed is the margin LP's closed form (no
    LP solved), and an instance whose seed takes one LP: the relaxation,
    whose optimum is not unique."""
    return [(str(INSTANCES / "paper-example.json"), 0),
            (write(tmp_path, "lp.json", {"A": LP_SOLVED_ROWS, "b": [1, 1, 1]}), 1)]


def margin_lp_seed(path):
    """The integer-scaled dense Bland vertex of the instance's margin LP."""
    return dense_seed(polytope.scale_and_dedupe(cli.load_instance(path))[0])


def test_check_only_solves_one_lp(seed_calls, lp_calls, capsys, tmp_path):
    for path, lp_solved in paths_with_lp_counts(tmp_path):
        seed_calls.clear()
        lp_calls.clear()
        code, out, _ = run(capsys, "volume", path, "--check-only")
        assert code == 0 and len(seed_calls) == 1 and len(lp_calls) == lp_solved
        assert f"pointed: true witness={cli._fmt_vec(margin_lp_seed(path))}" in out.splitlines()


def test_verify_mc_solves_one_lp(seed_calls, lp_calls, capsys, tmp_path):
    # the Monte Carlo box takes the seed normalize already has, and one
    # bounding LP per coordinate
    for path, lp_solved in paths_with_lp_counts(tmp_path):
        seed_calls.clear()
        lp_calls.clear()
        code, out, _ = run(capsys, "volume", path, "--verify-mc", "--samples", "1000")
        assert code == 0 and len(seed_calls) == 1 and len(lp_calls) == lp_solved + 2
        inst = cli.load_instance(path)
        assert normalize(inst).interior == margin_lp_seed(path)
        est = mc_volume(inst, 1000, 0)
        assert mc_volume(inst, 1000, 0, normalize(inst)) == est  # bit for bit
        mc_line = next(l for l in out.splitlines() if l.startswith("mc:"))
        assert mc_line.startswith(f"mc: estimate={est.estimate:.6f} stderr={est.stderr:.6f} ")


@pytest.mark.parametrize("doc,extra", [
    ({"A": [["1"] * 5], "b": ["1" + "0" * 400]}, []),            # sides beyond the float range
    ({"A": [["1" + "0" * 400] * 5], "b": ["1"]}, ["--digits", "2"]),  # entries of A beyond it
])
def test_verify_mc_refuses_a_body_beyond_the_float_range(tmp_path, capsys, doc, extra):
    path = write(tmp_path, "huge.json", doc)
    code, out, err = run(capsys, "volume", path, "--verify-mc", "--samples", "10", *extra)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --verify-mc: "), err


def test_verify_mc_samples_a_body_whose_extent_fits_a_float(tmp_path, capsys):
    # x1 <= x2 + 10^-300 and x1 + x2 <= 10^10: the margin-LP seed bounds x2
    # by a side of 311 digits, the exact bounding box by 10^10
    big = 10 ** 300
    path = write(tmp_path, "steep.json", {"A": [[str(big), str(-big)], [1, 1]], "b": [1, 10 ** 10]})
    code, out, err = run(capsys, "volume", path, "--verify-mc", "--samples", "20000", "--seed", "1")
    assert code == 0 and err == ""
    volume = Fraction(out.split()[0])
    assert abs(volume - Fraction(10 ** 20, 4)) < 1
    mc = re.search(r"^mc: estimate=(\S+) stderr=(\S+) z=(\S+) samples=20000 seed=1$", out, re.M)
    estimate, stderr, z = map(float, mc.groups())
    assert 0 < stderr < 1e-2 * estimate and abs(z) <= 3
    assert abs(estimate - float(volume)) <= 3 * stderr


def test_integer_columns_computed_once(monkeypatch, seed_calls, lp_calls, capsys, tmp_path):
    # the columns are built by one pass of the column step, and the seed
    # is found once
    calls = []
    real = polytope._columns
    monkeypatch.setattr(polytope, "_columns", lambda rows: calls.append(rows) or real(rows))
    for path, lp_solved in paths_with_lp_counts(tmp_path):
        calls.clear()
        seed_calls.clear()
        lp_calls.clear()
        code, _, _ = run(capsys, "volume", path, "--stats", "--verify-mc", "--samples", "100")
        assert code == 0 and len(calls) == 1 and len(seed_calls) == 1
        assert len(lp_calls) == lp_solved + 2  # and one bounding LP per coordinate
        assert normalize(cli.load_instance(path)).interior == margin_lp_seed(path)


def test_exit_7_method_disagreement(monkeypatch, capsys):
    real = cli.run_transform

    def off_by_one(norm):
        run_ = real(norm)
        return run_._replace(result=run_.result + 1)

    monkeypatch.setattr(cli, "run_transform", off_by_one)
    code, out, err = run(capsys, "volume", str(INSTANCES / "paper-example.json"))
    assert code == 7 and out == ""
    assert "direct=17/48" in err and "transform=65/48" in err


IMPORT_CHECK = """\
import sys
sys.path.insert(0, {src!r})
import lapvol.cli
print(sorted(m for m in ("numpy", "dataclasses", "inspect", "lapvol.oracle") if m in sys.modules))
names = {{}}
exec("from lapvol import *", names)
import lapvol
print([n for n in lapvol.__all__ if n not in names], len(lapvol.__all__))
print(lapvol.known_instance("paper-example")[1])
"""


def test_cli_import_loads_only_what_volume_needs():
    # numpy is needed only by the Monte Carlo estimator, the oracle only by
    # --gen and --verify-mc, and both load on first use; dataclasses (and
    # with it inspect) is not used.  A fresh interpreter, because pytest
    # itself loads dataclasses.
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK.format(src=str(REPO / "src"))],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[] 32", "17/48"]


# -- generators ---------------------------------------------------------------


def test_gen_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "--gen", "simplex:4")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "volume", str(path))
    assert code == 0
    assert out2.splitlines()[0].split()[0] == "1/24"


def test_gen_paper_example_matches_fixture(capsys):
    code, out, _ = run(capsys, "--gen", "paper-example")
    assert code == 0
    assert json.loads(out) == json.loads((INSTANCES / "paper-example.json").read_text())


def test_gen_box(capsys):
    code, out, _ = run(capsys, "--gen", "box:2")
    assert code == 0
    assert json.loads(out)["A"] == [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("spec", ["simplex:3", "box:3", "box:40", "paper-example"])
def test_gen_writes_the_indented_json_document(capsys, spec):
    # written row by row, the output is byte for byte the json module's
    # indent=2 dump of the document of entry strings, and a newline
    kind, _, n = spec.partition(":")
    inst, _ = known_instance(kind, int(n)) if n else known_instance(kind)
    doc = {"A": [[str(v) for v in row] for row in inst.rows], "b": [str(v) for v in inst.rhs]}
    code, out, err = run(capsys, "--gen", spec)
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("spec", ["dodecahedron:3", "simplex:abc", "box:", "simplex:0",
                                  "box:-2", "simplex: 3", "paper-example:junk", "box:1001",
                                  "simplex:1001", "box:00000",
                                  pytest.param("box:" + "9" * 5000, id="box:9x5000")])
def test_gen_unknown_kind(capsys, spec):
    code, out, err = run(capsys, "--gen", spec)
    assert (code, out) == (2, "")
    assert err == (f"error: invalid generator {spec!r} (expected simplex:N or box:N "
                   "with an integer 1 <= N <= 1000, or paper-example)\n")


def test_gen_size_bound_is_inclusive(capsys):
    # leading zeros are read as before; N = 1000 is the largest size
    code, out, _ = run(capsys, "--gen", "simplex:0001000")
    assert code == 0
    doc = json.loads(out)
    assert doc["A"] == [["1"] * 1000] and doc["b"] == ["1"]


def test_exit_2_deep_nesting(tmp_path, capsys):
    # json's decoder recurses once per level; 100,000 levels exhaust it
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "volume", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: invalid JSON (nested too deeply)\n")


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
