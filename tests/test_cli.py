"""CLI behavior: report lines, exit codes, file format."""
import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lapvol import cli
from lapvol.oracle import mc_volume
from lapvol.polytope import normalize

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
        "stats: method=direct level=2 terms_in=2 poles=6 left=6 right=0 terms_out=3 merged=3",
        "stats: method=direct level=3 terms_in=3 poles=0 left=0 right=0 terms_out=3 merged=0",
        "stats: perturbation var=l3 epsilon=1 delta=1",
    ]


def test_verify_mc_line(capsys):
    code, out, _ = run(
        capsys, "volume", str(INSTANCES / "paper-example.json"),
        "--verify-mc", "--samples", "50000", "--seed", "3",
    )
    assert code == 0
    mc_lines = [l for l in out.splitlines() if l.startswith("mc:")]
    assert len(mc_lines) == 1
    assert "seed=3" in mc_lines[0] and "stderr=" in mc_lines[0]


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
    """Exit code and stderr of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


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


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_exit_2_samples_below_one(capsys, samples):
    code, err = usage_error(capsys, "volume", str(INSTANCES / "paper-example.json"),
                            "--verify-mc", "--samples", samples)
    assert code == 2
    assert f"--samples: must be at least 1, got {samples}" in err


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
    assert code == 0 and "warning" in err
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
    path = write(tmp_path, "box.json", {"A": [["1", "0"], ["0", "1"]], "b": ["1", "1"]})
    code, _, err = run(capsys, "volume", path)
    assert code == 6
    assert "coincident" in err


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


def test_check_only_solves_one_lp(lp_calls, capsys):
    code, _, _ = run(capsys, "volume", str(INSTANCES / "paper-example.json"), "--check-only")
    assert code == 0 and len(lp_calls) == 1


def test_verify_mc_solves_one_lp(lp_calls, capsys):
    # the Monte Carlo box comes from the certificate normalize already has
    path = INSTANCES / "paper-example.json"
    code, out, _ = run(capsys, "volume", str(path), "--verify-mc", "--samples", "1000")
    assert code == 0 and len(lp_calls) == 1
    inst = cli.load_instance(str(path))
    est = mc_volume(inst, 1000, 0)
    assert mc_volume(inst, 1000, 0, normalize(inst)) == est  # bit for bit
    mc_line = next(l for l in out.splitlines() if l.startswith("mc:"))
    assert mc_line.startswith(f"mc: estimate={est.estimate:.6f} stderr={est.stderr:.6f} ")


def test_exit_7_method_disagreement(monkeypatch, capsys):
    real = cli.run_transform

    def off_by_one(norm):
        run_ = real(norm)
        return dataclasses.replace(run_, result=run_.result + 1)

    monkeypatch.setattr(cli, "run_transform", off_by_one)
    code, out, err = run(capsys, "volume", str(INSTANCES / "paper-example.json"))
    assert code == 7 and out == ""
    assert "direct=17/48" in err and "transform=65/48" in err


def test_import_does_not_load_numpy():
    # numpy is needed only by the Monte Carlo estimator, which imports it
    # on first use
    src = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import lapvol.cli; "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


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


def test_gen_unknown_kind(capsys):
    code, _, err = run(capsys, "--gen", "dodecahedron:3")
    assert code == 2


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
