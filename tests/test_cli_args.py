"""The command line of `lapvol volume`: the one-pass reader
(`cli._volume_args`) against argparse, and the text of the forms that it
leaves to argparse."""
import contextlib
import importlib.util
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lapvol import cli

from test_cli import REPO, int_str_limit_4300  # noqa: F401  (a fixture)

OPTIONS = tuple(cli._VOLUME_OPTIONS)
FLAGS = tuple(o for o in OPTIONS if "action" in cli._VOLUME_OPTIONS[o])
VALUED = tuple(o for o in OPTIONS if o not in FLAGS)
VALUES = ("direct", "bogus", "0", "12", "4301", "-1", "+3", " 7", "1_0")
TOKENS = (
    ("volume", "", "-", "x.json", "-h", "--help", "--version", "--gen", "--")
    + OPTIONS
    + tuple(o[:-2] for o in OPTIONS)  # abbreviations, which argparse accepts
    + ("--method=direct", "--digits=12", "--samples=4301", "--seed=0", "--stats=1")
    + VALUES
)
# an argv is a run of units, each a flag, a valued option and a value, or
# any one token; about half are `volume`, a file name and options
_options = st.one_of(st.sampled_from(FLAGS).map(lambda t: [t]),
                     st.tuples(st.sampled_from(VALUED), st.sampled_from(VALUES)).map(list))
_units = st.one_of(_options, st.sampled_from(TOKENS).map(lambda t: [t]))
_argvs = st.one_of(
    st.tuples(st.just([]), st.lists(_units, max_size=8)),
    st.tuples(st.sampled_from([["volume", "x.json"], ["volume", ""]]),
              st.lists(_options, max_size=4)),
).map(lambda p: (p[0] + [t for unit in p[1] for t in unit])[:8])


def parsed(argv):
    """argparse's arguments for ``argv``, which it must accept silently."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            args = cli._parser().parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse exits {exc.code} on {argv}: {err.getvalue()}")
    assert out.getvalue() == err.getvalue() == ""
    return vars(args)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(argv=_argvs)
def test_reader_agrees_with_argparse(argv):
    args = cli._volume_args(argv)  # never raises
    if args is not None:
        assert vars(args) == parsed(argv)


def test_reader_takes_its_forms():
    argv = ["volume", "--stats", "--digits", "+3", "x.json", "--seed", " 7", "--method",
            "direct", "--samples", "1_0", "--method", "transform", "--stats"]
    assert vars(cli._volume_args(argv)) == parsed(argv) == {
        "gen": None, "command": "volume", "file": "x.json", "method": "transform",
        "digits": 3, "check_only": False, "verify_mc": False, "samples": 10, "seed": 7,
        "stats": True, "tolerate_floats": False}
    for argv in (["volume"], ["volume", "x.json", "--digits"], ["volume", "x.json", "y.json"],
                 ["x.json", "volume"]):
        assert cli._volume_args(argv) is None


def test_reader_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lapvol", "volume", "x.json", "--check-only"])
    assert vars(cli._volume_args()) == parsed(None)
    monkeypatch.setattr(sys, "argv", ["lapvol", "--gen", "box:2"])
    assert cli._volume_args() is None


class Recorder:
    """A stand-in for `lapvol.cli` that records each argv its main gets."""

    def __init__(self):
        self.argvs = []

    def main(self, argv):
        self.argvs.append(list(argv))
        return 0


def accepts_volume_argvs(argvs):
    volume = [argv for argv in argvs if argv[0] == "volume"]
    assert volume
    for argv in volume:
        args = cli._volume_args(argv)
        assert args is not None, argv
        assert vars(args) == parsed(argv)


def test_reader_takes_what_perfbench_sends(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import run
    recorder = Recorder()
    for method in run.METHODS:
        run.call_volume(recorder, "work/r0-m2n3.json", method)
    accepts_volume_argvs(recorder.argvs)


def test_reader_takes_what_output_digest_sends(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  REPO / "scripts" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec.loader.exec_module(digest)
    recorder = Recorder()
    monkeypatch.setattr(digest, "cli", recorder)
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--limit", "1"])
    monkeypatch.chdir(REPO)  # the script moves to a scratch directory and back
    assert digest.main() == 0
    capsys.readouterr()
    flag_sets = {tuple(argv[2:]) for argv in recorder.argvs if argv[0] == "volume"}
    assert flag_sets == set(digest.READER_FLAGS)
    accepts_volume_argvs(recorder.argvs)


# -- the text of the forms that argparse reads --------------------------------

F = "instances/paper-example.json"
DIRECT = "17/48 (0.354166666667)\n"
BOTH = DIRECT + "methods agree: direct == transform (exact)\n"
VOLUME_USAGE = (
    "usage: lapvol volume [-h] [--method {direct,transform,both}] [--digits DIGITS]\n"
    "                     [--check-only] [--verify-mc] [--samples SAMPLES]\n"
    "                     [--seed SEED] [--stats] [--tolerate-floats]\n"
    "                     file\n"
)
TOP_USAGE = "usage: lapvol [-h] [--version] [--gen KIND] {volume} ...\n"
VOLUME_HELP = VOLUME_USAGE + """
positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --method {direct,transform,both}
  --digits DIGITS       decimal digits to render (default 12)
  --check-only          run the validation gates and report flags/witnesses
                        only
  --verify-mc           append a Monte Carlo cross-check line
  --samples SAMPLES
  --seed SEED
  --stats               print per-level node counts and the perturbation
                        ledger
  --tolerate-floats     convert decimal literals to exact rationals with a
                        warning
"""
BOX_2 = '{\n  "A": [\n    [\n      "1",\n      "0"\n    ],\n    [\n      "0",\n      "1"\n    ]\n  ],' \
        '\n  "b": [\n    "1",\n    "1"\n  ]\n}\n'

# (argv, taken by the reader, exit code, stdout, stderr), as written
# before the reader existed, with COLUMNS=80 and the int-to-str cap 4300
PINNED = [
    ((F, "--method=direct"), False, 0, DIRECT, ""),
    ((F, "--meth", "direct"), False, 0, DIRECT, ""),
    ((F, "--method"), False, 2, "",
     VOLUME_USAGE + "lapvol volume: error: argument --method: expected one argument\n"),
    ((F, "--method", "bogus"), False, 2, "",
     VOLUME_USAGE + "lapvol volume: error: argument --method: invalid choice: 'bogus' "
                    "(choose from 'direct', 'transform', 'both')\n"),
    ((F, "--digits", "-1"), False, 2, "",
     VOLUME_USAGE + "lapvol volume: error: argument --digits: must be at least 0, got -1\n"),
    ((F, "--digits", "4301"), False, 2, "",
     VOLUME_USAGE + "lapvol volume: error: argument --digits: must be at most 4300, got 4301\n"),
    (("-h",), False, 0, VOLUME_HELP, ""),
    ((F, "--version"), False, 2, "",
     TOP_USAGE + "lapvol: error: unrecognized arguments: --version\n"),
    (("--", F), False, 0, BOTH, ""),
    (("-",), False, 2, "", "error: cannot read -: [Errno 2] No such file or directory: '-'\n"),
    ((F, "G"), False, 2, "", TOP_USAGE + "lapvol: error: unrecognized arguments: G\n"),
    ((F, "--method", "direct", "--method", "transform"), True, 0, DIRECT, ""),
]


CASES = [(("volume",) + argv, *rest) for argv, *rest in PINNED] + [
    (("--gen", "box:2", "volume", F), False, 0, BOX_2, "")]


@pytest.mark.parametrize("argv,read,code,out,err", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_pinned_command_line_text(monkeypatch, capsys, int_str_limit_4300,
                                  argv, read, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(REPO)
    assert (cli._volume_args(list(argv)) is not None) == read
    try:
        got = cli.main(list(argv))
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)
