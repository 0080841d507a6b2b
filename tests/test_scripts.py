"""Smoke tests of the scripts under scripts/: each runs to its summary
on tiny arguments against the package in src/."""
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lapvol as lv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cross_check_runs():
    out = run_script("cross_check.py", "--count", "3", "--mc-samples", "1000")
    assert re.search(r"^3 instances agreed exactly, \d+ draws skipped, ", out, re.M), out
    assert re.search(r"^Monte Carlo outside 3 sigma: \d/3 ", out, re.M), out


def test_cross_check_runs_unsigned():
    out = run_script("cross_check.py", "--count", "3", "--no-signed")
    assert re.search(r"^3 instances agreed exactly, \d+ draws skipped, ", out, re.M), out
    # a nonnegative draw of the same seed is another instance
    assert out.splitlines()[0] != run_script("cross_check.py", "--count", "1").splitlines()[0]


def test_cross_check_exits_1_on_disagreement(monkeypatch, capsys):
    cross_check = load_script("cross_check.py")
    real = lv.run_transform

    def off_by_one(norm):
        run = real(norm)
        return run._replace(result=run.result + 1)

    monkeypatch.setattr(cross_check.lv, "run_transform", off_by_one)
    monkeypatch.setattr(sys, "argv", ["cross_check.py", "--count", "3"])
    assert cross_check.main() == 1
    out, err = capsys.readouterr()
    assert "agreed exactly" not in out
    assert re.match(r"METHOD DISAGREEMENT on A=\[\[.*\]\] b=\[.*\]: direct \S+, transform \S+$",
                    err), err


def assert_usage_error(script, args, message):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == "", proc
    assert proc.stderr.startswith("usage: ") and message in proc.stderr, proc.stderr


def test_cross_check_refuses_bad_arguments():
    for args, message in (
            (["--n-max", "1"], "argument --n-max: must be at least 2, got 1"),
            (["--m", "2", "0"], "argument --m: must be at least 1, got 0"),
            (["--count", "0"], "argument --count: must be at least 1, got 0"),
            (["--count", "-1"], "argument --count: must be at least 1, got -1"),
            (["--mc-samples", "-5"], "argument --mc-samples: must be at least 0, got -5")):
        assert_usage_error("cross_check.py", args, message)


def test_node_census_refuses_bad_arguments():
    for args, message in (
            (["--m", "0"], "argument --m: must be at least 1, got 0"),
            (["--m", "2", "-1"], "argument --m: must be at least 1, got -1"),
            (["--n", "0"], "argument --n: must be at least 1, got 0"),
            (["--trials", "0"], "argument --trials: must be at least 1, got 0")):
        assert_usage_error("node_census.py", args, message)


def test_node_census_runs():
    out = run_script("node_census.py", "--m", "2", "3", "--n", "2", "3", "--trials", "1")
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["m", "n"], out
    cells = [tuple(map(int, line.split()[:2])) for line in lines[1:]]
    assert cells == [(2, 2), (2, 3), (3, 2), (3, 3)], out
    # one level for m = 2, two for m = 3, each within its (n+1)^k bound
    assert "L1:" in lines[1] and "L2:" not in lines[1]
    assert re.search(r"L2:\d+/16 ", lines[4]), out
    # each method's mean time and the volume's bit length, then the levels
    assert re.fullmatch(r" 2 +2 +\d+\.\d ms +\d+\.\d ms +\d+  L1:\d+/3 merged=\d+", lines[1]), out


def test_node_census_runs_shuffled():
    out = run_script("node_census.py", "--make-up", "shuffled", "--m", "3", "--n", "3",
                     "--trials", "2")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].split()[:2] == ["m", "n"], out
    m, n, direct, _, transform, _, bits = lines[1].split()[:7]
    assert (m, n) == ("3", "3") and float(direct) > 0 and float(transform) > 0, out
    assert int(bits) > 20 and "refused=" not in out, out  # coefficients up to 999
    # the cell draws from its own seed, whatever the cells before it
    both = run_script("node_census.py", "--make-up", "shuffled", "--m", "2", "3", "--n", "3",
                      "--trials", "2")
    assert both.splitlines()[2].split()[6:] == lines[1].split()[6:], both


@pytest.mark.parametrize("fault", [lv.DivergentSlice, lv.MalformedH])
@pytest.mark.parametrize("make_up", ["signed", "shuffled"])
def test_node_census_exits_1_on_engine_error(monkeypatch, capsys, fault, make_up):
    # an internal engine error is a defect to report with its draw, not a refusal
    node_census = load_script("node_census.py")

    def failing(norm):
        raise fault("engine fault")

    monkeypatch.setattr(node_census.lv, "run_transform", failing)
    monkeypatch.setattr(sys, "argv", ["node_census.py", "--make-up", make_up, "--m", "2",
                                      "--n", "3", "--trials", "2"])
    with pytest.raises(SystemExit) as exc:
        node_census.main()
    # a SystemExit carrying a message exits with status 1
    assert isinstance(exc.value.code, str), exc.value.code
    assert re.fullmatch(rf"ENGINE ERROR on A=\(\(.*\)\) b=\(.*\): {fault.__name__}: engine fault",
                        exc.value.code), exc.value.code
    assert "refused=" not in capsys.readouterr().out


def test_output_digest_runs():
    out = run_script("output_digest.py", "--limit", "2")
    lines = out.splitlines()
    # two inputs of each set (benchmark draws, signed draws, fixtures: four
    # calls each; reader refusals: five calls each), then two --gen calls
    assert len(lines) == 2 * 3 * 4 + 2 * 5 + 2, out
    pattern = (r"\S+ (--stats|--stats --method (direct|transform)|--check-only) "
               r"exit=\d+ volume=[0-9a-f]{64} stats=[0-9a-f]{64}")
    assert all(re.fullmatch(pattern, line) for line in lines[:24]), out
    assert [line.split()[0] for line in lines[:24:4]] == [
        "wide1-r0-m2n24", "wide1-r0-m2n28", "signed-0", "signed-1", "nonpointed", "paper-example"]
    assert [line.split(" exit=")[0] for line in lines[24:]] == [
        f"{name} {flags}" for name in ("not-rational", "float-literal")
        for flags in ("--stats", "--stats --method direct", "--stats --method transform",
                      "--check-only", "--tolerate-floats")] + [
        "gen --gen simplex:3", "gen --gen box:2"]
    # exact rationals only, unless --tolerate-floats converts the literal
    assert [line.split()[-3] for line in lines[24:36]] == ["exit=2"] * 9 + ["exit=0"] * 3
    # volume= digests stdout without its stats: lines, then stderr;
    # stats= digests the stats: lines
    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    for line, case, argv in (
            (lines[20], "paper-example --stats",
             ["volume", "instances/paper-example.json", "--stats"]),
            (lines[23], "paper-example --check-only",
             ["volume", "instances/paper-example.json", "--check-only"]),
            (lines[-1], "gen --gen box:2", ["--gen", "box:2"])):
        proc = subprocess.run(
            [sys.executable, "-m", "lapvol.cli", *argv],
            capture_output=True, text=True, cwd=SCRIPTS.parent,
            env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")})
        out = proc.stdout.splitlines(keepends=True)
        stats = "".join(x for x in out if x.startswith("stats:"))
        rest = "".join(x for x in out if not x.startswith("stats:"))
        assert line == (f"{case} exit={proc.returncode} volume={sha256(rest + proc.stderr)} "
                        f"stats={sha256(stats)}")
        assert bool(stats) == ("--stats" in argv)