"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

PAPER_A, PAPER_B = ((1, 1), (-2, 2), (2, -1)), (1, 1, 1)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_known_check_accepts_known_volume_and_rejects_wrong_one():
    case = gen.Case("paper", "known", known=Fraction(17, 48))
    assert verify.check(case, Fraction(17, 48)) is None
    assert verify.check(case, Fraction(17, 48) + Fraction(1, 10 ** 12)) is not None


def test_closed_form_check_accepts_known_volume_and_rejects_wrong_one():
    # {x >= 0, x1 + 2 x2 <= 1, 2 x1 + x2 <= 1}: vertices 0, (1/2, 0),
    # (1/3, 1/3), (0, 1/2), area 1/6
    case = gen.Case("quad", "closed_form", ((1, 2), (2, 1)), (1, 1))
    assert verify.check(case, Fraction(1, 6)) is None
    assert verify.check(case, Fraction(1, 7)) is not None


@pytest.mark.parametrize("A, b, volume", [
    (PAPER_A, PAPER_B, Fraction(17, 48)),
    (((1, 1, 1),), (1,), Fraction(1, 6)),
    (((2, 4), (6, 3)), (2, 3), Fraction(1, 6)),  # the quad above, rows scaled
])
def test_qhull_check_accepts_known_volume_and_rejects_wrong_one(A, b, volume):
    case = gen.Case("q", "qhull", A, b)
    assert verify.check(case, volume) is None
    assert verify.check(case, volume * (1 + Fraction(1, 10 ** 6))) is not None


def test_wrong_volume_counts_as_failed_and_incorrect():
    case = gen.Case("quad", "closed_form", ((1, 2), (2, 1)), (1, 1))
    good = "1/6 (0.166666666667)\n"
    ops = [run.Op(case, "both", 1, 1, 0, good + run.AGREE_LINE + "\n"),
           run.Op(case, "direct", 1, 1, 0, good),
           run.Op(case, "transform", 1, 1, 0, "1/7 (0.142857142857)\n")]
    failed, wrong, volumes = run.check_ops(ops)
    assert (failed, wrong) == (1, 1) and case not in volumes
    assert [op.code == 0 for op in ops] == [True, True, False]


def test_times_are_scaled_to_reference_speed():
    case, ref = gen.Case("a", "known"), hostspeed.REFERENCE_NS
    ops = [run.Op(case, "both", 2_000_000, 2 * ref, 0, ""),  # host at half speed: 1 ms
           run.Op(case, "both", 9_000_000, ref, 0, ""),
           run.Op(case, "both", 1_000_000, ref, "exit 6", ""),  # failed: not timed
           run.Op(case, "direct", 5_000_000, ref, 0, "")]
    assert math.isclose(run.typical_ms(ops, "both"), 3.0)  # geometric mean of 1 and 9


def test_generator_is_seeded_and_generic():
    def draw(seed):
        rng = gen.workload_rng("deep", seed)
        return [gen.round_cases("deep", rng, i, []) for i in range(2)]

    assert draw(1) == draw(1) and draw(1) != draw(2)
    rng = random.Random(0)
    for m, n in [(2, 40), (5, 7), (8, 3)]:
        A, b = gen.generic_instance(rng, m, n)
        assert len(set(A[0])) == n and min(A[0]) > gen.ENTRY_MAX
        assert all(0 < abs(v) <= gen.ENTRY_MAX for row in A[1:] for v in row)
        assert all(1 <= v <= gen.ENTRY_MAX for v in b)


def _run(monkeypatch, *argv):
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    result = _run(monkeypatch, "--workload", "small", "--seed", "1", "--seconds", "0.1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly(monkeypatch):
    argv = ("--workload", "small", "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = _run(monkeypatch, *argv), _run(monkeypatch, *argv)
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = {k for k, m in first["metrics"].items() if m["unit"] in ("count", "bits")}
    assert counts and all(first["metrics"][k] == second["metrics"][k] for k in counts)
    assert first["metrics"]["terms.repairs"]["value"] > 0  # paper-example is repaired


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
