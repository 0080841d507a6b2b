#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `lapvol volume FILE`.

    python3 perfbench/run.py --workload wide|deep|small --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; lapvol is imported from its
`src/`.  One operation is one call of `lapvol volume FILE` made in
process through `lapvol.cli.main` with stdout captured and parsed: one
caller, one thread, a closed loop.  A round draws one fresh instance per
cell of the workload (see gen.py) and runs it with `--method both` (the
default), `--method direct` and `--method transform`.  Round i of a seed
always holds the same instances.

Every operation is timed next to a fixed reference computation, and its
wall time is scaled to the reference host's speed (see hostspeed.py).

--trace 0 runs whole rounds for about S seconds and prints the
end-to-end metrics.  --trace 1 runs a number of rounds fixed by the
workload and S, each round untraced and then traced, prints the
per-layer metrics and writes the spans to
perfbench/out/trace-<workload>-seed<N>.json.  Either way every output is
checked afterwards, against an independent volume too (verify.py); a
call that fails or prints a wrong volume is a failed operation, and a
wrong volume makes the run incorrect.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
import hostspeed
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

METHODS = ("both", "direct", "transform")
AGREE_LINE = "methods agree: direct == transform (exact)"
DIGITS = 12  # the CLI's default --digits
SETUP_CHILDREN = 8  # fresh interpreters per run, spread over the run
# The peak resident set is read after this many rounds (or at the end of
# a run that has fewer), so it covers the same instances however fast
# the host runs.
RSS_ROUNDS = 6
# Rounds of the traced run per second of --seconds.  It runs every round
# twice and its counts must repeat exactly, so its round count depends on
# the workload and --seconds alone, never on the host's speed.
TRACED_ROUNDS_PER_S = {"wide": 0.06, "deep": 0.15, "small": 0.6}

# A fresh interpreter that reports how long `import <module>` took.  It
# is not scaled by the reference: run in a fresh process, the reference
# is slowed by the process's own start-up, and scaling made the import
# times no steadier.
CHILD = """\
import time
t0 = time.perf_counter_ns()
import {module}
print(time.perf_counter_ns() - t0)
"""


@dataclass
class Op:
    """One timed call of `lapvol volume FILE`; ``code`` is 0 or the
    reason it failed."""

    case: gen.Case
    method: str
    wall_ns: int
    ref_ns: float  # reference time around the call
    code: object
    stdout: str

    @property
    def scale(self) -> float:
        return hostspeed.REFERENCE_NS / self.ref_ns

    @property
    def scaled_ms(self) -> float:
        return self.wall_ns * self.scale / 1e6


def call_volume(cli, path: str, method: str):
    """One operation: (wall ns, exit code or crash text, stdout)."""
    argv = ["volume", path] + ([] if method == "both" else ["--method", method])
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not the end of the run
        code = f"{type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - t0
    if code != 0:
        code = f"exit {code}: {err.getvalue().strip()}" if isinstance(code, int) else code
    return ns, code, out.getvalue()


def parse_volume(stdout: str, method: str) -> Fraction:
    """The exact volume printed by the CLI, after checking its decimal
    rendering and, for --method both, the agreement line."""
    lines = stdout.splitlines()
    value, _, decimal = lines[0].partition(" (")
    volume = Fraction(value)
    if abs(Fraction(decimal.rstrip(")")) - volume) > Fraction(1, 2 * 10 ** DIGITS):
        raise ValueError(f"decimal rendering {decimal!r} is not {volume} to {DIGITS} places")
    if method == "both" and lines[1:2] != [AGREE_LINE]:
        raise ValueError(f"missing agreement line in {stdout!r}")
    return volume


def write_instance(path: Path, case: gen.Case) -> str:
    path.write_text(json.dumps({"A": [list(r) for r in case.A], "b": list(case.b)}))
    return str(path)


def run_round(cli, cases, work: Path, ops: list, tracer=None) -> None:
    """Run every method on every case, each call between two timings of
    the reference computation; append one Op per call."""
    ref = hostspeed.reference_ns()
    for i, case in enumerate(cases):
        path = case.path or write_instance(work / f"{i}.json", case)
        for method in METHODS:
            ns, code, stdout = call_volume(cli, path, method)
            after = hostspeed.reference_ns()
            ops.append(Op(case, method, ns, (ref + after) / 2, code, stdout))
            ref = after
            if tracer is not None:
                tracer.end_op(case=case.name, method=method, wall_ns=ns, scale=ops[-1].scale)


def check_ops(ops):
    """Count failed and wrong operations and mark each failed Op by
    setting its ``code``; returns (failed, wrong, volumes of the cases
    whose every operation passed).  Runs outside the timed loop."""
    failed = wrong = 0
    verdicts = {}  # (case, volume) -> reason or None
    by_case = defaultdict(list)
    for op in ops:
        volume = None
        if op.code == 0:
            try:
                volume = parse_volume(op.stdout, op.method)
            except (ValueError, ZeroDivisionError, IndexError) as exc:
                op.code = f"unparsable output: {exc}"
        if volume is not None:
            key = (op.case, volume)
            if key not in verdicts:
                verdicts[key] = verify.check(op.case, volume)
            if verdicts[key] is not None:
                op.code = f"volume {volume}: {verdicts[key]}"
                wrong += 1
        if op.code != 0:
            failed += 1
            print(f"failed: {op.case.name} --method {op.method}: {op.code}", file=sys.stderr)
        by_case[op.case].append(volume if op.code == 0 else None)
    volumes = {c: v[0] for c, v in by_case.items() if None not in v and len(set(v)) == 1}
    wrong += sum(1 for v in by_case.values() if None not in v and len(set(v)) > 1)
    return failed, wrong, volumes


def child_ms(module: str) -> float:
    """Time in ms for a fresh interpreter to import ``module`` from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(module=module)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    return int(proc.stdout) / 1e6


def small_fixtures(cli, work: Path):
    cases = [gen.Case(name, "known", known=vol, path=str(ROOT / "instances" / name))
             for name, vol in gen.SMALL_FILES]
    for n in gen.SMALL_SIMPLICES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(["--gen", f"simplex:{n}"]) != 0:
                raise RuntimeError(f"lapvol --gen simplex:{n} failed")
        path = work / f"simplex{n}.json"
        path.write_text(out.getvalue())
        cases.append(gen.Case(f"simplex:{n}", "known", known=gen.simplex_volume(n), path=str(path)))
    return cases


def peak_rss() -> float:
    """Peak resident set of this process in MB (read before the checks
    load scipy)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def typical_ms(ops, method: str) -> float:
    """Geometric mean of the scaled times of the successful calls.

    Every round holds one instance of each size, and the cost of an
    instance is spread about log-normally around a size's typical cost:
    the mean of the logs weighs each size alike, so a speed-up of x% at
    every size shows as x%, and it moves less with the seed than a median
    pooled over sizes (the middle size's alone) or per size.
    """
    return math.exp(statistics.fmean(
        math.log(op.scaled_ms) for op in ops if op.method == method and op.code == 0))


def end_to_end(cli, args, fixtures, work):
    rng = gen.workload_rng(args.workload, args.seed)
    ops, setup_ms = [], []
    rounds, peak_rss_mb = 0, None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            break  # whole rounds only, ending within --seconds
        while len(setup_ms) < SETUP_CHILDREN and elapsed >= len(setup_ms) * args.seconds / SETUP_CHILDREN:
            setup_ms.append(child_ms("lapvol.cli"))
        run_round(cli, gen.round_cases(args.workload, rng, rounds, fixtures), work, ops)
        rounds += 1
        if rounds == RSS_ROUNDS:
            peak_rss_mb = peak_rss()
    while len(setup_ms) < SETUP_CHILDREN:
        setup_ms.append(child_ms("lapvol.cli"))
    if peak_rss_mb is None:
        peak_rss_mb = peak_rss()
    failed, wrong, _ = check_ops(ops)
    metrics = {
        "volume_ms": metric(typical_ms(ops, "both"), "ms"),
        "direct_ms": metric(typical_ms(ops, "direct"), "ms"),
        "transform_ms": metric(typical_ms(ops, "transform"), "ms"),
        "volumes_per_s": metric((len(ops) - failed) / sum(o.scaled_ms for o in ops) * 1e3, "1/s"),
        "setup_s": metric(statistics.median(setup_ms) / 1e3, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    scales = [o.scale for o in ops]
    raw = {m: statistics.median(o.wall_ns / 1e6 for o in ops if o.method == m) for m in METHODS}
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"instances={len(ops) // len(METHODS)} attempted={len(ops)} failed={failed}")
    print(f"host speed (reference / measured): median {statistics.median(scales):.3f} "
          f"range {min(scales):.3f}-{max(scales):.3f}; unscaled median ms: "
          + " ".join(f"{m}={v:.3f}" for m, v in raw.items()))
    return len(ops), failed, wrong, metrics


def traced(cli, args, fixtures, work):
    tracer = spans.Tracer()
    plain, ops = [], []
    rng = gen.workload_rng(args.workload, args.seed)
    rounds = max(1, round(args.seconds * TRACED_ROUNDS_PER_S[args.workload]))
    for i in range(rounds):
        # each round untraced, then traced: both see the host in about the
        # same state, so the ratio of their times is the tracing overhead
        cases = gen.round_cases(args.workload, rng, i, fixtures)
        run_round(cli, cases, work, plain)
        tracer.install()
        try:
            run_round(cli, cases, work, ops, tracer)
        finally:
            tracer.uninstall()
    failed, wrong, volumes = check_ops(plain + ops)
    plain_ms = sum(o.scaled_ms for o in plain)
    traced_ms = sum(o.scaled_ms for o in ops)
    totals_ms, counts = defaultdict(float), defaultdict(int)
    for rec in tracer.ops:
        for k, v in rec["span_ns"].items():
            totals_ms[k] += v * rec["scale"] / 1e6
        for k, v in rec["counts"].items():
            counts[k] += v
    metrics = {}
    for name in spans.layer_metric_names():
        if name in tracer.missing:
            continue
        if name.endswith("ms"):  # "<span>_ms" or "<span>.ms": mean scaled ms per operation
            metrics[name] = metric(totals_ms[name[:-3]] / len(ops), "ms")
        elif name == "volume.bits":
            bits = [v.numerator.bit_length() + v.denominator.bit_length() for v in volumes.values()]
            metrics[name] = metric(statistics.median(bits) if bits else 0, "bits")
        else:
            metrics[name] = metric(counts[name], "count")
    numpy_ms = statistics.median(child_ms("numpy") for _ in range(5))
    metrics["setup.numpy_import_ms"] = metric(numpy_ms, "ms")
    overhead = 100 * (traced_ms / plain_ms - 1)
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "operations": len(ops), "untraced_ms": plain_ms, "traced_ms": traced_ms,
        "overhead_pct": overhead, "missing": tracer.missing,
        "metrics": metrics, "ops": tracer.ops,
    }, indent=1))
    if tracer.missing:
        print(f"missing per-layer metrics: {', '.join(tracer.missing)}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"attempted={len(plain) + len(ops)} failed={failed} "
          f"trace overhead={overhead:+.1f}% spans={trace_path.relative_to(ROOT)}")
    return len(plain) + len(ops), failed, wrong, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lapvol" / "__init__.py").is_file():
        print(f"error: no lapvol sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lapvol.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported lapvol from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        fixtures = small_fixtures(cli, work) if args.workload == "small" else []
        call_volume(cli, str(ROOT / "instances" / "paper-example.json"), "both")  # warm-up
        run = traced if args.trace else end_to_end
        attempted, failed, wrong, metrics = run(cli, args, fixtures, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
