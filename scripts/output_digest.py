#!/usr/bin/env python3
"""Output digest of `lapvol volume`: one line per call, for comparing two
checkouts byte for byte.

Runs `lapvol.cli.main` in process on four sets of inputs:

* the benchmark's draws: perfbench seeds 1-3 at wide 4, deep 6 and
  small 15 rounds (made by perfbench/gen.py, which is only read);
* 400 signed draws `random_instance(rng, m, n, signed=True)` with m 1-5
  and n 1-7 from `random.Random(7)`;
* the committed `instances/*.json`;
* a fixed set of files that the reader refuses or that meet a repeated
  pole (READER_DOCS).

Each input runs under `--stats` with `--method both`, `direct` and
`transform`, and under `--check-only`; the last set also under
`--tolerate-floats`.  Then `lapvol --gen` runs on each of GEN_SPECS,
written as the case `gen`.  A line reads

    CASE FLAGS exit=CODE volume=HEX stats=HEX

with `volume=` the sha256 of stdout without its `stats:` lines followed
by stderr, and `stats=` the sha256 of the `stats:` lines.  A change that
moves only `--stats` counts thus differs only in `stats=`, which shows
that no volume, agreement line or message moved.  Every input is written
to a file of its own name in a scratch directory and passed by that
name, so the lines do not depend on where the checkout lies.  Run it on
two checkouts and diff the outputs: equal files mean the same stdout,
stderr and exit code on every call.

    python scripts/output_digest.py > after.txt
    python scripts/output_digest.py --limit 3   # the first 3 inputs of each set
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)
from lapvol import cli  # noqa: E402
from lapvol.oracle import random_instance  # noqa: E402

PERFBENCH_SEEDS = (1, 2, 3)
PERFBENCH_ROUNDS = {"wide": 4, "deep": 6, "small": 15}
SIGNED_DRAWS = 400
FLAGS = (
    ("--stats",),
    ("--stats", "--method", "direct"),
    ("--stats", "--method", "transform"),
    ("--check-only",),
)
READER_FLAGS = FLAGS + (("--tolerate-floats",),)
READER_DOCS = (
    ("not-rational", '{"A": [["1/2x", 1]], "b": [1]}'),
    ("float-literal", '{"A": [[0.5, 1]], "b": [1]}'),
    ("nan", '{"A": [[NaN, 1]], "b": [1]}'),
    ("ragged-rows", '{"A": [[1, 1], [1]], "b": [1, 1]}'),
    ("b-zero", '{"A": [[1, 1]], "b": [0]}'),
    ("b-negative", '{"A": [[1, 1], [1, 2]], "b": [1, "-1/2"]}'),
    ("zero-rows", '{"A": [[0, 0], [0, 0]], "b": [1, 1]}'),
    ("divide-by-zero", '{"A": [["1/0", 1]], "b": [1]}'),
    ("over-long", '{"A": [[' + "9" * 5000 + ', 1]], "b": [1]}'),
    ("deep-nesting", "[" * 100_000 + "]" * 100_000),
    ("proportional-columns", '{"A": [[1, 1, 2], [2, 2, -1]], "b": [1, 1]}'),
    ("box-2", '{"A": [[1, 0], [0, 1]], "b": [1, 1]}'),
)
GEN_SPECS = ("simplex:3", "box:2", "paper-example", "box:0", "box:1001")


def perfbench_docs():
    """(name, instance document) of the benchmark's random draws."""
    for seed in PERFBENCH_SEEDS:
        for workload, rounds in PERFBENCH_ROUNDS.items():
            rng = gen.workload_rng(workload, seed)
            for index in range(rounds):
                for case in gen.round_cases(workload, rng, index, []):
                    yield (f"{workload}{seed}-{case.name}",
                           {"A": [list(row) for row in case.A], "b": list(case.b)})


def signed_docs():
    rng = random.Random(7)
    for k in range(SIGNED_DRAWS):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 7), signed=True)
        yield (f"signed-{k}", {"A": [[str(v) for v in row] for row in inst.rows],
                               "b": [str(v) for v in inst.rhs]})


def fixture_docs():
    for path in sorted((ROOT / "instances").glob("*.json")):
        yield path.stem, path.read_text()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def call(argv):
    """(exit code, the sha256 of stdout without its `stats:` lines
    followed by stderr, the sha256 of the `stats:` lines) of one
    in-process CLI call; an exception counts as the code
    ``crash:<type>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"crash:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    lines = out.getvalue().splitlines(keepends=True)
    stats = "".join(line for line in lines if line.startswith("stats:"))
    rest = "".join(line for line in lines if not line.startswith("stats:"))
    return code, sha256(rest + err.getvalue()), sha256(stats)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first N inputs of each set (0: all)")
    args = ap.parse_args()
    sets = ((perfbench_docs(), FLAGS), (signed_docs(), FLAGS), (fixture_docs(), FLAGS),
            (READER_DOCS, READER_FLAGS))
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for docs, flag_sets in sets:
            for k, (name, doc) in enumerate(docs):
                if args.limit and k >= args.limit:
                    break
                path = f"{name}.json"
                Path(path).write_text(doc if isinstance(doc, str) else json.dumps(doc))
                for flags in flag_sets:
                    code, volume, stats = call(["volume", path, *flags])
                    print(f"{name} {' '.join(flags)} exit={code} volume={volume} stats={stats}")
        os.chdir(ROOT)
    for spec in GEN_SPECS[:args.limit or None]:
        code, volume, stats = call(["--gen", spec])
        print(f"gen --gen {spec} exit={code} volume={volume} stats={stats}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
