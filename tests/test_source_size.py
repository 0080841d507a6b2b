"""Size guards on the package's own source files."""
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lapvol"

# CPython's compiler allocates noticeably more memory for a module past
# this many tokens (about 0.25 MB more peak to compile one), and the
# package is compiled on every uncached start.
MAX_TOKENS = 4096


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_token_limit(path):
    with open(path, "rb") as fh:
        count = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert count < MAX_TOKENS, f"{path.name} has {count} tokens"
