"""lapvol: exact convex-polytope volume from the half-space description.

The volume of {x >= 0, Ax <= b} is recovered by symbolically inverting
the Laplace transform of the volume-as-a-function-of-b, which is a
product of reciprocal linear forms.  Two independent routes are
implemented on exact rational arithmetic: iterated residue integration
of the exponential integrand (direct), and a change of variable that
reduces everything to the coefficient of one pure power (transform).
Both return identical Fractions on every valid instance.
"""
from .errors import (
    DegenerateInstance,
    DivergentSlice,
    EmptyAfterCleanup,
    GenericityViolated,
    InstanceFormatError,
    MalformedH,
    NonpositiveB,
    NotCompact,
    NotPointed,
    VolumeEngineError,
)
from .linforms import P_VAR, rat
from .polytope import (
    NormalizedInstance,
    PolytopeInstance,
    compact_witness,
    find_strict_interior,
    make_instance,
    normalize,
    scale_and_dedupe,
)
from .engine import Run
from .direct import run_direct
from .transform import run_transform

__version__ = "0.1.0"

# the oracle's names load it on first use (PEP 562): `lapvol volume` never needs it
_ORACLE = {"McEstimate", "box_instance", "identity_check", "known_instance", "m2_closed_form",
           "mc_volume", "paper_example", "random_instance", "simplex_instance"}


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DegenerateInstance",
    "DivergentSlice",
    "EmptyAfterCleanup",
    "GenericityViolated",
    "InstanceFormatError",
    "MalformedH",
    "NonpositiveB",
    "NotCompact",
    "NotPointed",
    "VolumeEngineError",
    "P_VAR",
    "rat",
    "NormalizedInstance",
    "PolytopeInstance",
    "compact_witness",
    "find_strict_interior",
    "make_instance",
    "normalize",
    "scale_and_dedupe",
    "Run",
    "run_direct",
    "run_transform",
    "McEstimate",
    "box_instance",
    "identity_check",
    "known_instance",
    "m2_closed_form",
    "mc_volume",
    "paper_example",
    "random_instance",
    "simplex_instance",
    "__version__",
]
