"""Exception taxonomy shared by the whole engine.

Each class maps to one rejection reason; the CLI translates them to
stable exit codes (see ``lapvol.cli``).
"""


class VolumeEngineError(Exception):
    """Base class for every error raised by lapvol."""


class InstanceFormatError(VolumeEngineError):
    """The instance file (or generated payload) is malformed."""


class NonpositiveB(VolumeEngineError):
    """Some right-hand side entry is <= 0; the b > 0 normalization step
    does not apply and the instance is outside the method's scope."""


class EmptyAfterCleanup(VolumeEngineError):
    """Every constraint row was vacuous; no nontrivial constraint left."""


class NotCompact(VolumeEngineError):
    """The polytope is unbounded: no u >= 0 with A'u >= 1 exists."""


class NotPointed(VolumeEngineError):
    """{x >= 0, Ax <= 0} has a nonzero solution, so no strictly feasible
    contour seed c > 0 with A'c > 0 exists and the inversion integral
    is not defined."""


class DegenerateInstance(VolumeEngineError):
    """The data produce a repeated pole (order > 1) before the final
    integration level.  Happens with probability zero for random data;
    the standard workaround is a tiny random perturbation of A (the
    result is then approximate)."""


class DivergentSlice(VolumeEngineError):
    """A one-variable slice has denominator degree <= 1 and no
    exponential decay, so neither half-plane closure is justified."""


class MalformedH(VolumeEngineError):
    """Internal consistency failure: the last level did not come out as
    constants over pure powers of one variable (for the associated
    transform, C / p^(n+1)).  Always an engine bug, never a property of
    the input."""


class NoAdmissiblePerturbation(VolumeEngineError):
    """The on-line perturbation tried every shift of an integration path
    down to 2^-511 and none kept the method's strict domain, moved the
    path off its level's poles and kept every earlier pole on its side.
    Small enough shifts always satisfy those strict inequalities, so
    this is an engine failure, never a property of the input."""


class GenericityViolated(VolumeEngineError):
    """Closed-form oracle preconditions (nonzero entries, distinct
    ratios, ...) do not hold for the supplied data."""


class NotAPoleInVar(VolumeEngineError):
    """Asked to solve a linear factor for a variable it does not
    contain."""
