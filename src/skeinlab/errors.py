"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so the command line
layer can report failures uniformly (and tests can match on codes rather
than message text).
"""

from __future__ import annotations


class SkeinError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_SKEIN"

    def __init__(self, message: str = ""):
        super().__init__(f"{self.code}: {message}" if message else self.code)


class ZeroDenominatorError(SkeinError):
    """Construction of a rational function with zero denominator."""

    code = "E_DIV_ZERO"


class PoleError(SkeinError):
    """Evaluation of a rational function at a zero of its denominator."""

    code = "E_POLE"


class ArcCountError(SkeinError):
    """An arc label does not occur exactly twice in a diagram."""

    code = "E_ARC_COUNT"


class NotPlanarError(SkeinError):
    """The rotation system of a diagram has positive genus."""

    code = "E_NOT_PLANAR"


class DiagramTooLargeError(SkeinError):
    """Input above a work cap: the state sum's crossing cap, the free-loop
    cap ``FREE_LOOP_CAP`` or the projector cap ``JW_CAP`` on a color."""

    code = "E_TOO_LARGE"


class SliceWidthError(SkeinError):
    """Sweep order whose predicted cost is above ``SWEEP_MAX_COST``."""

    code = "E_WIDTH"


class ArityError(SkeinError):
    """Mismatched counts: a tangle composition whose boundary point counts
    differ, or a coloring with the wrong number of colors."""

    code = "E_ARITY"


class ColorRangeError(SkeinError):
    """A color outside the admissible range for the working level."""

    code = "E_COLOR_RANGE"


class NonzeroSignatureError(SkeinError):
    """Surgery presentation whose linking matrix has nonzero signature."""

    code = "E_SIGMA_NONZERO"


class OddEtaPowerError(SkeinError):
    """Exact-mode invariant requested where an odd power of eta remains."""

    code = "E_ETA_ODD_POWER"


class FramingError(SkeinError):
    """Surgery component with nonzero blackboard self-writhe."""

    code = "E_FRAMING"


class SameParameterError(SkeinError):
    """Independence certificate requested for two equal levels."""

    code = "E_SAME_D"


class SchemaError(SkeinError):
    """Link JSON that does not follow the link file schema."""

    code = "E_SCHEMA"


class BranchCutError(SkeinError):
    """Moebius evaluation on the closed negative real axis."""

    code = "E_BRANCH_CUT"
