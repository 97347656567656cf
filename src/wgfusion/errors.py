"""Typed errors shared by all modules.

Exit-code mapping used by the CLI: input/validation errors -> 2,
verification failures -> 1, numerical aborts -> 3.
"""


class WgfError(Exception):
    """Base class for all library errors."""


class InputError(WgfError):
    """Invalid user input (CLI exit code 2)."""


class CapExceededError(InputError):
    """Qubit count above the dense-statevector cap."""


class IndexClashError(InputError):
    """Qubit index collision or out of range."""


class NonUnitaryGateError(InputError):
    """A gate given to apply_local is not a 2x2 unitary (or a stack of them)."""


class InvalidUnitaryError(InputError):
    """ModeUnitary fails U U+ = I."""


class InvalidGraphError(InputError):
    """WeightedGraph invariant violated."""


class InvalidContextError(InputError):
    """FusionContext shapes violated, or a context given to the closed form
    breaks its premise <f1|f2> = 0."""


class ShapeMismatchError(InputError):
    """States with different register sizes compared."""


class NotEndpointError(InputError):
    """Fusion endpoint is not a degree-1 chain vertex."""


class WeightsNotEligibleError(InputError):
    """Chain weights satisfy neither eligibility case for an X-like projection."""


class NoLogicalPairError(InputError):
    """Requested logical pair is not registered on the chain."""


class NotAchievableError(InputError):
    """Target weight outside the achievable range."""


class DegenerateGramError(InputError):
    """|z| too close to 1; the gram matrix is singular."""


class DegenerateArgumentError(InputError):
    """A weight-formula argument has vanishing magnitude."""


class BadSeedError(InputError):
    """Seed matrix is not (1/sqrt2)-unitary."""


class ZeroOutcomeError(WgfError):
    """Projection probability below the zero cutoff."""


class ConvergenceFailureError(WgfError):
    """Root finder failed to converge; carries the bracket used."""


class NumericalAbortError(WgfError):
    """Analytic formula and dense oracle disagree (CLI exit code 3)."""
