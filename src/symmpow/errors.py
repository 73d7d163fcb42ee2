"""Exception types shared across the package.

Each class carries the CLI exit code it maps to as ``exit_code``, so
raising the right type is part of the external contract.  Exit codes 0
(success) and 1 (a module failed certification) are outcomes, not
exceptions; 7 is the code for any exception outside this hierarchy.
"""


class SymmpowError(Exception):
    """Base class for all package-specific failures."""

    exit_code = 7


class ParseError(SymmpowError):
    """A problem document is malformed or violates the input schema."""

    exit_code = 2


class CapExceeded(SymmpowError):
    """A group, a symmetric power or a field extension passed its ceiling."""

    exit_code = 3


class NotARepresentation(SymmpowError):
    """Generator images do not extend to a homomorphism on the whole group."""

    exit_code = 4


class MeataxeInconclusive(SymmpowError):
    """The randomized irreducibility test exhausted its retry budget."""

    exit_code = 5


class TheoremViolation(SymmpowError):
    """A claim the engine is supposed to certify failed exact verification."""

    exit_code = 6
