"""Exception types shared across the package, and the enumeration caps
that CapExceeded and NotFinite enforce."""

# elements one enumeration may reach before CapExceeded
DEFAULT_CAP = 10**6

# finiteness probes stop here by default: proving a monoid finite means
# exhausting it, which is pointlessly slow when the caller only wants an
# evidence-mode fallback
PROBE_CAP = 4096


class SemigeomError(Exception):
    """Base class for all package-specific errors."""


class UnknownSymbol(SemigeomError):
    """A word uses a symbol outside the declared alphabet."""


class BackendMismatch(SemigeomError):
    """Elements of different monoid backends were mixed in one operation."""


class CapExceeded(SemigeomError):
    """An enumeration grew past the configured element cap."""

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or "enumeration exceeded cap of %d elements" % cap)


class NotFinite(SemigeomError):
    """An operation that needs a finite monoid hit the enumeration cap."""


class ProvedInfinite(NotFinite):
    """An operation that needs a finite monoid got one proved infinite."""


class NotAnHClass(SemigeomError):
    """The supplied element set is not an H-class of the monoid."""


class NotACongruence(SemigeomError):
    """The supplied partition is not compatible with multiplication.

    The witness is a tuple (x, y, x2, y2) of element indices: x ~ x2 and
    y ~ y2 classwise, yet xy and x2y2 land in different classes.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or "partition is not a congruence: %r" % (witness,))


class NotStronglyConnected(SemigeomError):
    """A space or graph required to be strongly connected is not."""


class InvalidSpace(SemigeomError):
    """A distance matrix violates the semimetric axioms."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__("semimetric axioms violated: %r" % (violation,))


class NotGenerating(SemigeomError):
    """An extracted generating set fails to generate the whole group."""

    def __init__(self, missing, message=None):
        self.missing = list(missing)
        super().__init__(message or "set does not generate; unreachable: %r" % (self.missing,))
