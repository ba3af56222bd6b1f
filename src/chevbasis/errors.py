"""Exception hierarchy shared by all chevbasis modules."""


class ChevBasisError(Exception):
    """Base class for all errors raised by this package."""


class IllegalType(ChevBasisError):
    """Requested Cartan type or rank does not exist."""


class NoFoldableSymmetry(ChevBasisError):
    """The diagram has no automorphism usable for folding."""


class DegeneratePair(ChevBasisError):
    """Root string requested through beta = +/- alpha."""


class InvalidEpsilon(ChevBasisError):
    """Sign function is not a proper 2-coloring of the diagram."""


class NotSimplyLaced(ChevBasisError):
    """Operation only defined for symmetric Cartan matrices."""


class NotARoot(ChevBasisError):
    """A coefficient vector is not an element of the root system."""


class FoldingPreconditionViolated(ChevBasisError):
    """Automorphism or sign function unsuitable for folding."""


class IncompatibleTables(ChevBasisError):
    """Two bracket tables do not share a Cartan matrix, so cannot be compared."""


class InternalInconsistency(ChevBasisError):
    """An exact-arithmetic invariant failed during construction."""


class RepresentativeNotFound(InternalInconsistency):
    """No orbit representative produced a root sum (must never happen)."""
