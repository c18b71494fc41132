"""Exception types shared across the package."""


class WreathCentersError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAssociative(WreathCentersError):
    """Multiplication table fails associativity; carries a witness triple."""


class NoIdentity(WreathCentersError):
    """Multiplication table has no two-sided identity."""


class NotBijectiveRow(WreathCentersError):
    """A row or column of the multiplication table is not a permutation."""


class UnsupportedSpec(WreathCentersError):
    """Unknown builtin group spec string or out-of-range parameter."""


class DiagonalizationFailed(WreathCentersError):
    """No character table: Dixon's split of the class matrices did not
    end in k lines, or a given "characters" matrix is not G's table."""


class PadTooSmall(WreathCentersError):
    """Target size is smaller than the object being padded."""


class SizeMismatch(WreathCentersError):
    """Operands do not have the common size the operation requires."""


class NotProper(WreathCentersError):
    """Family has parts equal to 1 at the identity class where forbidden."""


class CapExceeded(WreathCentersError):
    """A streamed class or enumeration exceeds the configured cap."""


class Overflow(WreathCentersError):
    """Input exceeds the packed type key: one byte per slot, so n <= 255."""
