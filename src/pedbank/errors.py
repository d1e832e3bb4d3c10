"""Exception hierarchy shared across the package, and the one size rule."""


class PedbankError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PedbankError):
    """A file or document does not match its expected format."""


class DimensionError(PedbankError):
    """Array shapes or declared dimensions are inconsistent."""


class PreconditionError(PedbankError):
    """An operation was called with inputs that violate its contract."""


class NumericalError(PedbankError):
    """A computation produced non-finite values."""


def check_sizes(**sizes) -> None:
    """Raise ``PreconditionError`` unless every size is an int (not a bool) of at least 1."""
    if any(type(size) is not int or size < 1 for size in sizes.values()):
        raise PreconditionError(f"{' and '.join(sizes)} must be positive integers")
