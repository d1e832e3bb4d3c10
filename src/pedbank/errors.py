"""Exception hierarchy shared across the package, the one size rule and
the one array rule that every constructor applies to its inputs, and the
ownership rule of the classes that keep read-only arrays."""

import numpy as np


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


def check_array(name: str, value, shape: tuple = ()) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``, where ``None`` allows
    any length on that axis.

    Ints and floats are numbers; strings, bools, objects and complex values
    are not (``PreconditionError``), also where NumPy would promote a bool
    mixed into a list of numbers. Ragged nesting or a wrong rank or length
    is a ``DimensionError``. A float64 array comes back as it is, not copied.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise DimensionError(f"{name} must be a rectangular array") from exc
    if arr.dtype.kind not in "iuf":
        raise PreconditionError(f"{name} must hold int or float numbers, got dtype {arr.dtype}")
    if not isinstance(value, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat
    ):
        raise PreconditionError(f"{name} must hold int or float numbers, got a bool")
    if arr.ndim != len(shape) or any(w not in (None, n) for w, n in zip(shape, arr.shape)):
        expected = ", ".join("any" if w is None else str(w) for w in shape)
        raise DimensionError(f"{name} must have shape ({expected}), got {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{name} must be finite")
    return arr


def owned_readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only and owns its data, else a copy; either way
    marked read-only, so no caller's later write can change it.

    Code that creates an array and hands it straight to a class marks it
    read-only first, and nothing is copied.
    """
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy(order="K")  # same memory layout, so the same BLAS arithmetic
    arr.flags.writeable = False
    return arr
