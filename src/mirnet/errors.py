"""Exception types shared across the package, and the type rule that its
configuration dataclasses apply to their fields."""

from dataclasses import fields


class MirnetError(Exception):
    """Base class for all package errors."""


class FormatError(MirnetError):
    """Input file could not be parsed."""


class ValidationError(MirnetError):
    """Input parsed but violated a domain invariant."""


class InsufficientDataError(MirnetError):
    """Too little data for the requested computation."""


class AlignmentError(MirnetError):
    """Sequences or ticker sets that must line up do not."""


class DegeneratePairError(MirnetError):
    """Distance is undefined for this pair (e.g. both sequences constant)."""


class UndefinedCorrelationError(MirnetError):
    """Pearson correlation undefined because a series has zero variance."""


# the annotations of the dataclasses' fields; a list field may be a tuple and
# a float field an int
_TYPES = {"str": str, "int": int, "float": (float, int), "bool": bool, "list": (list, tuple)}


def _is_a(value, type_name: str) -> bool:
    """Whether ``value`` has the annotated type; a bool is no int or float."""
    return isinstance(value, _TYPES[type_name]) and (
        type_name == "bool" or not isinstance(value, bool)
    )


def check_field_types(obj) -> None:
    """Raise ``ValidationError`` naming the first field of the dataclass
    ``obj`` whose value has not its annotated type, such as ``list[int]``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        outer, _, item = f.type.rstrip("]").partition("[")
        if not _is_a(value, outer) or (item and not all(_is_a(v, item) for v in value)):
            raise ValidationError(f"{f.name}: expected {f.type}, got {value!r}")
