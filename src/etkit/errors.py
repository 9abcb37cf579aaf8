"""Exception taxonomy shared across the package, and the JSON rules: the
integer rule of its decoders and the camelCase rule of its records.

Every error raised by library code derives from :class:`EtkitError`, so
callers (and the CLI) can distinguish "your input is bad" from genuine bugs.
"""

from __future__ import annotations

from dataclasses import fields


class EtkitError(Exception):
    """Base class for all library errors."""


class ValidationError(EtkitError):
    """Input violates a documented precondition or structural invariant."""


class ParseError(EtkitError):
    """Expression text does not conform to the grammar.

    Carries the offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotAUnit(ValidationError):
    """Value is not a 1-unit for the given prime."""


class DenominatorNotInvertible(ValidationError):
    """Denominator divisible by p cannot be inverted p-adically."""


class PrecisionExhausted(EtkitError):
    """A truncated Laurent series cannot decide the request: a leading
    coefficient or a cancellation lies past its window."""


class DegreeTooSmall(ValidationError):
    """Cohomology was requested below the minimal usable degree (2)."""


class DimensionTooLarge(EtkitError):
    """An exhaustive search was requested above its configured bound."""


class NotAnExtension(ValidationError):
    """The rigidity criterion needs an Ext-rooted normalized expression."""


class InvalidModel(ValidationError):
    """Field-model parameters are inconsistent with the ambient prime."""


class ModelUnsupported(EtkitError):
    """The requested construction is not available for this field model."""


class NotAHomomorphism(ValidationError):
    """A supposed group homomorphism fails the defining identity."""


class OrderBound(ValidationError):
    """Finite group exceeds the configured order bound."""


class KernelNotCentral(ValidationError):
    """Extension-class input whose kernel is not central of order p."""


def is_int(x) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def int_param(data, key: str, error: type[EtkitError], message: str) -> int:
    """``data[key]`` when ``data`` is a dict holding a JSON integer there;
    otherwise raise ``error(message)``."""
    value = data.get(key) if isinstance(data, dict) else None
    if not is_int(value):
        raise error(message)
    return value


class JsonRecord:
    """A dataclass whose JSON is its fields, named in camelCase."""

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            head, *rest = f.name.split("_")
            out[head + "".join(w.title() for w in rest)] = getattr(self, f.name)
        return out
