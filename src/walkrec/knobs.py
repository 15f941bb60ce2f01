"""Knobs: dataclass fields that declare their YAML key and bounds.

Each tunable value is declared once, with ``knob`` on the dataclass that
uses it; ``check``, called from ``Knobs.__post_init__``, enforces the
bounds on construction, and the config parser reads the same declarations
to map YAML keys to fields and to name the key of any error.
"""

import math
import numbers
from dataclasses import field, fields

__all__ = ["KnobError", "Knobs", "knob", "key", "check"]


class KnobError(ValueError):
    """A field value outside its declared bounds; carries the field name."""

    def __init__(self, name, reason):
        super().__init__(f"{name} {reason}")
        self.name = name
        self.reason = reason


def knob(default, key=None, *, min=None, gt=None, max=None, odd=False, choices=None):
    """A dataclass field with its YAML key (the field name by default) and bounds.

    Bounds apply to each element of a list or tuple value.  Under min, gt,
    max or odd a value must be a number, not a bool, and the value of an
    int or tuple[int, ...] field must be an integer.  A float value must
    also be finite, so NaN and infinities fail whatever the bounds.
    """
    bounds = {"min": min, "gt": gt, "max": max, "odd": odd, "choices": choices}
    return field(default=default, metadata={"key": key, "bounds": bounds})


def key(f):
    "The YAML key of a dataclass field."
    return f.metadata.get("key") or f.name


def _violation(x, integral, min, gt, max, odd, choices):
    "The rule x breaks, or None."
    numeric = odd or any(b is not None for b in (min, gt, max))
    if numeric and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        return "must be a number"
    if integral and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        return "must be an integer"
    if isinstance(x, float) and not math.isfinite(x):
        return "must be finite"
    if choices is not None:
        return None if x in choices else f"must be one of {', '.join(map(repr, choices))}"
    if not ((min is None or x >= min) and (gt is None or x > gt) and (max is None or x <= max)):
        if max is None:
            return f"must be >= {min}" if gt is None else f"must be > {gt}"
        return f"must be in {f'[{min}' if gt is None else f'({gt}'}, {max}]"
    if odd and x % 2 != 1:
        return "must be odd"
    return None


def check(obj):
    """Raise KnobError naming the first field of obj outside its declared bounds."""
    for f in fields(obj):
        bounds = f.metadata.get("bounds")
        value = getattr(obj, f.name)
        if bounds is None:
            continue
        for x in value if isinstance(value, (list, tuple)) else (value,):
            reason = _violation(x, f.type in (int, tuple[int, ...]), **bounds)
            if reason:
                raise KnobError(f.name, reason)


class Knobs:
    """Base of a dataclass of knobs: construction checks the declared bounds.

    A subclass with cross-field rules extends __post_init__.
    """

    def __post_init__(self):
        check(self)
