"""Knobs: dataclass fields that declare their YAML key and bounds.

Each tunable value is declared once, with ``knob`` on the dataclass that
uses it; its type is the field's annotation.  ``check``, called from
``Knobs.__post_init__``, types every field from its annotation and
enforces the bounds on construction, and the config parser reads the same
declarations to map YAML keys to fields and to name the key of any error.
"""

import math
import numbers
import types
import typing
from dataclasses import field, fields, is_dataclass

__all__ = ["KnobError", "Knobs", "knob", "key", "check", "conform"]


class KnobError(ValueError):
    """A field value outside its declared bounds; carries the field name."""

    def __init__(self, name, reason):
        super().__init__(f"{name} {reason}")
        self.name = name
        self.reason = reason


def knob(default, key=None, *, min=None, gt=None, max=None, odd=False, choices=None,
         distinct=False):
    """A dataclass field with its YAML key (the field name by default) and bounds.

    Bounds apply to each element of a list or tuple value; distinct forbids
    a repeated element.
    """
    bounds = {"min": min, "gt": gt, "max": max, "odd": odd, "choices": choices,
              "distinct": distinct}
    return field(default=default, metadata={"key": key, "bounds": bounds})


def key(f):
    "The YAML key of a dataclass field."
    return f.metadata.get("key") or f.name


# scalar annotation -> (what a value must be, the test it passes); a passing
# value is stored as the annotation's type, so numpy scalars become Python ones
_SCALAR_RULES = {
    bool: ("a boolean", lambda x: isinstance(x, bool)),
    int: ("an integer", lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool)),
    float: ("a number", lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool)),
    str: ("a non-empty string", lambda x: isinstance(x, str) and x != ""),
}


def conform(name, x, tp, min=None, gt=None, max=None, odd=False, choices=None,
            distinct=False):
    """x as a value of annotation tp within the bounds, or KnobError naming name.

    tp is bool, int, float, str (non-empty), tuple[T, ...] (a non-empty
    list or tuple, stored as a tuple; with distinct, no two elements equal),
    X | None or a section class (an instance of it).  An int passes as a
    float and is stored as one; a float must be finite.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return None if x is None else conform(name, x, args[0], min, gt, max, odd, choices,
                                              distinct)
    if origin is tuple:
        if not isinstance(x, (list, tuple)) or not x:
            raise KnobError(name, "must be a non-empty list")
        x = tuple(conform(name, v, args[0], min, gt, max, odd, choices) for v in x)
        if distinct and len(set(x)) != len(x):
            raise KnobError(name, f"{list(x)} repeats a value")
        return x
    if is_dataclass(tp):
        if not isinstance(x, tp):
            raise KnobError(name, f"must be a {tp.__name__}")
        return x
    what, ok = _SCALAR_RULES[tp]
    if not ok(x):
        raise KnobError(name, f"must be {what}")
    x = tp(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise KnobError(name, "must be finite")
    if choices is not None and x not in choices:
        raise KnobError(name, f"must be one of {', '.join(map(repr, choices))}")
    if not ((min is None or x >= min) and (gt is None or x > gt) and (max is None or x <= max)):
        if max is None:
            raise KnobError(name, f"must be >= {min}" if gt is None else f"must be > {gt}")
        raise KnobError(name, f"must be in {f'[{min}' if gt is None else f'({gt}'}, {max}]")
    if odd and x % 2 != 1:
        raise KnobError(name, "must be odd")
    return x


def check(obj):
    """Every field of obj by name, conformed to its annotation and bounds.

    Raises KnobError naming the first field that does not conform."""
    return {f.name: conform(f.name, getattr(obj, f.name), f.type, **f.metadata.get("bounds", {}))
            for f in fields(obj)}


class Knobs:
    """Base of a dataclass of knobs: construction checks every field and
    stores its conformed value.

    A subclass with cross-field rules extends __post_init__.
    """

    def __post_init__(self):
        for name, value in check(self).items():
            object.__setattr__(self, name, value)
