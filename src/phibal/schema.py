"""Config fields declare their type by annotation and their allowed values by
metadata, `within` a range or `one_of` some choices. `check_fields`, first in
each config's ``__post_init__``, makes an int in a float field a float and an
integral float in an int field an int, so ``eta: 1`` is ``eta: 1.0``. It
rejects any other type (a bool fits only a bool field) and any value not
allowed, naming ``section 'field'``. `check_value` applies the same rule to
one value, such as a potential's parameter. Checks across fields stay by hand.
"""

from __future__ import annotations

import operator
from dataclasses import fields
from numbers import Integral, Real

# Annotation -> the type's name in errors; fields annotated otherwise go unchecked.
_NOUNS = {"bool": "a bool", "int": "an integer", "float": "a number", "str": "a string",
          "str | None": "a string or null"}
_WRONG = object()


def within(interval: str) -> dict:
    """Metadata of a field whose value lies in ``interval``, written like
    ``(0, 1]``; an open end at inf means finite. The test is positive, so NaN
    fails it."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le
    return {"must": f"lie in {interval}", "test": lambda v: above(lo, v) and below(v, hi)}


def one_of(choices: tuple) -> dict:
    return {"must": f"be one of {choices}", "test": choices.__contains__}


def _coerce(kind: str, v):
    """``v`` as a value of the annotation ``kind``, or `_WRONG`."""
    if isinstance(v, bool) != (kind == "bool"):
        return _WRONG
    if kind == "int":
        integral = isinstance(v, Integral) or isinstance(v, float) and v.is_integer()
        return int(v) if integral else _WRONG
    if kind == "float":
        try:
            return float(v) if isinstance(v, Real) else _WRONG
        except OverflowError:  # an int too large for a float
            return _WRONG
    fits = kind == "bool" or isinstance(v, str) or v is None and kind == "str | None"
    return v if fits else _WRONG


def check_value(section: str, name: str, kind: str, meta, raw):
    """``raw`` coerced to the annotation ``kind``, once it passes ``meta``'s test."""
    value = _coerce(kind, raw) if kind in _NOUNS else raw
    if value is _WRONG:
        raise ValueError(f"{section} {name!r} must be {_NOUNS[kind]}, got {raw!r}")
    if "test" in meta and not meta["test"](value):
        raise ValueError(f"{section} {name!r} must {meta['must']}, got {raw!r}")
    return value


def check_fields(obj, section: str) -> None:
    for f in fields(obj):
        raw = getattr(obj, f.name)
        value = check_value(section, f.name, f.type, f.metadata, raw)
        if value is not raw:
            object.__setattr__(obj, f.name, value)
