"""Config field specs: one declaration per config value gives its check,
its manifest parser and its manifest format.

A config dataclass declares each field with a constructor below and runs
:func:`check_fields` in ``__post_init__``, which stores each value as the
Python ``float``, ``int`` or ``bool`` it equals: a config holds what its
manifest writes, and a detector computes with the config as it is.
Numeric kinds take Python and numpy numbers but not ``bool``, in an interval
such as ``"(0, inf)"``; no bound at inf is closed, and NaN lies in none.
"""

from __future__ import annotations

import dataclasses
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError


def _fmt(v) -> str:
    # 17 significant digits: enough to round-trip any float64 exactly.
    return format(float(v), ".17g")


class Spec(NamedTuple):
    """A config value's test ``ok``, the ``domain`` it accepts, and its
    manifest form, ``parse`` (bad text: ``ValueError``, or a value ``ok``
    refuses) and ``format``. ``item`` is a pair's spec of each value, or a
    nested field's config class. ``plain`` turns a value ``ok`` accepts into
    the same value as a Python ``float``, ``int`` or ``bool``: a numpy value
    would carry its own type into the arithmetic it meets (a float32 makes
    ``t + alpha`` round to float32)."""

    ok: Callable[[object], bool]
    domain: str
    parse: Callable[[str], object] = str
    format: Callable[[object], str] = str
    item: object = None
    plain: Callable[[object], object] = lambda v: v

    def check(self, name: str, v):
        if not self.ok(v):
            raise ConfigError(f"{name} must be {self.domain}, got {v!r}")
        return v


def _number(interval: str, kind: type = Real, none: str | None = None) -> Spec:
    """A ``kind`` number in ``interval``; with ``none``, or None, which the
    manifest writes as that word."""
    lo, hi = map(float, interval[1:-1].split(","))
    lo_closed, hi_closed = interval[0] == "[", interval[-1] == "]"

    def ok(v) -> bool:
        if v is None or isinstance(v, bool) or not isinstance(v, kind):
            return v is None and none is not None
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the floats
            return False
        return (lo <= x if lo_closed else lo < x) and (x <= hi if hi_closed else x < hi)

    if kind is Integral:
        return Spec(ok, f"an integer in {interval}", int, plain=int)
    if none is None:
        return Spec(ok, f"a real number in {interval}", float, _fmt, plain=float)
    parse = lambda s: None if s == none else float(s)  # noqa: E731
    fmt = lambda v: none if v is None else _fmt(v)  # noqa: E731
    plain = lambda v: None if v is None else float(v)  # noqa: E731
    return Spec(ok, f"a real number in {interval}, or None", parse, fmt, plain=plain)


def _field(spec: Spec, default=dataclasses.MISSING, factory=dataclasses.MISSING):
    return dataclasses.field(default=default, default_factory=factory, metadata={"spec": spec})


def real(interval: str, default=dataclasses.MISSING, none: str | None = None):
    return _field(_number(interval, Real, none), default)


def integer(interval: str, default=dataclasses.MISSING):
    return _field(_number(interval, Integral), default)


def flag(default: bool):
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    ok = lambda v: isinstance(v, (bool, np.bool_))  # noqa: E731
    fmt = lambda v: "true" if v else "false"  # noqa: E731
    return _field(Spec(ok, "a bool", lambda s: words.get(s.lower()), fmt, plain=bool), default)


def choice(*options: str):
    """A ``str`` equal to one of ``options``; the first is the default."""
    ok = lambda v: isinstance(v, str) and v in options  # noqa: E731
    return _field(Spec(ok, "one of " + ", ".join(options)), options[0])


def pair(interval: str, default: tuple):
    item = _number(interval)
    ok = lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(item.ok, v))  # noqa: E731
    plain = lambda v: tuple(map(item.plain, v))  # noqa: E731
    spec = Spec(ok, f"a tuple of two values, each {item.domain}", item=item, plain=plain)
    return _field(spec, default)


def nested(cls: type):
    ok = lambda v: isinstance(v, cls)  # noqa: E731
    return _field(Spec(ok, f"a {cls.__name__}", item=cls), factory=cls)


def field_spec(cls: type, name: str, part: str | int | None = None) -> Spec:
    """The spec of ``cls.name``, or of its nested field or pair item ``part``."""
    spec = cls.__dataclass_fields__[name].metadata["spec"]
    if part is None:
        return spec
    return spec.item if isinstance(part, int) else field_spec(spec.item, part)


def check_fields(obj) -> None:
    """A ``ConfigError`` naming ``Class.field`` for a field outside its spec;
    each valid value is stored in its spec's ``plain`` form. A nested
    config checked its own fields when it was built."""
    for f in dataclasses.fields(obj):
        spec = f.metadata["spec"]
        value = spec.check(f"{type(obj).__name__}.{f.name}", getattr(obj, f.name))
        # A frozen dataclass's own __init__ sets its fields this way.
        object.__setattr__(obj, f.name, spec.plain(value))

