"""The JSON form of the config records, declared once per field.

A record is a dataclass that subclasses :class:`Record` and declares each
field's JSON kind, key (the field name unless given) and bound with
:func:`spec`; its dataclass default also serves an absent key (and null,
when the default is None).  :meth:`Record.to_dict` writes the keys in field
order, :meth:`Record.from_dict` reads them back, and ``__post_init__``
checks the bounds on every construction.  A value that is missing, of the
wrong kind or out of bounds raises :class:`~spectratact.errors.ConfigError`
naming its JSON path, e.g. ``'sensors[1].dye.concentration_scale' must be
finite and >= 0, got -1.0``; :func:`load` adds the file.  Checks that tie
fields together stay in each record's ``__post_init__``, with their own types.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import MISSING, field, fields
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

# JSON kinds, named as the messages say them.  A Record subclass is the kind
# of a nested object, and a 1-tuple of one the kind of an array of them.
NUMBER = "a number"            # int or float, read as float
INT = "an integer"
STR = "a string"
BOOL = "true or false"
ARRAY = "an array of numbers"  # read as a float ndarray
FLOATS = "a list of numbers"   # read as a tuple of floats
LIST = "a JSON array"          # items left unread
OBJECT = "a JSON object"       # values left unread
_TYPES = {INT: int, STR: str, BOOL: bool, LIST: list, OBJECT: dict}
_ABSENT = object()  # read's default for a field that keeps its dataclass default


class Bound(NamedTuple):
    """A condition on one value: ``test(value)`` holds, or the value must ``text``."""

    text: str
    test: Callable[[object], bool]


POSITIVE = Bound("be finite and > 0", lambda v: 0 < v < math.inf)
NONNEGATIVE = Bound("be finite and >= 0", lambda v: 0 <= v < math.inf)
PAIR = Bound("hold 2 numbers", lambda v: len(v) == 2)


def within(lo: float, hi: float) -> Bound:
    """``lo <= v <= hi``, which NaN fails."""
    return Bound(f"lie in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi)


def spec(kind, default=MISSING, *, factory=MISSING, key: str | None = None,
         bound: Bound | None = None):
    """A dataclass field with a JSON form (see the module docstring)."""
    absent = MISSING if default is MISSING and factory is MISSING \
        else None if default is None else _ABSENT  # what read() gives for an absent key
    return field(default=default, default_factory=factory,
                 metadata={"json": (key, kind, bound, absent)})


def join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _wrong(path: str, kind: str, value) -> ConfigError:
    """The error for a value of another kind: a container named, anything else as JSON."""
    got = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value, default=repr)
    got = got if len(got) <= 40 else got[:37] + "..."
    return ConfigError(f"'{path}' must be {kind}, got {got}" if path
                       else f"expected {kind}, got {got}")


def _check(bound: Bound, value, path: str) -> None:
    if not bound.test(value):
        raise ConfigError(f"'{path}' must {bound.text}, got {value!r}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _wrong(path, NUMBER, value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"'{path}' must be a number in the float range, got an integer "
                          f"too large to convert to float") from None


def _plain(kind: str, value, path: str):
    """``value`` read as one of the kinds above."""
    if kind == NUMBER:
        return _number(value, path)
    if kind in (ARRAY, FLOATS):
        items = _plain(LIST, value, path)
        if kind == ARRAY and {type(v) for v in items} <= {float}:  # as to_dict writes them
            return np.array(items, dtype=float)
        numbers = [_number(v, f"{path}[{i}]") for i, v in enumerate(items)]
        return np.array(numbers, dtype=float) if kind == ARRAY else tuple(numbers)
    python_type = _TYPES[kind]
    # bool is a subclass of int, and JSON's true is no integer
    if isinstance(value, python_type) and (python_type is bool or not isinstance(value, bool)):
        return value
    raise _wrong(path, kind, value)


def read(doc, key: str, kind, path: str = "", default=MISSING, bound: Bound | None = None):
    """``doc[key]`` read as ``kind`` within ``bound``, where ``doc`` is the JSON object at ``path``.

    An absent key, or null when ``default`` is None, gives ``default``; without one it is missing.
    """
    doc, at = _plain(OBJECT, doc, path), join(path, key)
    if key not in doc or doc[key] is None and default is None:
        if default is MISSING:
            raise ConfigError(f"'{at}' is missing")
        return default
    if isinstance(kind, tuple):
        return tuple(kind[0].from_dict(item, f"{at}[{i}]")
                     for i, item in enumerate(_plain(LIST, doc[key], at)))
    if isinstance(kind, type):
        return kind.from_dict(doc[key], at)
    value = _plain(kind, doc[key], at)
    if bound is not None:
        _check(bound, value, at)
    return value


@cache
def _table(cls) -> tuple:
    """(attribute, JSON key, kind, bound, read default) per field of ``cls`` with a JSON form."""
    return tuple((f.name, f.metadata["json"][0] or f.name, *f.metadata["json"][1:])
                 for f in fields(cls) if "json" in f.metadata)


def decode_fields(cls, doc, path: str = "") -> dict:
    """Keyword arguments for ``cls`` from its JSON object ``doc``; absent keys are left out."""
    kwargs = {name: read(doc, key, kind, path, default, bound)
              for name, key, kind, bound, default in _table(cls)}
    return {name: value for name, value in kwargs.items() if value is not _ABSENT}


def _encode(kind, value):
    if value is None:
        return None
    if isinstance(kind, tuple):
        return [item.to_dict() for item in value]
    if isinstance(kind, type):
        return value.to_dict()
    return value.tolist() if kind == ARRAY else list(value) if kind == FLOATS else value


class Record:
    """A dataclass whose fields declare their JSON form with :func:`spec`."""

    def __post_init__(self):
        for name, _, _, bound, _ in _table(type(self)):
            if bound is not None:
                _check(bound, getattr(self, name), name)

    def to_dict(self) -> dict:
        return {key: _encode(kind, getattr(self, name))
                for name, key, kind, _, _ in _table(type(self))}

    @classmethod
    def from_dict(cls, doc, path: str = ""):
        """The record of the JSON object ``doc``, found at ``path`` in its document."""
        return cls(**decode_fields(cls, doc, path))


class ByValue:
    """Equality by the JSON form, for a record that holds arrays.

    numpy's ``==`` on an array field is elementwise, so the dataclass
    ``__eq__`` raises; such a record declares its dataclass with ``eq=False``
    and compares its :meth:`to_dict`.  It is unhashable: its arrays can be
    changed in place, which would change its value under a stored hash.
    """

    def __eq__(self, other):
        return self.to_dict() == other.to_dict() if type(other) is type(self) else NotImplemented

    __hash__ = None


def load(cls, path: str):
    """``cls.from_dict`` of the JSON file ``path``; every ValueError names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is not JSON text
            return cls.from_dict(json.load(fh))
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:  # a check across fields, which stays a plain ValueError
        raise ValueError(f"{path}: {exc}") from None
