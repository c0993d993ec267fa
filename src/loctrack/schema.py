"""Declarative tables for the JSON inputs, and the one reader that applies them.

Each JSON input (a scenario, an experiment spec, the ``stationary``
constants) is a table that maps every key to one ``Field``: a kind from
``KINDS``, whose name carries its range, and a default or ``REQUIRED``.
``read`` rejects a key the table does not list, a missing required key and
any value its field does not admit; it gathers every such key of one input
into one error, one line per key, naming the key on each.
Rules that relate two keys stay with the consumer (``scenario.validate``,
``harness.experiment_from_json``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SchemaMismatch

REQUIRED = "required"


def is_integer(value) -> bool:
    """A JSON integer: no bool, no float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number: no bool. NaN and the infinities are not JSON numbers
    (RFC 8259), although Python's ``json`` module reads them."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


@dataclass(frozen=True)
class Kind:
    """What a value must be. ``message`` reports a bad value of key
    ``name``; ``items`` reports a bad item or leaf of a list under it."""

    admits: Callable[[object], bool]
    message: str
    items: str = ""
    cast: Callable | None = None


def _kind(noun: str, admits, cast=None, plural: str = "") -> Kind:
    return Kind(admits, f"{{name}} must be {noun}, got {{value!r}}",
                f"{{words}} must be {plural}, got {{value!r}}", cast)


def enum(*choices: str) -> Kind:
    return _kind(f"one of {', '.join(choices)}", lambda v: v in choices)


# Worded like the check of a step label against the scenario's steps.
_LABEL = "{name} label {value!r} is not an integer step >= 1"
KINDS = {
    "count": _kind("an integer >= 1", lambda v: is_integer(v) and v >= 1, int),
    "index": _kind("an integer >= 0", lambda v: is_integer(v) and v >= 0, int,
                   "integers >= 0"),
    "step": Kind(lambda v: is_integer(v) and v >= 1, _LABEL, _LABEL, int),
    "number": _kind("a finite number", is_number, float, "numbers"),
    "positive": _kind("a finite number > 0", lambda v: is_number(v) and v > 0, float),
    "nonnegative": _kind("a finite number >= 0", lambda v: is_number(v) and v >= 0,
                         float, "numbers >= 0"),
    "whole": _kind("a whole number >= 1",
                   lambda v: is_number(v) and v >= 1 and float(v).is_integer(), float),
    "path": _kind("a path string", lambda v: isinstance(v, str)),
    # Containers: ``Field.of`` checks a list's items and the leaves of a
    # nested or array value (a number or nested lists; an array is also
    # rectangular, and is read as a float ndarray).
    "list": _kind("a list", lambda v: isinstance(v, list)),
    "object": _kind("an object", lambda v: isinstance(v, dict)),
    "nested": _kind("a number or nested lists", lambda v: not isinstance(v, dict)),
    "array": _kind("a numeric array", lambda v: not isinstance(v, dict)),
}
LIST, NESTED, ARRAY = KINDS["list"], KINDS["nested"], KINDS["array"]


@dataclass(frozen=True)
class Field:
    """One table entry; ``kind`` and ``of`` name a kind in ``KINDS`` or are
    one (``enum``). ``null`` admits JSON null; ``table`` reads an object
    value (an object, or the object form of an array key)."""

    kind: Kind | str
    default: object = REQUIRED
    of: Kind | str = "number"
    table: dict | None = None
    null: bool = False

    def __post_init__(self) -> None:
        for name in ("kind", "of"):
            if isinstance(getattr(self, name), str):
                object.__setattr__(self, name, KINDS[getattr(self, name)])


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def check(field: Field, name: str, value):
    """``value`` converted for key ``name``; SchemaMismatch if not admitted."""
    if value is None and field.null:
        return None
    kind = field.kind
    if not kind.admits(value):
        raise SchemaMismatch(kind.message.format(name=name, value=value))
    if kind in (LIST, NESTED, ARRAY):
        for item in value if kind is LIST else _leaves(value):
            if not field.of.admits(item):
                raise SchemaMismatch(field.of.items.format(
                    name=name, words=name.replace(".", " "), value=item))
        if kind is LIST and field.of.cast is not None:
            return [field.of.cast(item) for item in value]
        if kind is ARRAY:
            try:
                return np.asarray(value, dtype=float)
            except ValueError:
                raise SchemaMismatch(f"{name} must be a rectangular array") from None
    return value if kind.cast is None else kind.cast(value)


def read(table: dict, payload, what: str) -> dict:
    """Every key of ``table`` read from the JSON object ``payload``, with
    defaults filled in. ``what`` names the input in the messages; a nested
    table's keys are named ``<key>.<subkey>``. Every unknown, missing and
    malformed key, nested ones included, is reported in one SchemaMismatch,
    one key per line."""
    problems: list[str] = []
    values = _read(table, payload, what, "", problems)
    if problems:
        raise SchemaMismatch("\n".join(problems))
    return values


def _read(table: dict, payload, what: str, prefix: str, problems: list) -> dict:
    """``read`` for one (possibly nested) table; appends to ``problems``."""
    if not isinstance(payload, dict):
        problems.append(f"{what} must be a JSON object, got {payload!r}")
        return {}
    problems.extend(f"{what} has unknown keys: {prefix}{key}"
                    for key in payload if key not in table)
    values = {}
    for key, field in table.items():
        name = f"{prefix}{key}"
        if field.default == REQUIRED and key not in payload:
            problems.append(f"{what} missing keys: {name}")
            continue
        value = payload.get(key, field.default)
        if field.table is not None and isinstance(value, dict):
            values[key] = _read(field.table, value, what, f"{name}.", problems)
            continue
        try:
            values[key] = check(field, name, value)
        except SchemaMismatch as exc:
            problems.append(f"{what} has a malformed value: {exc}")
    return values
