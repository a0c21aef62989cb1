"""Plain-Python checks compiled from the packaged JSON schemas.

``compile_schema`` turns a schema into a function of one JSON value that
returns None when the value is valid and otherwise one message naming where
it fails and why (``$.roots[0][0]: -1 is less than the minimum of 0``).  It
compiles only the Draft-7 keywords the schemas in ``schemas/`` use (``type``,
``enum``, ``properties``, ``additionalProperties`` true or false,
``required``, ``items``, ``minItems``, ``maxItems``, ``minimum``,
``pattern``), ignores ``$schema`` and ``title``, and raises ValueError on
anything else, so a schema cannot outgrow its check unnoticed.  Within that
subset it follows Draft 7: a bool is neither an integer nor a number, an
integral float is an integer, each keyword applies only to values of its own
type, and an enum (of strings, the only kind compiled) matches strings only.
The tests hold the checks to ``jsonschema.Draft7Validator`` on random values.
"""

from __future__ import annotations

import functools
import json
import re
from importlib.resources import files

IGNORED = frozenset({"$schema", "title"})


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value):
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


TYPES = {
    "array": lambda value: isinstance(value, list),
    "integer": _is_integer,
    "object": lambda value: isinstance(value, dict),
    "string": lambda value: isinstance(value, str),
}


# Each keyword compiler takes the keyword's value and the whole schema and
# returns a check of one value, giving None or a (where, why) pair with
# ``where`` relative to the value, or None when the keyword checks nothing.

def _type(name, schema):
    if not isinstance(name, str) or name not in TYPES:
        raise ValueError(f"type {name!r} is not supported")
    is_type = TYPES[name]

    def check(value):
        if not is_type(value):
            return "", f"{value!r} is not of type {name!r}"
    return check


def _enum(members, schema):
    if not all(isinstance(m, str) for m in members):
        raise ValueError(f"enum {members!r} is not supported: only strings are")
    allowed = frozenset(members)

    def check(value):
        if not (isinstance(value, str) and value in allowed):
            return "", f"{value!r} is not one of {members!r}"
    return check


def _required(keys, schema):
    def check(value):
        if isinstance(value, dict):
            for key in keys:
                if key not in value:
                    return "", f"{key!r} is a required property"
    return check


def _additional_properties(extra, schema):
    if extra is True:
        return None
    if extra is not False:
        raise ValueError("additionalProperties must be true or false")
    allowed = frozenset(schema.get("properties", ()))

    def check(value):
        if isinstance(value, dict):
            for key in value:
                if key not in allowed:
                    return "", f"property {key!r} is not allowed"
    return check


def _properties(properties, schema):
    subs = {key: _compile(sub) for key, sub in properties.items()}

    def check(value):
        if isinstance(value, dict):
            for key, item in value.items():
                sub = subs.get(key)
                if sub is not None:
                    failure = sub(item)
                    if failure is not None:
                        return f".{key}{failure[0]}", failure[1]
    return check


def _min_items(n, schema):
    def check(value):
        if isinstance(value, list) and len(value) < n:
            return "", f"{value!r} has fewer than {n} items"
    return check


def _max_items(n, schema):
    def check(value):
        if isinstance(value, list) and len(value) > n:
            return "", f"{value!r} has more than {n} items"
    return check


def _items(items, schema):
    sub = _compile(items)

    def check(value):
        if isinstance(value, list):
            for i, item in enumerate(value):
                failure = sub(item)
                if failure is not None:
                    return f"[{i}]{failure[0]}", failure[1]
    return check


def _minimum(bound, schema):
    def check(value):
        if _is_number(value) and value < bound:
            return "", f"{value!r} is less than the minimum of {bound!r}"
    return check


def _pattern(pattern, schema):
    search = re.compile(pattern).search

    def check(value):
        if isinstance(value, str) and search(value) is None:
            return "", f"{value!r} does not match {pattern!r}"
    return check


# in the order the checks run: a value's own type and members first, then
# its keys and items
KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "required": _required,
    "additionalProperties": _additional_properties,
    "properties": _properties,
    "minItems": _min_items,
    "maxItems": _max_items,
    "items": _items,
    "minimum": _minimum,
    "pattern": _pattern,
}


def _compile(schema):
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not supported: only objects are")
    unknown = schema.keys() - KEYWORDS.keys() - IGNORED
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not supported")
    checks = [KEYWORDS[kw](schema[kw], schema) for kw in KEYWORDS if kw in schema]
    checks = [c for c in checks if c is not None]
    if len(checks) == 1:
        return checks[0]

    def check(value):
        for c in checks:
            failure = c(value)
            if failure is not None:
                return failure
    return check


def compile_schema(schema):
    """The check of ``schema``: a function of one JSON value that returns None
    when the value is valid, and otherwise ``"<where>: <why>"`` for one
    failure, ``<where>`` a path such as ``$.roots[0][0]``.  Raises ValueError
    when the schema uses a keyword (or a keyword value) outside the subset
    this module compiles."""
    check = _compile(schema)

    def message(value):
        failure = check(value)
        if failure is not None:
            return f"${failure[0]}: {failure[1]}"
    return message


@functools.cache
def packaged_check(name):
    """The check of the packaged schema ``schemas/<name>``, compiled on the
    first call and shared by every later one in the process."""
    return compile_schema(json.loads((files(__package__) / "schemas" / name).read_text()))
