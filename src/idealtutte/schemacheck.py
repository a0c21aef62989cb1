"""Plain-Python checks of JSON values against the packaged JSON schemas.

``compile_schema`` turns a schema into a function of one JSON value that
returns None when the value is valid and otherwise one message naming where
it fails and why (``$.roots[0][0]: -1 is less than the minimum of 0``).  The
check walks the schema and the value together.  It reads only the Draft-7
keywords the schemas in ``schemas/`` use (``type``, ``enum``,
``properties``, ``additionalProperties`` true or false, ``required``,
``items``, ``minItems``, ``maxItems``, ``minimum``, ``pattern``), ignores
``$schema`` and ``title``, and ``compile_schema`` raises ValueError on
anything else, so a schema cannot outgrow its check unnoticed.  Within that
subset it follows Draft 7: a bool is neither an integer nor a number, an
integral float is an integer, each keyword applies only to values of its own
type, and an enum (of strings, the only kind read) matches strings only.
The tests hold the checks to ``jsonschema.Draft7Validator`` on random values.
"""

from __future__ import annotations

import functools
import json
import re
from importlib.resources import files

# in the order the checks run: a value's own type and members first, then
# its keys and items
KEYWORDS = (
    "type", "enum", "required", "additionalProperties", "properties",
    "minItems", "maxItems", "items", "minimum", "pattern",
)
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


def _refuse_outside_subset(schema):
    """Raise ValueError unless ``schema`` and every schema in it use only the
    keywords, and keyword values, that ``_failure`` reads."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not supported: only objects are")
    unknown = schema.keys() - KEYWORDS - IGNORED
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not supported")
    name = schema.get("type")
    if "type" in schema and not (isinstance(name, str) and name in TYPES):
        raise ValueError(f"type {name!r} is not supported")
    if not all(isinstance(m, str) for m in schema.get("enum", ())):
        raise ValueError(f"enum {schema['enum']!r} is not supported: only strings are")
    if not isinstance(schema.get("additionalProperties", True), bool):
        raise ValueError("additionalProperties must be true or false")
    if "pattern" in schema:
        re.compile(schema["pattern"])
    for sub in schema.get("properties", {}).values():
        _refuse_outside_subset(sub)
    if "items" in schema:
        _refuse_outside_subset(schema["items"])


def _failure(schema, value):
    """None when ``value`` satisfies ``schema``, and otherwise the message of
    its first failure without the leading ``$``.  Keywords run in the order of
    ``KEYWORDS``; each but ``type`` and ``enum`` reads one type of value."""
    name = schema.get("type")
    if name is not None and not TYPES[name](value):
        return f": {value!r} is not of type {name!r}"
    if "enum" in schema and value not in schema["enum"]:
        return f": {value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f": {key!r} is a required property"
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    return f": property {key!r} is not allowed"
        for key, item in value.items():
            if key in properties:
                failure = _failure(properties[key], item)
                if failure is not None:
                    return f".{key}{failure}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f": {value!r} has fewer than {schema['minItems']} items"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            return f": {value!r} has more than {schema['maxItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                failure = _failure(schema["items"], item)
                if failure is not None:
                    return f"[{i}]{failure}"
    elif _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return f": {value!r} is less than the minimum of {schema['minimum']!r}"
    elif isinstance(value, str):
        if "pattern" in schema and re.search(schema["pattern"], value) is None:
            return f": {value!r} does not match {schema['pattern']!r}"
    return None


def compile_schema(schema):
    """The check of ``schema``: a function of one JSON value that returns None
    when the value is valid, and otherwise ``"<where>: <why>"`` for one
    failure, ``<where>`` a path such as ``$.roots[0][0]``.  Raises ValueError
    when the schema uses a keyword (or a keyword value) outside the subset
    this module reads."""
    _refuse_outside_subset(schema)

    def check(value):
        failure = _failure(schema, value)
        return None if failure is None else "$" + failure
    return check


@functools.cache
def packaged_check(name):
    """The check of the packaged schema ``schemas/<name>``, loaded on the
    first call and shared by every later one in the process."""
    return compile_schema(json.loads((files(__package__) / "schemas" / name).read_text()))
