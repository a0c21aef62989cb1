"""Plain-Python checks of JSON values against the packaged JSON schemas.

``compile_schema`` turns a schema into a function of one JSON value that
returns None when the value is valid and otherwise one message naming where
it fails and why (``$.roots[0][0]: -1 is less than the minimum of 0``).  It
reads the schema once, into one closure per schema node that holds the
node's keyword values, so a check walks the value alone.  It reads only the Draft-7
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
import os
import re

# in the order the checks run: a value's own type and members first, then
# its keys and items
KEYWORDS = (
    "type", "enum", "required", "additionalProperties", "properties",
    "minItems", "maxItems", "items", "minimum", "pattern",
)
IGNORED = frozenset({"$schema", "title"})


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


def _compile(schema):
    """The check of the node ``schema``: a function of one value that returns
    None when the value satisfies it, and otherwise the message of its first
    failure without the leading ``$``.  The node's keyword values are read,
    and its sub-schemas compiled, here, once.  ``type`` and ``enum`` run
    first; then a node that names its type runs that type's keywords alone,
    and any other node the keywords of the value's kind, in the order of
    ``KEYWORDS``.  ValueError for a keyword, or a keyword value, outside the
    subset this module reads."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not supported: only objects are")
    unknown = schema.keys() - KEYWORDS - IGNORED
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not supported")
    name, enum = schema.get("type"), schema.get("enum")
    if "type" in schema and not (isinstance(name, str) and name in TYPES):
        raise ValueError(f"type {name!r} is not supported")
    if not all(isinstance(m, str) for m in enum or ()):
        raise ValueError(f"enum {enum!r} is not supported: only strings are")
    if not isinstance(schema.get("additionalProperties", True), bool):
        raise ValueError("additionalProperties must be true or false")
    required, closed = schema.get("required", ()), schema.get("additionalProperties") is False
    properties = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    least, most = schema.get("minItems", 0), schema.get("maxItems")
    each = _compile(schema["items"]) if "items" in schema else None
    low, pattern = schema.get("minimum"), schema.get("pattern")
    search = None if pattern is None else re.compile(pattern).search

    def of_object(value):
        for key in required:
            if key not in value:
                return f": {key!r} is a required property"
        for key in value if closed else ():
            if key not in properties:
                return f": property {key!r} is not allowed"
        for key, item in value.items():
            if key in properties and (failure := properties[key](item)) is not None:
                return f".{key}{failure}"
        return None

    def of_array(value):
        if len(value) < least:
            return f": {value!r} has fewer than {least} items"
        if most is not None and len(value) > most:
            return f": {value!r} has more than {most} items"
        for i, item in enumerate(value if each else ()):
            if (failure := each(item)) is not None:
                return f"[{i}]{failure}"
        return None

    def of_number(value):
        if low is not None and value < low:
            return f": {value!r} is less than the minimum of {low!r}"
        return None

    def of_string(value):
        if search is not None and search(value) is None:
            return f": {value!r} does not match {pattern!r}"
        return None

    is_number = lambda value: isinstance(value, (int, float)) and not isinstance(value, bool)
    kinds = ((TYPES["object"], of_object), (TYPES["array"], of_array),
             (is_number, of_number), (TYPES["string"], of_string))
    by_type = {"object": of_object, "array": of_array, "integer": of_number, "string": of_string}
    is_type = TYPES.get(name)
    body = by_type[name] if name else (
        lambda value: next((of_kind(value) for is_kind, of_kind in kinds if is_kind(value)), None))

    def check(value):
        if is_type is not None and not is_type(value):
            return f": {value!r} is not of type {name!r}"
        if enum is not None and value not in enum:
            return f": {value!r} is not one of {enum!r}"
        return body(value)
    return check


def compile_schema(schema):
    """The check of ``schema``: a function of one JSON value that returns None
    when the value is valid, and otherwise ``"<where>: <why>"`` for one
    failure, ``<where>`` a path such as ``$.roots[0][0]``.  Raises ValueError
    when the schema uses a keyword (or a keyword value) outside the subset
    this module reads."""
    node = _compile(schema)

    def check(value):
        failure = node(value)
        return None if failure is None else "$" + failure
    return check


@functools.cache
def packaged_check(name):
    """The check of the packaged schema ``schemas/<name>``, loaded on the
    first call and shared by every later one in the process.  The module's
    own loader reads it, as ``pkgutil.get_data`` would, so no
    ``importlib.resources`` is imported."""
    path = os.path.join(os.path.dirname(__file__), "schemas", name)
    return compile_schema(json.loads(__spec__.loader.get_data(path)))
