"""The compiled schema checks against jsonschema's Draft-7 validator, the
oracle: they must accept exactly the values it accepts."""

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packaged_schema
from idealtutte.exactpoly import BivariatePolynomial
from idealtutte.schemacheck import compile_schema, packaged_check

SCHEMAS = ["ideal-spec.schema.json", "polynomial.schema.json"]
# the ideal-spec enum letters, strings on either side of the polynomial
# schema's pattern ^-?[0-9]+$, and a few others
STRINGS = ["A", "B", "C", "D", "G2", "F4", "E6", "Z", "", "x", "y", "12", "-3", "1a", "7\n"]


def property_names(schema):
    """Every property name the schema mentions, at any depth."""
    names = set()
    if isinstance(schema, dict):
        names.update(schema.get("properties", {}))
        for sub in schema.values():
            names |= property_names(sub)
    return names


def json_values(schema):
    """Random JSON values, nested: None, bools, ints, integral and other
    floats, strings, lists, and dicts over the schema's property names plus
    one other."""
    keys = sorted(property_names(schema)) + ["extra"]
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 5),
        st.integers(-3, 5).map(float),
        st.floats(-3, 5).filter(lambda f: not f.is_integer()),
        st.sampled_from(STRINGS),
    )

    def dicts(children):
        return st.dictionaries(st.sampled_from(keys), children, max_size=len(keys))

    return st.recursive(
        scalars, lambda children: st.lists(children, max_size=4) | dicts(children), max_leaves=12
    )


def one_in_ten(draw):
    return draw(st.integers(0, 9)) == 0


@st.composite
def near(draw, schema, values):
    """A value of ``schema``'s shape in which each part is replaced by one of
    ``values`` one time in ten, each optional property is present half the
    time, and each required one nine times in ten: random values alone are
    almost never valid."""
    if one_in_ten(draw):
        return draw(values)
    if "properties" in schema:
        required = schema.get("required", ())
        value = {}
        for key, sub in schema["properties"].items():
            if draw(st.integers(0, 9)) < (9 if key in required else 5):
                value[key] = draw(near(sub, values))
        if one_in_ten(draw):
            value["extra"] = draw(values)
        return value
    if "items" in schema:
        return draw(st.lists(near(schema["items"], values), max_size=3))
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    if schema.get("type") == "string":
        return draw(st.sampled_from(STRINGS))
    return draw(st.integers(-1, 5) | st.integers(-1, 5).map(float))


@pytest.mark.parametrize("name", SCHEMAS)
def test_compiled_check_agrees_with_draft7(name):
    schema = packaged_schema(name)
    validator = jsonschema.Draft7Validator(schema)
    check = packaged_check(name)
    verdicts = set()
    values = json_values(schema)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values | near(schema, values))
    def agree(value):
        valid = validator.is_valid(value)
        verdicts.add(valid)
        message = check(value)
        assert (message is None) == valid, (value, message)

    agree()
    assert verdicts == {True, False}


@pytest.mark.parametrize("schema", [
    {"oneOf": [{"type": "string"}, {"type": "integer"}]},
    {"$ref": "#/definitions/box"},
    {"type": "object", "additionalProperties": {"type": "integer"}},
    {"type": "array", "items": {"oneOf": [{"type": "string"}]}},
])
def test_keywords_outside_the_subset_are_refused_at_compile_time(schema):
    with pytest.raises(ValueError, match="not supported|must be true or false"):
        compile_schema(schema)


@pytest.mark.parametrize("schema, value, valid", [
    ({"type": "integer", "minimum": 0}, True, False),
    ({"type": "integer", "minimum": 0}, 1.0, True),
    ({"type": "integer", "minimum": 0}, 1.5, False),
    ({"type": "integer", "minimum": 0}, -1.0, False),
    ({"type": "integer", "minimum": 0}, "1", False),
    ({"minimum": 1}, False, True),
    ({"minimum": 1}, "0", True),
])
def test_draft7_number_semantics(schema, value, valid):
    # a bool is not an integer, an integral float is one, and minimum reads
    # only numbers, of which a bool is none
    assert (compile_schema(schema)(value) is None) == valid
    assert jsonschema.Draft7Validator(schema).is_valid(value) == valid


def test_polynomial_without_variables_is_rejected_by_schema_and_reader():
    # the cache reader refuses a document with no variables, and so does the schema
    doc = {"terms": [{"dx": 1, "dy": 0, "c": "1"}]}
    message = packaged_check("polynomial.schema.json")(doc)
    assert message is not None and "variables" in message
    assert not jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json")).is_valid(doc)
    with pytest.raises(ValueError, match="variables"):
        BivariatePolynomial.from_json_dict(doc)
    BivariatePolynomial.from_json_dict({**doc, "variables": ["x", "y"]})
    assert packaged_check("polynomial.schema.json")({**doc, "variables": ["x", "y"]}) is None
