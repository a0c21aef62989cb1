"""The schema checks against jsonschema's Draft-7 validator, the oracle: they
must accept exactly the values it accepts, and the polynomial reader exactly
those with no degree twice."""

import jsonschema
import pytest
from hypothesis import example, given, settings
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


def reads(doc):
    """Whether ``BivariatePolynomial.from_json_dict`` reads ``doc``."""
    try:
        BivariatePolynomial.from_json_dict(doc)
    except ValueError:
        return False
    return True


def distinct_degrees(doc):
    degrees = [(term["dx"], term["dy"]) for term in doc["terms"]]
    return len(set(degrees)) == len(degrees)


def one_in_ten(draw):
    return draw(st.integers(0, 9)) == 0


@st.composite
def near(draw, schema, values):
    """A value of ``schema``'s shape in which each part is replaced by one of
    ``values`` one time in ten, each optional property is present half the
    time, each required one nine times in ten, each list is as long as
    ``minItems`` and ``maxItems`` allow two times in three and up to one item
    shorter or longer otherwise, and each string of a ``pattern`` matches it
    half the time: random values alone are almost never valid."""
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
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", 3)
        if draw(st.integers(0, 2)) == 0:
            lo, hi = max(lo - 1, 0), hi + 1
        return [draw(near(schema["items"], values)) for _ in range(draw(st.integers(lo, hi)))]
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    if schema.get("type") == "string":
        if "pattern" in schema and draw(st.booleans()):
            return draw(st.from_regex(schema["pattern"]))
        return draw(st.sampled_from(STRINGS))
    return draw(st.integers(-1, 5) | st.integers(-1, 5).map(float))


def polynomial_documents():
    """Polynomial documents with coefficients of the schema's pattern, whose
    degrees are small ints or integral floats two times in three and a
    negative, a bool or another float otherwise, and whose first term is
    repeated half the time."""
    term = packaged_schema("polynomial.schema.json")["properties"]["terms"]["items"]
    degree = st.integers(0, 2) | st.integers(0, 2).map(float) | st.sampled_from([-1, True, 0.5])
    coefficient = st.from_regex(term["properties"]["c"]["pattern"])
    terms = st.lists(
        st.fixed_dictionaries({"dx": degree, "dy": degree, "c": coefficient}), max_size=3
    )
    terms |= terms.map(lambda ts: ts + ts[:1])
    return st.fixed_dictionaries({"variables": st.just(["x", "y"]), "terms": terms})


# one explicit document per verdict the property asserts, so that every
# verdict occurs whatever the draw
VERDICT_EXAMPLES = {
    "ideal-spec.schema.json": [
        {"type": "B", "rank": 3, "roots": [[1, 2, 2]]},  # valid
        {"rank": 3, "roots": [[1, 2, 2]]},  # invalid: no type
    ],
    "polynomial.schema.json": [
        # invalid: a negative degree
        {"variables": ["x", "y"], "terms": [{"dx": -1, "dy": 0, "c": "1"}]},
        # valid, with a repeated degree
        {"variables": ["x", "y"],
         "terms": [{"dx": 1, "dy": 0, "c": "2"}, {"dx": 1, "dy": 0, "c": "-3"}]},
        # valid, with distinct degrees
        {"variables": ["x", "y"],
         "terms": [{"dx": 2, "dy": 0, "c": "1"}, {"dx": 0, "dy": 1, "c": "1"}]},
    ],
}


@pytest.mark.parametrize("name", SCHEMAS)
def test_compiled_check_agrees_with_draft7(name):
    schema = packaged_schema(name)
    validator = jsonschema.Draft7Validator(schema)
    check = packaged_check(name)
    verdicts = set()
    values = json_values(schema)
    inputs = values | near(schema, values)
    if name == "polynomial.schema.json":
        inputs |= polynomial_documents()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(inputs)
    def agree(value):
        valid = validator.is_valid(value)
        message = check(value)
        assert (message is None) == valid, (value, message)
        verdict = valid
        if name == "polynomial.schema.json":
            # the reader takes what the schema does, with no degree twice
            verdict = valid, valid and distinct_degrees(value)
            assert reads(value) == verdict[1], value
        verdicts.add(verdict)

    for doc in VERDICT_EXAMPLES[name]:
        agree = example(doc)(agree)
    agree()
    if name == "polynomial.schema.json":
        assert verdicts == {(False, False), (True, False), (True, True)}
    else:
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
    # the JSON reader refuses a document with no variables, and so does the schema
    doc = {"terms": [{"dx": 1, "dy": 0, "c": "1"}]}
    message = packaged_check("polynomial.schema.json")(doc)
    assert message is not None and "variables" in message
    assert not jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json")).is_valid(doc)
    with pytest.raises(ValueError, match="variables"):
        BivariatePolynomial.from_json_dict(doc)
    BivariatePolynomial.from_json_dict({**doc, "variables": ["x", "y"]})
    assert packaged_check("polynomial.schema.json")({**doc, "variables": ["x", "y"]}) is None


def test_reader_reads_every_document_the_schema_accepts():
    # an integral float is an integer degree in Draft 7, and the pattern's $
    # matches before a trailing newline: the reader takes both
    doc = {"variables": ["x", "y"], "terms": [{"dx": 1.0, "dy": 0, "c": "7\n"}]}
    assert jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json")).is_valid(doc)
    poly = BivariatePolynomial.from_json_dict(doc)
    assert poly.coeffs == {(1, 0): 7}
    assert all(type(d) is int for d in next(iter(poly.coeffs)))
