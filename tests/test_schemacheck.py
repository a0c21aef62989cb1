"""The package's direct JSON checks against jsonschema's Draft-7 validator on
the packaged schemas, the oracle: ``cli.parse_ideal_spec`` and
``BivariatePolynomial.from_json_dict`` read no schema, and must refuse by
the schema exactly the values the validator refuses; the polynomial reader
must read exactly the valid documents with no degree twice."""

from itertools import chain

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import packaged_schema
from idealtutte.cli import parse_ideal_spec
from idealtutte.errors import IdealTutteError
from idealtutte.exactpoly import BivariatePolynomial

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


def passes(read, value, refused):
    """``read(value)``'s verdict: "schema" when it refuses the value by the
    schema, "other" when it refuses it for another reason (an ideal spec
    that names no ideal, a polynomial that gives a degree twice), and
    "read" when it reads it."""
    try:
        read(value)
    except refused as exc:
        return "schema" if "rejected by schema: $" in str(exc) else "other"
    return "read"


READERS = {
    "ideal-spec.schema.json": (parse_ideal_spec, IdealTutteError),
    "polynomial.schema.json": (BivariatePolynomial.from_json_dict, ValueError),
}


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


# values on either side of Draft 7's integer type, as a root coordinate and
# as a degree (see test_draft7_number_semantics)
NUMBER_CASES = [True, 1.0, 1.5, -1.0, "1"]

# one explicit document per verdict the property asserts, so that every
# verdict occurs whatever the draw
VERDICT_EXAMPLES = {
    "ideal-spec.schema.json": [
        {"type": "B", "rank": 3, "roots": [[1, 2, 2]]},  # valid
        {"rank": 3, "roots": [[1, 2, 2]]},  # invalid: no type
        *({"type": "G2", "roots": [[value, 1]]} for value in NUMBER_CASES),
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
        *({"variables": ["x", "y"], "terms": [{"dx": value, "dy": 0, "c": "1"}]}
          for value in NUMBER_CASES),
    ],
}


# valid documents, each of which one_point_changes breaks at one place
BASES = {
    "ideal-spec.schema.json": [
        {"type": "B", "rank": 3, "generating_boxes": [[1, 2]]},
        {"type": "B", "rank": 3, "roots": [[1, 2, 2]]},
    ],
    "polynomial.schema.json": [
        {"variables": ["x", "y"], "terms": [{"dx": 1, "dy": 0, "c": "2"}], "provenance": {}},
    ],
}
REPLACEMENTS = [None, True, 0, -1, 1.0, 1.5, *STRINGS, [], [1], [1, 2], ["x", "y", "z"], {}]


def one_point_changes(doc):
    """``doc`` with one part changed: replaced by each of REPLACEMENTS, and
    each object with a key removed or one more, each array one item longer
    or shorter."""
    yield from REPLACEMENTS
    if isinstance(doc, dict):
        yield {**doc, "extra": 1}
        for key, value in doc.items():
            yield {k: v for k, v in doc.items() if k != key}
            yield from ({**doc, key: change} for change in one_point_changes(value))
    elif isinstance(doc, list) and doc:
        yield doc + doc[:1]
        yield doc[:-1]
        for i, item in enumerate(doc):
            yield from (doc[:i] + [change] + doc[i + 1:] for change in one_point_changes(item))


@pytest.mark.parametrize("name", SCHEMAS)
def test_compiled_check_agrees_with_draft7(name):
    schema = packaged_schema(name)
    validator = jsonschema.Draft7Validator(schema)
    read, refused = READERS[name]
    verdicts = set()
    values = json_values(schema)
    inputs = values | near(schema, values)
    if name == "polynomial.schema.json":
        inputs |= polynomial_documents()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(inputs)
    def agree(value):
        valid = validator.is_valid(value)
        verdict = passes(read, value, refused)
        assert (verdict != "schema") == valid, (value, verdict)
        if name == "polynomial.schema.json":
            # the reader takes what the schema does, with no degree twice
            assert (verdict == "read") == (valid and distinct_degrees(value)), value
        verdicts.add(verdict)

    # the verdict examples, then a fault of each schema node alone,
    # whatever the random draws
    for doc in [*VERDICT_EXAMPLES[name], *chain(*map(one_point_changes, BASES[name]))]:
        agree = example(doc)(agree)
    agree()
    # an ideal spec that the schema takes may still name no ideal
    assert verdicts == {"schema", "other", "read"}


@pytest.mark.parametrize("schema, value, valid", [
    ({"type": "integer", "minimum": 0}, True, False),
    ({"type": "integer", "minimum": 0}, 1.0, True),
    ({"type": "integer", "minimum": 0}, 1.5, False),
    ({"type": "integer", "minimum": 0}, -1.0, False),
    ({"type": "integer", "minimum": 0}, "1", False),
])
def test_draft7_number_semantics(schema, value, valid):
    # a bool is not an integer and an integral float is one, both at a root
    # coordinate and at a degree, the two places of this schema node
    ideal_spec, polynomial = (packaged_schema(name) for name in SCHEMAS)
    assert ideal_spec["properties"]["roots"]["items"]["items"] == schema
    assert polynomial["properties"]["terms"]["items"]["properties"]["dx"] == schema
    assert jsonschema.Draft7Validator(schema).is_valid(value) == valid
    spec = {"type": "G2", "roots": [[3, value]]}
    doc = {"variables": ["x", "y"], "terms": [{"dx": value, "dy": 0, "c": "1"}]}
    assert (passes(parse_ideal_spec, spec, IdealTutteError) != "schema") == valid
    assert (passes(BivariatePolynomial.from_json_dict, doc, ValueError) == "read") == valid


def test_polynomial_without_variables_is_rejected_by_schema_and_reader():
    # the JSON reader refuses a document with no variables, and so does the schema
    doc = {"terms": [{"dx": 1, "dy": 0, "c": "1"}]}
    validator = jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json"))
    assert not validator.is_valid(doc)
    with pytest.raises(ValueError, match=r"rejected by schema: \$: 'variables'"):
        BivariatePolynomial.from_json_dict(doc)
    assert validator.is_valid({**doc, "variables": ["x", "y"]})
    BivariatePolynomial.from_json_dict({**doc, "variables": ["x", "y"]})


def test_reader_reads_every_document_the_schema_accepts():
    # an integral float is an integer degree in Draft 7, and the pattern's $
    # matches before a trailing newline: the reader takes both
    doc = {"variables": ["x", "y"], "terms": [{"dx": 1.0, "dy": 0, "c": "7\n"}]}
    assert jsonschema.Draft7Validator(packaged_schema("polynomial.schema.json")).is_valid(doc)
    poly = BivariatePolynomial.from_json_dict(doc)
    assert poly.coeffs == {(1, 0): 7}
    assert all(type(d) is int for d in next(iter(poly.coeffs)))
