"""Compiled schema checks: jsonschema's verdict and error, unsupported schemas refused."""

from __future__ import annotations

import copy
import importlib.resources
import json

import jsonschema
import pytest

from briodelta.cli import main
from briodelta.riemann import build_fan, fan_to_dict
from briodelta.schema_check import compile_schema
from briodelta.verify import property_suite

from conftest import region_iv_pair

# Replacement values: every JSON kind, bool next to the equal ints and
# floats, and strings and objects that other parts of the schemas accept.
VALUES = (None, True, False, 0, 1, 2, 1.0, -1.0, 3.5, "x", "rh", "constant", "v",
          [], {}, [1], {"u": 1})

# Data of the CLI tests' solve runs: a v-flip, equal states, one sign, a
# negative u.
SOLVE_DATA = (("1,3", "0.7,-3.3"), ("0.4,-1.3", "0.4,-1.3"), ("1,3", "0.7,3.3"),
              ("-1,2", "1,1"))


def _schema(name: str) -> dict:
    path = importlib.resources.files("briodelta") / "schemas" / name
    return json.loads(path.read_text())


def _mutations(doc):
    """Make each single mutation of doc in place, yield, then undo it.

    A mutation deletes a key or a list item, adds a key or a list item, or
    replaces a value with one of VALUES.  An added key is any key the
    document uses elsewhere, or "extra", with that key's value from
    elsewhere in the document and with one of VALUES in turn.
    """
    seen: dict = {}

    def collect(node):
        if isinstance(node, dict):
            for key, value in node.items():
                seen.setdefault(key, copy.deepcopy(value))
                collect(value)
        elif isinstance(node, list):
            for value in node:
                collect(value)

    collect(doc)
    seen["extra"] = 1
    added = 0

    def visit(node):
        nonlocal added
        slots = list(node) if isinstance(node, dict) else range(len(node))
        for slot in slots:
            old = node[slot]
            del node[slot]
            yield
            if isinstance(node, dict):
                node[slot] = old
            else:
                node.insert(slot, old)
            for value in VALUES:
                node[slot] = value
                yield
            node[slot] = old
            if isinstance(old, (dict, list)):
                yield from visit(old)
        if isinstance(node, dict):
            for key in [k for k in seen if k not in node]:
                for value in (seen[key], VALUES[added % len(VALUES)]):
                    node[key] = value
                    yield
                del node[key]
                added += 1
        else:
            for value in VALUES:
                node.append(value)
                yield
                node.pop()

    yield from visit(doc)


def _cli_solutions(tmp_path) -> list:
    docs = []
    for i, (left, right) in enumerate(SOLVE_DATA):
        out = tmp_path / str(i)
        assert main(["solve", f"--left={left}", f"--right={right}", "--out", str(out)]) == 0
        docs.append(json.loads((out / "solution.json").read_text()))
    return docs


def test_compiled_check_agrees_with_jsonschema(tmp_path, fixture_pair, capsys):
    # Same verdict on every mutation, and a rejection names one of the
    # (path, validator) pairs of jsonschema's own errors.
    documents = {
        "solution.schema.json": _cli_solutions(tmp_path),
        "report.schema.json": [property_suite(0)],
        "fan.schema.json": [fan_to_dict(build_fan(*fixture_pair)),
                            fan_to_dict(build_fan(*region_iv_pair()[:2]))],
    }
    capsys.readouterr()
    for name, docs in documents.items():
        schema = _schema(name)
        check = compile_schema(schema)
        reference = jsonschema.Draft7Validator(schema)
        count, mismatches = 0, []
        for doc in docs:
            assert check(doc) is None and reference.is_valid(doc)
            for _ in _mutations(doc):
                count += 1
                failure = check(doc)
                if failure is None:
                    agrees = reference.is_valid(doc)
                else:  # one of (path, validator) of its errors, so also invalid
                    agrees = any((tuple(e.absolute_path), e.validator) == failure
                                 for e in reference.iter_errors(doc))
                if not agrees:
                    mismatches.append((json.dumps(doc), failure))
            assert reference.is_valid(doc)
        assert count > 500 * len(docs), (name, count)
        assert mismatches == [], (name, mismatches[:3])


@pytest.mark.parametrize("schema", [
    {"type": "number", "minimum": 0},
    {"type": "object", "additionalProperties": {}},
    {"type": "object", "additionalProperties": True},
    {"items": [{"type": "number"}]},
    {"type": "decimal"},
    {"enum": [[1], 2]},
    {"$ref": "#/definitions/a", "type": "object", "definitions": {"a": {}}},
    {"$ref": "#/definitions/missing"},
    {"$ref": "other.json#/definitions/a", "definitions": {"a": {}}},
    {"properties": {"x": {"$ref": "#/definitions/a"}},
     "definitions": {"a": {"$ref": "#/definitions/a"}}},
    {"properties": {"x": True}},
])
def test_unsupported_schemas_are_refused(schema):
    with pytest.raises(ValueError):
        compile_schema(schema)


def test_type_and_enum_semantics():
    def accepts(check, values):
        return [check(x) is None for x in values]

    number, integer = compile_schema({"type": "number"}), compile_schema({"type": "integer"})
    assert accepts(number, (1, 1.5, True, "1", None)) == [True, True, False, False, False]
    assert accepts(integer, (1, 2.0, 2.5, False)) == [True, True, False, False]
    assert number("1") == integer(2.5) == ((), "type")
    ints, flags = compile_schema({"enum": [1, 2]}), compile_schema({"enum": [True, None]})
    assert accepts(ints, (1, 1.0, 2.0, True, "1", [1])) == [True, True, True, False, False, False]
    assert accepts(flags, (True, 1, None, 0, False)) == [True, False, True, False, False]
    assert ints([1]) == flags(0) == ((), "enum")


def test_failure_path_and_keyword():
    check = compile_schema({
        "type": "object", "required": ["a"], "additionalProperties": False,
        "properties": {"a": {"type": "array", "minItems": 1,
                             "items": {"$ref": "#/definitions/x"}}},
        "definitions": {"x": {"anyOf": [{"type": "null"}, {"enum": ["y"]}]}},
    })
    assert check({"a": [None, "y"]}) is None
    assert check([]) == ((), "type")
    assert check({}) == ((), "required")
    assert check({"a": [None], "b": 1}) == ((), "additionalProperties")
    assert check({"a": []}) == (("a",), "minItems")
    assert check({"a": [None, "z"]}) == (("a", 1), "anyOf")


@pytest.mark.parametrize("name", ["solution.schema.json", "report.schema.json", "fan.schema.json"])
def test_packaged_schemas_pass_the_meta_check(name):
    # The CLI compiles the packaged schemas without jsonschema, so their
    # draft-07 meta-check is made here.
    schema = _schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)
