"""Packaged schemas: valid draft-07, and they reject documents that break the contract.

Nothing checks a document at write time, so the schemas are the published
contract and jsonschema is their one validator.  Each rejection case makes
one edit to a real document and names the (path, keyword) that jsonschema
must report for it.
"""

from __future__ import annotations

import copy
import importlib.resources
import json

import jsonschema
import pytest

from briodelta import RiemannData, TransState, project, solve_brio
from briodelta.delta import solution_to_dict
from briodelta.riemann import build_fan, fan_to_dict
from briodelta.verify import property_suite

from conftest import region_iv_pair


def _schema(name: str) -> dict:
    path = importlib.resources.files("briodelta") / "schemas" / name
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def documents():
    # The solution has a v-flip, a rarefaction with v_sign -1 at regular[3]
    # and one delta carrier; the fan is region IV's two shocks.
    data = RiemannData(project(TransState(1.0, 5.0), 1.0),
                       project(TransState(0.7, 7.0), -1.0))
    solution = solution_to_dict(solve_brio(data))
    assert solution["regular"][3]["v_sign"] == -1.0 and solution["singular"]
    left, right, _ = region_iv_pair()
    return {
        "solution.schema.json": solution,
        "report.schema.json": property_suite(0),
        "fan.schema.json": fan_to_dict(build_fan(left, right)),
    }


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def _delete(*path):
    def edit(doc):
        for step in path[:-1]:
            doc = doc[step]
        del doc[path[-1]]
    return edit


_S, _R, _F = "solution.schema.json", "report.schema.json", "fan.schema.json"


@pytest.mark.parametrize("name, edit, path, keyword", [
    pytest.param(_S, _set("options", "flip_speed", "sideways"),
                 ("options", "flip_speed"), "anyOf", id="solution-flip-sideways"),
    pytest.param(_S, _set("options", "flip_speed", True),
                 ("options", "flip_speed"), "anyOf", id="solution-flip-bool"),
    pytest.param(_S, _delete("options"), (), "required", id="solution-no-options"),
    pytest.param(_S, _set("extra", 1), (), "additionalProperties", id="solution-extra-key"),
    pytest.param(_S, _set("regular", 0, "kind", "kink"),
                 ("regular", 0, "kind"), "enum", id="solution-segment-kind"),
    pytest.param(_S, _set("regular", []), ("regular",), "minItems", id="solution-no-segments"),
    pytest.param(_S, _set("regular", 3, "v_sign", 0.0),
                 ("regular", 3, "v_sign"), "enum", id="solution-v-sign-zero"),
    pytest.param(_S, _set("regular", 0, "xi_hi", True),
                 ("regular", 0, "xi_hi"), "type", id="solution-bound-bool"),
    pytest.param(_S, _set("initial", "left", "u", "1"),
                 ("initial", "left", "u"), "type", id="solution-state-string"),
    pytest.param(_S, _set("singular", 0, "component", "q"),
                 ("singular", 0, "component"), "enum", id="solution-carrier-component"),
    pytest.param(_R, _set("checks", 0, "passed", 1),
                 ("checks", 0, "passed"), "type", id="report-passed-int"),
    pytest.param(_R, _set("seed", 1.5), ("seed",), "type", id="report-seed-float"),
    pytest.param(_R, _set("checks", []), ("checks",), "minItems", id="report-no-checks"),
    pytest.param(_R, _delete("checks", 0, "measured"),
                 ("checks", 0), "required", id="report-no-measured"),
    pytest.param(_F, _set("waves", 0, "family", 3),
                 ("waves", 0, "family"), "enum", id="fan-family-3"),
    pytest.param(_F, _set("region", "V"), ("region",), "enum", id="fan-region-V"),
    pytest.param(_F, _delete("middle", "q"), ("middle",), "required", id="fan-middle-no-q"),
])
def test_schema_rejects_malformed_document(documents, name, edit, path, keyword):
    validator = jsonschema.Draft7Validator(_schema(name))
    doc = copy.deepcopy(documents[name])
    validator.validate(doc)
    edit(doc)
    errors = {(tuple(e.absolute_path), e.validator) for e in validator.iter_errors(doc)}
    assert errors == {(path, keyword)}


@pytest.mark.parametrize("name", ["solution.schema.json", "report.schema.json", "fan.schema.json"])
def test_packaged_schemas_pass_the_meta_check(name):
    schema = _schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)
