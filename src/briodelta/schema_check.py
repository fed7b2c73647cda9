"""Compile a draft-07 JSON schema into a tree of plain Python checks.

compile_schema(schema) returns a check with jsonschema's verdict, at a
fraction of the cost of its generic interpreter.  It gives None for a valid
document, else the (path, keyword) of the first failure it meets: the keys
and indices down to the failing value, and the keyword that rejects it as
jsonschema names that error's `validator`.

It supports exactly the keywords the packaged schemas use: type (a name or a
list of names), required, properties, additionalProperties: false, items
(one schema), minItems, enum, anyOf and $ref to #/definitions/<name> with no
other keyword beside it.  $schema, title and definitions are skipped.  Any
other keyword, or a keyword used another way, raises ValueError when the
schema is compiled, so an edit to a schema can never quietly widen what the
check accepts.

The type and equality rules are jsonschema's: number and integer exclude
bool, integer accepts an integral float, and enum tells True apart from 1
but treats 1 as equal to 1.0.
"""

from __future__ import annotations

from numbers import Number
from typing import Callable

Failure = tuple[tuple, str]
Check = Callable[[object], Failure | None]

_IGNORED = frozenset({"$schema", "title", "definitions"})
_OBJECT_KEYWORDS = ("required", "properties", "additionalProperties")
_ARRAY_KEYWORDS = ("items", "minItems")
_KEYWORDS = frozenset(("type", "enum", "anyOf") + _OBJECT_KEYWORDS + _ARRAY_KEYWORDS)
_REF_PREFIX = "#/definitions/"


# Leaf checks return their failure themselves: an accepted leaf costs one call.
def _number(x):
    if type(x) is float or (isinstance(x, Number) and not isinstance(x, bool)):
        return None
    return (), "type"


def _integer(x):
    if isinstance(x, bool):
        return (), "type"
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return None
    return (), "type"


_TYPES: dict[str, Check] = {
    "object": lambda x: None if isinstance(x, dict) else ((), "type"),
    "array": lambda x: None if isinstance(x, list) else ((), "type"),
    "string": lambda x: None if isinstance(x, str) else ((), "type"),
    "boolean": lambda x: None if isinstance(x, bool) else ((), "type"),
    "null": lambda x: None if x is None else ((), "type"),
    "number": _number,
    "integer": _integer,
}


def compile_schema(schema: dict) -> Check:
    """Check of documents against `schema`: None, or the first (path, keyword) failing."""
    definitions = schema.get("definitions", {})
    refs: dict[str, Check | None] = {}

    def ref(target) -> Check:
        name = target.removeprefix(_REF_PREFIX) if isinstance(target, str) else target
        if name == target or name not in definitions or any(c in name for c in "/~%"):
            raise ValueError(f"unsupported $ref {target!r}")
        if target not in refs:
            refs[target] = None
            refs[target] = build(definitions[name])
        if refs[target] is None:
            raise ValueError(f"recursive $ref {target!r} is not supported")
        return refs[target]

    def build(node) -> Check:
        if not isinstance(node, dict):
            raise ValueError(f"unsupported schema {node!r}")
        if "$ref" in node:
            if len(node) != 1:
                raise ValueError(f"$ref with sibling keywords: {sorted(node)}")
            return ref(node["$ref"])
        unknown = node.keys() - _KEYWORDS - _IGNORED
        if unknown:
            raise ValueError(f"unsupported schema keywords: {sorted(unknown)}")
        checks = []
        if "type" in node:
            checks.append(_type(node["type"]))
        if "enum" in node:
            checks.append(_enum(node["enum"]))
        if "anyOf" in node:
            subs = [build(sub) for sub in node["anyOf"]]
            checks.append(lambda x: None if any(s(x) is None for s in subs) else ((), "anyOf"))
        if any(k in node for k in _OBJECT_KEYWORDS):
            closed = node.get("additionalProperties", True)
            if "additionalProperties" in node and closed is not False:
                raise ValueError(f"additionalProperties must be false, got {closed!r}")
            props = {k: build(sub) for k, sub in node.get("properties", {}).items()}
            checks.append(_object(tuple(node.get("required", ())), props, closed is False))
        if any(k in node for k in _ARRAY_KEYWORDS):
            items = node.get("items")
            checks.append(_array(None if items is None else build(items),
                                 node.get("minItems", 0)))
        return _all(checks)

    return build(schema)


def _all(checks: list[Check]) -> Check:
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for c in checks:
            failure = c(x)
            if failure is not None:
                return failure
        return None
    return check


def _type(names) -> Check:
    names = [names] if isinstance(names, str) else names
    unknown = [n for n in names if n not in _TYPES]
    if unknown:
        raise ValueError(f"unsupported type {unknown!r}")
    checks = [_TYPES[n] for n in names]
    if len(checks) == 1:
        return checks[0]
    return lambda x: None if any(c(x) is None for c in checks) else ((), "type")


def _enum_key(x):
    # jsonschema's enum equality: a bool equals only itself, and any other
    # scalar compares by ==, so 1 matches 1.0.
    return (bool, x) if isinstance(x, bool) else (None, x)


def _enum(values) -> Check:
    if any(isinstance(v, (list, dict)) for v in values):
        raise ValueError(f"unsupported enum of containers {values!r}")
    keys = frozenset(_enum_key(v) for v in values)

    def check(x):
        try:
            if _enum_key(x) in keys:
                return None
        except TypeError:  # unhashable: a list or an object equals no scalar
            pass
        return (), "enum"
    return check


def _object(required: tuple, props: dict[str, Check], closed: bool) -> Check:
    def check(x):
        if not isinstance(x, dict):
            return None
        for key in required:
            if key not in x:
                return (), "required"
        for key, value in x.items():
            sub = props.get(key)
            if sub is None:
                if closed:
                    return (), "additionalProperties"
            else:
                failure = sub(value)
                if failure is not None:
                    return (key,) + failure[0], failure[1]
        return None
    return check


def _array(items: Check | None, min_items: int) -> Check:
    def check(x):
        if not isinstance(x, list):
            return None
        if len(x) < min_items:
            return (), "minItems"
        if items is not None:
            for i, e in enumerate(x):
                failure = items(e)
                if failure is not None:
                    return (i,) + failure[0], failure[1]
        return None
    return check
