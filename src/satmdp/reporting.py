"""Run reports: a fixed JSON shape every CLI subcommand emits, checked
against a published JSON Schema, `REPORT_SCHEMA` (Draft 2020-12). Reports are
reproducible from (config, seed); wallclock is the one volatile field.

`validate_report` reads its rules from `REPORT_SCHEMA` and applies them
itself, each keyword with jsonschema's meaning, so no command imports
jsonschema (80-136 ms and 3 MB per process on a 2-CPU box). The tests check
that the two agree.
"""
from __future__ import annotations

import hashlib
import json
import numbers
import re

from .errors import InvariantViolation

_DRAFT_2020_12 = "https://json-schema.org/draft/2020-12/schema"

REPORT_SCHEMA = {
    "$schema": _DRAFT_2020_12,
    "type": "object",
    "required": ["command", "config_hash", "seed", "outcomes", "wallclock_sec"],
    "properties": {
        "command": {"type": "string"},
        # `$` also matches before a final newline, so maxLength holds the 64
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$",
                        "maxLength": 64},
        "seed": {"type": ["integer", "null"]},
        "outcomes": {"type": "object"},
        "answer": {"type": ["string", "null"]},
        "wallclock_sec": {"type": "number"},
    },
    "additionalProperties": False,
}

# the Draft 2020-12 types the schema uses, as jsonschema checks them: a bool
# is neither an integer nor a number, and an integer-valued float is an integer
_JSON_TYPES = {
    "null": lambda x: x is None,
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "number": lambda x: not isinstance(x, bool) and isinstance(x, numbers.Number),
    "string": lambda x: isinstance(x, str),
    "object": lambda x: isinstance(x, dict),
}


def _field_rules(schema: dict) -> list:
    """[(field, type names, pattern or None, maxLength or None)] of `schema`,
    which must be a Draft 2020-12 object schema with `required`, `properties`
    and `additionalProperties: false`, each field with a `type` and at most a
    `pattern` and a `maxLength`. Any other keyword or value raises
    `InvariantViolation`, so an edit to the schema cannot go unchecked."""
    keywords = {"$schema", "type", "required", "properties",
                "additionalProperties"}
    if (set(schema) != keywords or schema["$schema"] != _DRAFT_2020_12
            or schema["type"] != "object"
            or schema["additionalProperties"] is not False):
        raise InvariantViolation(
            f"the report check reads {sorted(keywords)} of a Draft 2020-12 "
            f"object schema with additionalProperties false, not {schema!r}")
    rules = []
    for name, rule in schema["properties"].items():
        types = rule.get("type")
        types = [types] if isinstance(types, str) else types
        if (not set(rule) <= {"type", "pattern", "maxLength"} or not types
                or not set(types) <= _JSON_TYPES.keys()):
            raise InvariantViolation(
                f"report field {name!r}: the check reads a JSON type or type "
                f"list, a pattern and a maxLength, not {rule!r}")
        rules.append((name, types, rule.get("pattern"), rule.get("maxLength")))
    return rules


#: Fields a byte-level reproducibility comparison must ignore.
VOLATILE_FIELDS = ("wallclock_sec",)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_report(command: str, config: dict, seed, outcomes: dict,
                wallclock_sec: float, answer=None) -> dict:
    report = {
        "command": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "outcomes": outcomes,
        "answer": answer,
        "wallclock_sec": wallclock_sec,
    }
    validate_report(report)
    return report


def validate_report(report: dict):
    """Check `report` against `REPORT_SCHEMA`. A report is made by the package
    itself, so one that breaks a rule is a bug: `InvariantViolation`, naming
    the field and the rule."""
    rules = _field_rules(REPORT_SCHEMA)
    if not isinstance(report, dict):
        raise InvariantViolation(f"a report is a JSON object, not {report!r}")
    for name in REPORT_SCHEMA["required"]:
        if name not in report:
            raise InvariantViolation(f"report lacks the required field {name!r}")
    extra = report.keys() - REPORT_SCHEMA["properties"].keys()
    if extra:
        raise InvariantViolation(
            f"report fields {sorted(extra, key=repr)} are not in the schema, "
            "which allows no others")
    for name, types, pattern, max_length in rules:
        if name not in report:
            continue
        value = report[name]
        if not any(_JSON_TYPES[t](value) for t in types):
            raise InvariantViolation(
                f"report field {name!r}: {value!r} is not of type "
                + " or ".join(types))
        if pattern is not None and isinstance(value, str) \
                and not re.search(pattern, value):
            raise InvariantViolation(
                f"report field {name!r}: {value!r} does not match {pattern!r}")
        if max_length is not None and isinstance(value, str) \
                and len(value) > max_length:
            raise InvariantViolation(
                f"report field {name!r}: {value!r} is longer than {max_length}")


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
