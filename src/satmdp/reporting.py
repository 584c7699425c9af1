"""Run reports: a fixed JSON shape every CLI subcommand emits, validated
against a published schema. Reports are reproducible from (config, seed);
wallclock is the one volatile field.
"""
from __future__ import annotations

import functools
import hashlib
import json

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "config_hash", "seed", "outcomes", "wallclock_sec"],
    "properties": {
        "command": {"type": "string"},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed": {"type": ["integer", "null"]},
        "outcomes": {"type": "object"},
        "answer": {"type": ["string", "null"]},
        "wallclock_sec": {"type": "number"},
    },
    "additionalProperties": False,
}

# built by the first report: importing jsonschema took 80-100 ms on a 2-CPU
# Xeon, which a process that never reports should not pay. The schema itself is checked
# against its metaschema by the tests, since that check alone costs several
# ms per process.
@functools.cache
def _validator():
    import jsonschema
    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


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
    """Raise the `jsonschema.ValidationError` that `jsonschema.validate` would,
    without checking the schema again on every call."""
    from jsonschema.exceptions import best_match
    error = best_match(_validator().iter_errors(report))
    if error is not None:
        raise error


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
