"""JSON read/write helpers shared by every file format in the package.

Floats are written with 17 significant digits so that each value parses back
to the identical IEEE double. The stock encoder formats floats with repr(),
so dicts and lists are laid out here as ``json.dumps(..., indent=INDENT)``
lays them out, and every other scalar and every key goes through json.dumps.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

INDENT = 2


def _float17(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in JSON payload: {value!r}")
    return format(value, ".17g")


def _encode(value, level: int) -> str:
    if isinstance(value, dict):
        # a key that is not a string is written as the string of its JSON text
        items = [
            json.dumps(k if isinstance(k, str) else _encode(k, level))
            + ": " + _encode(v, level + 1)
            for k, v in value.items()
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_encode(v, level + 1) for v in value]
        brackets = "[]"
    else:
        return _float17(value) if isinstance(value, float) else json.dumps(value)
    if not items:
        return brackets
    inner = "\n" + " " * (INDENT * (level + 1))
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + " " * (INDENT * level) + brackets[1])


def dumps(payload) -> str:
    return _encode(payload, 0)


def dump(payload, path) -> None:
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"non-finite value in JSON file: {name}")


def load(path):
    """Parse a JSON file, rejecting the NaN and Infinity constants that the
    stock decoder accepts and that no payload of the package contains."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)
