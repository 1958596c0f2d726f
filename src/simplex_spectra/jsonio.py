"""JSON read/write helpers shared by every file format in the package.

The stock encoder writes each float as its repr(), the shortest text that
parses back to the identical IEEE double, so every file the package writes
loads back bit for bit: -0.0 keeps its sign and 1.0 stays a float.
Non-finite floats are refused on the way out and on the way in.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False)


def dump(payload, path) -> None:
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"non-finite value in JSON file: {name}")


def load(path):
    """Parse a JSON file, rejecting the NaN and Infinity constants that the
    stock decoder accepts and that no payload of the package contains, and
    any nesting too deep for the decoder's recursion."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


@contextmanager
def reading(what):
    """Refuse a malformed payload read in the block as one ValueError whose
    message starts with ``what``: a loader names its file, and a payload
    reader the top-level field, so the message gives both."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what}: no field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{what}: {exc}") from None
