"""Small shared helpers."""

import dataclasses
import json
import math

import numpy as np

from .errors import UsageError


def round_half_up(v):
    """Round to nearest integer, ties away from zero-point-five upward.

    Python's built-in round() rounds ties to even (2.5 -> 2), which is the
    wrong convention for the layer-width and sample-count rules used here.
    """
    return int(math.floor(v + 0.5))


def write_json(doc, path):
    """The output format of every JSON file: sorted keys, indent 2, final newline."""
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def read_json(path):
    """Parse a JSON file; a missing or unparsable file is a UsageError naming it."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise UsageError(f"missing artifact {path}")
    except ValueError as e:
        raise UsageError(f"{path} is not valid JSON: {e}")


class JsonFields:
    """save/load for a dataclass of numbers and arrays, as one JSON object.

    Arrays are written as nested lists and every list is read back as an
    array.  ``load`` ignores keys that are not fields, such as the
    ``extra`` keys ``save`` writes beside them.
    """

    def save(self, path, **extra):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            extra[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        write_json(extra, path)

    @classmethod
    def load(cls, path):
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise UsageError(f"{path} does not hold a JSON object")
        values = {}
        for f in dataclasses.fields(cls):
            if f.name not in doc:
                raise UsageError(f"{path} lacks the field {f.name!r}")
            value = doc[f.name]
            values[f.name] = np.asarray(value) if isinstance(value, list) else value
        return cls(**values)
