"""Small shared helpers."""

import dataclasses
import json
import math

import numpy as np

from .errors import ConfigError, UsageError


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
        raise UsageError(f"missing file {path}")
    except ValueError as e:
        raise UsageError(f"{path} is not valid JSON: {e}")


def dataclass_from_dict(cls, doc, what, skip=()):
    """``cls(**doc)`` for a JSON object ``doc``, leaving out the keys in ``skip``.

    A value that is not an object, or a key that is neither a field of
    ``cls`` nor in ``skip``, is a ConfigError naming ``what``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, not {type(doc).__name__}")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - fields - set(skip)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {what}; "
                          f"known keys are {sorted(fields | set(skip))}")
    return cls(**{k: v for k, v in doc.items() if k in fields})


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
