"""Small shared helpers."""

import dataclasses
import functools
import json
import math
import typing

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


_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object", np.ndarray: "a list"}


# Resolving the string annotations costs about 0.2 ms per class.
field_types = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def typed_value(value, tp, what, error=ConfigError):
    """``value`` checked against the declared type ``tp``, as ``tp`` stores it.

    An int takes a JSON integer (not true, not 64.7), a float any JSON
    number, stored as a float, a bool true or false and an ndarray a list,
    stored as an array; str, list and dict take their own JSON type.
    Anything else is ``error`` naming ``what``.
    """
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if tp is np.ndarray and isinstance(value, list):
        return np.asarray(value)
    if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise error(f"{what} must be {_JSON_TYPES[tp]}, got {value!r:.40}")


def check_finite(obj):
    """A ConfigError naming the first float field of ``obj`` that is NaN or infinite.

    Every config dataclass's ``validate`` calls this first, so a config file
    (JSON allows NaN and Infinity), a CLI flag and the Python API all pass
    through it.
    """
    types = field_types(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if types[f.name] is float and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")


def dataclass_from_dict(cls, doc, what, skip=(), error=ConfigError, keys=None, **parsed):
    """``cls(**doc)`` for a JSON object ``doc``, each value of its field's type.

    The keys in ``skip`` are left out.  ``parsed`` holds the fields the
    caller has built itself and passes them on unchecked.  A ``doc`` that is
    not an object, a key that is neither a field of ``cls`` (one of ``keys``,
    if given) nor in ``skip``, a missing field without a default and a value
    of the wrong type (``typed_value``) are each ``error`` naming ``what``.
    """
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, not {type(doc).__name__}")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields} if keys is None else set(keys)
    unknown = set(doc) - names - set(skip)
    if unknown:
        raise error(f"unknown keys {sorted(unknown)} in {what}; "
                    f"known keys are {sorted(names | set(skip))}")
    missing = [f.name for f in fields if f.name not in doc and f.name not in parsed
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"{what} lacks the keys {missing}")
    types = field_types(cls)
    values = {name: typed_value(value, types[name], f"{name} in {what}", error)
              for name, value in doc.items() if name in names and name not in parsed}
    return cls(**values, **parsed)


class JsonFields:
    """save/load for a dataclass of numbers and arrays, as one JSON object.

    Arrays are written as nested lists and read back as arrays; ``load``
    checks every field's type (``typed_value``) and ignores keys that are
    not fields, such as the ``extra`` keys ``save`` writes beside them.
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
        names = {f.name for f in dataclasses.fields(cls)}
        return dataclass_from_dict(cls, {k: v for k, v in doc.items() if k in names},
                                   str(path), error=UsageError)
