"""Small shared helpers, among them ``typed_fields``, the one reader of every
JSON object in a config, artifact, checkpoint, dataset line or report.json,
and ``create``, the one opener of every file the package writes."""

import dataclasses
import functools
import json
import math
import os
import stat
import typing

import numpy as np

from .errors import ConfigError, UsageError


def round_half_up(v):
    """Round to nearest integer, ties away from zero-point-five upward.

    Python's built-in round() rounds ties to even (2.5 -> 2), which is the
    wrong convention for the layer-width and sample-count rules used here.
    """
    return int(math.floor(v + 0.5))


def create(path):
    """``path`` opened as a new, empty text file: an existing regular file
    there is removed first, never truncated in place.

    Truncating a file in place, or renaming a new one over it, can stall
    for over a second on an ext4 file system mounted with ``discard``;
    removing the name first avoids that.  So a hard link at ``path`` is
    replaced, and its other names keep the old bytes, and the new file
    gets the mode and owner of a new file, not the old one's.  Anything
    else at ``path`` (a symlink, FIFO or device) is written through, as
    ``open`` does, and never removed.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w")


def write_json(doc, path):
    """The output format of every JSON file: sorted keys, indent 2, final newline."""
    with create(path) as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def unique_keys(pairs):
    """``object_pairs_hook`` for ``json``: an object that repeats a key, whose
    last value plain ``json`` would keep, is a ValueError naming the key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def read_json(path):
    """Parse a JSON file; a missing or unparsable file, or one that repeats
    a key in an object, is a UsageError naming it."""
    try:
        with open(path) as f:
            return json.load(f, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise UsageError(f"missing file {path}")
    except ValueError as e:
        raise UsageError(f"{path} is not valid JSON: {e}")


_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list", dict: "an object", np.ndarray: "a list of numbers in equal rows"}


# Resolving the string annotations costs about 0.2 ms per class.
field_types = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def typed_value(value, tp, what, error=ConfigError):
    """``value`` checked against the declared type ``tp``, as ``tp`` stores it.

    An int takes a JSON integer (not true, not 64.7), a float any JSON
    number, stored as a float, a bool true or false and an ndarray nested
    lists of numbers in equal rows, stored as a float64 array; str, list
    and dict take their own JSON type, and object any value.  Anything else,
    an integer too large for a float included, is ``error`` naming ``what``.
    """
    if tp is object:
        return value
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise error(f"{what} is outside the float range, got an integer of "
                        f"{len(str(abs(value)))} digits") from None
    if tp is np.ndarray and isinstance(value, list):
        cells = np.array(value, dtype=object)  # a ragged list leaves lists in cells
        try:
            if set(map(type, cells.flat)) <= {int, float}:
                return cells.astype(np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
    if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise error(f"{what} must be {_JSON_TYPES[tp]}, got {value!r:.40}")


def _is_declared(value, tp) -> bool:
    """Whether ``value`` is of ``tp``: a class, an Optional or a List of one."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union:
        return any(_is_declared(value, arg) for arg in args)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(isinstance(v, args[0]) for v in value)
    return isinstance(value, tp)


def _type_name(tp) -> str:
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union:
        return " or ".join(map(_type_name, args))
    if typing.get_origin(tp) is list:
        return f"a list of {args[0].__name__}"
    return "None" if tp is type(None) else _JSON_TYPES.get(tp, f"a {tp.__name__}")


def check_types_and_finiteness(obj):
    """Each field of ``obj`` checked against its declared type: an int,
    float, bool or str field is passed through ``typed_value`` and stored
    back, so an int in a float field becomes a float, and any other field
    must be of its class, its Optional or its List.  A ConfigError names
    the first field of the wrong type or the first float field that is NaN
    or infinite.

    Every config dataclass's ``validate`` calls this first, so a config file
    (JSON allows NaN and Infinity), a CLI flag and the Python API all pass
    through it.
    """
    types = field_types(type(obj))
    for name in [f.name for f in dataclasses.fields(obj)]:
        if types[name] not in (int, float, bool, str):
            if not _is_declared(getattr(obj, name), types[name]):
                raise ConfigError(f"{name} must be {_type_name(types[name])}, "
                                  f"got {getattr(obj, name)!r:.40}")
            continue
        value = typed_value(getattr(obj, name), types[name], name)
        if types[name] is float and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        setattr(obj, name, value)


def check_keys(keys, known, what, error=ConfigError):
    """A key of ``keys`` that is not in ``known`` is ``error`` naming it and ``what``."""
    unknown = set(keys) - set(known)
    if unknown:
        raise error(f"unknown keys {sorted(unknown)} in {what}; known keys are {sorted(known)}")


def typed_fields(doc, types, what, error=ConfigError, required=()):
    """The JSON object ``doc``, each value as ``typed_value`` stores its key's
    type in ``types``.  A ``doc`` that is not an object, a key not in ``types``,
    a missing key of ``required`` and a value of the wrong type (named
    ``<key> in <what>``) are each ``error`` naming ``what``."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, not {type(doc).__name__}")
    check_keys(doc, types, what, error)
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{what} lacks the keys {missing}")
    return {key: typed_value(value, types[key], f"{key} in {what}", error)
            for key, value in doc.items()}


def dataclass_from_dict(cls, doc, what, error=ConfigError):
    """``cls(**doc)`` for a JSON object ``doc`` read by ``typed_fields``, whose
    required keys are the fields of ``cls`` without a default."""
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    return cls(**typed_fields(doc, field_types(cls), what, error, required))


class JsonFields:
    """save/load for a dataclass of numbers and arrays, as one JSON object.

    Arrays are written as nested lists and read back as arrays.  ``load``
    checks every field's type (``typed_value``) and that it is finite.  An
    array is a vector of length ``n`` unless ``SHAPES`` names its
    dimensions; each name is one length in every field.  A key that is not
    a field is refused, as in a config file.
    """
    SHAPES = {}

    def save(self, path):
        doc = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        write_json(doc, path)

    @classmethod
    def load(cls, path):
        obj = dataclass_from_dict(cls, read_json(path), str(path), error=UsageError)
        lengths = {}
        for f in dataclasses.fields(cls):
            value = getattr(obj, f.name)
            dims = cls.SHAPES.get(f.name, ("n",)) if isinstance(value, np.ndarray) else ()
            if isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
                raise UsageError(f"{f.name} in {path} must be finite")
            if np.ndim(value) != len(dims) or any(lengths.setdefault(d, n) != n
                                                  for d, n in zip(dims, np.shape(value))):
                raise UsageError(f"{f.name} in {path} has the shape {np.shape(value)}, not "
                                 f"({', '.join(dims)}) with each name one length in every field")
        return obj
