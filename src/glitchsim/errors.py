"""The library's exception types and its JSON boundary: ``parse``, the
one reader of config and scenario files, the type check it makes of each
loaded value, and ``echo``, the one writer.  ``GlitchSimError`` has two
families: ``ConfigError``, refused input (the CLI exits 2), and
``SearchFailed``, a search without a result (exit 1)."""

from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints

_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "a JSON object", list: "a JSON list"}


def check_type(kind: type, where: str, value):
    """``value`` if its type is exactly ``kind``, where a float may also be
    an int: a JSON true is no integer and no number.  TypeError otherwise."""
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise TypeError(f"{where} must be {_KINDS[kind]}, got {value!r}")


def parse(cls, data, where: str, retired: Mapping[type, tuple[str, ...]]):
    """The ``cls`` dataclass that the JSON object ``data`` describes, the
    inverse of ``echo``.  Each entry is read as its field's annotation
    says (see ``_read``), and a missing entry takes the field's default.
    An entry that names no field raises ValueError, unless it is one of
    ``retired[cls]``: keys that older files carry, which are dropped.
    ``where`` is the path of ``data`` in messages, "" at a file's top; a
    ValueError of ``cls`` itself is prefixed with it."""
    check_type(dict, where or "the top level", data)
    names, hints = [f.name for f in fields(cls)], _hints(cls)
    for key in data:
        if key not in names and key not in retired.get(cls, ()):
            raise ValueError(f"unknown entry {_join(where, key)!r}")
    values = {name: _read(hints[name], data[name], _join(where, name), retired)
              for name in names if name in data}
    try:
        return cls(**values)
    except ValueError as exc:
        if not where:
            raise
        raise ValueError(f"{where}: {exc}") from exc


_hints = cache(get_type_hints)  # a class's annotations, evaluated once


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _read(kind, value, where: str, retired):
    """``value`` read as the annotation ``kind``: ``int``, ``float``,
    ``bool`` and ``str`` through ``check_type``, ``Optional[X]`` as null
    or an X, ``tuple[X, ...]`` from a list, ``Mapping[K, V]`` from an
    object, an enum by its value and a dataclass by ``parse``."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]
        return None if value is None else _read(args[0], value, where, retired)
    if origin is tuple:
        return tuple(_read(args[0], v, f"{where}[{i}]", retired)
                     for i, v in enumerate(check_type(list, where, value)))
    if origin is Mapping:
        return {_read(args[0], k, where, retired): _read(args[1], v, _join(where, k), retired)
                for k, v in check_type(dict, where, value).items()}
    if is_dataclass(kind):
        return parse(kind, value, where, retired)
    if issubclass(kind, Enum):
        return kind(value)
    return check_type(kind, where, value)


def echo(value):
    """The JSON value of ``value``: a dataclass becomes an object of its
    non-None fields, an enum its value, a tuple or list a list, and a dict
    an object of echoed keys and values."""
    if is_dataclass(value):
        return {f.name: echo(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [echo(v) for v in value]
    if isinstance(value, dict):
        return {echo(k): echo(v) for k, v in value.items()}
    return value


class GlitchSimError(Exception):
    """Base class of ``ConfigError`` and ``SearchFailed``."""


class SearchFailed(GlitchSimError):
    """A search step spent its budget without a result.  ``trials_used``
    counts that step's trials; ``summary`` is the error's entry in
    summary.json."""

    def __init__(self, kind: str, message: str, trials_used: int, **details):
        super().__init__(message)
        self.trials_used = trials_used
        self.summary = {"kind": kind, "trials_used": trials_used, **details}


class NotFound(SearchFailed):
    """Exhaustive search exhausted its budget without a success."""

    def __init__(self, trials_used: int):
        super().__init__("not_found", f"no successful combination within "
                         f"{trials_used} trials", trials_used)


class IncompleteSweep(SearchFailed):
    """Sweeping ran out of passes before locating every fault target."""

    def __init__(self, missing, trials_used: int):
        self.missing = tuple(missing)
        super().__init__("incomplete_sweep", f"sweep exhausted its pass budget; "
                         f"missing targets: {self.missing}", trials_used,
                         missing=list(self.missing))


class NoIntegratedSuccess(SearchFailed):
    """Integration found no combination that satisfies the success function."""

    def __init__(self, trials_used: int):
        super().__init__("no_integrated_success", f"no integrated combination "
                         f"succeeded in {trials_used} trials", trials_used)


class ConfigError(GlitchSimError):
    """A config, scenario or results file, or a value in it, is refused."""
