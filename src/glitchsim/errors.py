"""The library's exception types and its JSON boundary: the type check
of loaded values and the echo of written ones."""

from dataclasses import fields, is_dataclass
from enum import Enum

_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "a JSON object"}


def check_type(kind: type, where: str, value):
    """``value`` if its type is exactly ``kind``, where a float may also be
    an int: a JSON true is no integer and no number.  TypeError otherwise."""
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise TypeError(f"{where} must be {_KINDS[kind]}, got {value!r}")


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
    """Base class for all library-specific errors."""


class EmptySplit(GlitchSimError):
    """split_fault was called with an empty widths list."""


class EmptyChain(GlitchSimError):
    """simulate_chain was called with a chain of no fault units."""


class OverlapError(GlitchSimError):
    """Absolute fault windows overlap or are out of order."""


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


class TransferInvalid(GlitchSimError):
    """Parameter transfer between scenarios with mismatched target layout."""


class ConfigError(GlitchSimError):
    """Campaign or CLI configuration is malformed."""
