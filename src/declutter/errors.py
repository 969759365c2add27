"""Exception types shared across the simulator, the reader of input
files, and the readers of the numbers and all-number JSON objects that
config and plan files hold."""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import fields, replace
from pathlib import Path
from sys import float_info


class SchemaError(ValueError):
    """A scene, plan, or config file does not match its expected schema."""


def read_file(path: str | Path, what: str) -> str:
    """The UTF-8 text of input file ``path``; SchemaError, naming it
    ``what``, when it is missing, cannot be read or is not UTF-8."""
    file = Path(path)
    try:
        return file.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise SchemaError(f"{what} not found: {file}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{what} cannot be read: {file}: {exc}") from exc


def number(value: object, where: str, integer: bool = False) -> float | int:
    """``value`` when it is a JSON number in the float range, or an integer
    when ``integer``; otherwise SchemaError saying what ``where`` must be.

    Python's JSON reader accepts NaN and Infinity, which would pass every
    range check and, as a clearance margin, break every pull check, and
    integers past the float range; the comparison below is false for each.
    """
    kind = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) <= float_info.max:
        raise SchemaError(f"{where} must be {'an integer' if integer else 'a number'}")
    return value


def known_keys(data: object, keys: Collection[str], where: str) -> None:
    """Raise SchemaError unless ``data`` is a JSON object whose keys are all
    in ``keys``."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where} must be a JSON object")
    for key in data:
        if key not in keys:
            raise SchemaError(f"{where}: unknown key '{key}'")


def from_number_fields(cls: type, data: object, where: str, base=None):
    """An instance of dataclass ``cls`` read from the JSON object ``data``.

    Each key must name a float field of ``cls`` and hold a number.  Fields
    that ``data`` omits keep ``base``'s values, or with no base the class
    defaults (a field without one is required).  Raises SchemaError, its
    message prefixed with ``where``, on any other input.
    """
    known_keys(data, {f.name for f in fields(cls) if "float" in str(f.type)}, where)
    values = {key: float(number(value, f"{where}: '{key}'")) for key, value in data.items()}
    try:
        return replace(base, **values) if base is not None else cls(**values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


class PlacementExhausted(RuntimeError):
    """Scene generation gave up placing an object (workspace too crowded)."""


class ActionCapReached(RuntimeError):
    """A trial took its cap of actions without clearing the table."""


class InfeasibleAction(RuntimeError):
    """An action was applied whose feasibility predicate is false.

    Carries the name of the violated predicate so harness output can point
    at the policy bug.
    """

    def __init__(self, predicate: str, detail: str = ""):
        self.predicate = predicate
        message = predicate if not detail else f"{predicate}: {detail}"
        super().__init__(message)


class EmptyTrace(ValueError):
    """Objects-per-trip is undefined for a trace with zero trips."""


class MissingBaseline(ValueError):
    """Aggregation requires a baseline trial for every scene group."""
