"""Circuit parameterization and config-file ingestion.

CircuitParams is the single source of truth every matrix in the package is
assembled from.  Time dependence is e^{-i*omega*t} throughout; a decaying
natural mode therefore has its decay rate equal to |Im omega|, and the
dissipative poles sit at omega = i/(R*C) on the positive imaginary axis.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError, InvalidParams, MissingKey, UnknownKey


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    OPEN = "open"


# |eta| below this is treated as an exact pole hit; the poles are isolated
# algebraic points so only exact-hit protection is needed.
ETA_FLOOR = 1e-14
OMEGA_FLOOR = 1e-14


def is_index(value: Any) -> bool:
    """An int or numpy integer; a bool is not, though Python counts it one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CircuitParams:
    """Element values of the alternating RC ladder over grounded inductors.

    r1, c1 form the intracell series pair, r2, c2 the intercell pair; every
    node carries one grounded inductor l.  Units are SI (ohm, farad, henry).
    """

    r1: float
    r2: float
    c1: float
    c2: float
    l: float
    n_cells: int = 2
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "c1", "c2", "l"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.r1 >= 0 and self.r2 >= 0):
            raise InvalidParams(f"resistances must be >= 0, got r1={self.r1}, r2={self.r2}")
        for name in ("c1", "c2", "l"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name} must be > 0, got {getattr(self, name)}")
        if not is_index(self.n_cells) or self.n_cells < 2:
            raise InvalidParams(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        if not isinstance(self.boundary, Boundary):
            raise InvalidParams(f"boundary must be a Boundary, got {self.boundary!r}")

    def pole_frequencies(self) -> tuple[complex, complex]:
        """The two dissipation poles i/(R1 C1), i/(R2 C2); inf for R=0."""
        p1 = 1j / (self.r1 * self.c1) if self.r1 > 0 else complex("inf")
        p2 = 1j / (self.r2 * self.c2) if self.r2 > 0 else complex("inf")
        return p1, p2

    def to_dict(self) -> dict[str, Any]:
        return {
            "r1": self.r1, "r2": self.r2, "c1": self.c1, "c2": self.c2,
            "l": self.l, "n_cells": self.n_cells,
            "boundary": self.boundary.value,
        }


# schema default of a key the config must give
REQUIRED = object()

CIRCUIT = {
    **{key: (float, REQUIRED) for key in ("r1", "r2", "c1", "c2", "l")},
    "n_cells": (int, 2),
    "boundary": (str, Boundary.OPEN.value),
}


def _is_json(value: Any, kind: type) -> bool:
    # an int counts as a float, a bool as neither; a float must be finite,
    # since Python's json reads NaN and Infinity (and 1e400 as inf)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_object(where: str, given: Any, schema: Mapping[str, tuple]) -> dict[str, Any]:
    """The schema's defaults updated by the object given, each value checked.

    A schema maps each key to (JSON type, default).  A list type is written
    (list, item type) and a nested object's type is its own schema; null is
    taken where the default is None, and a REQUIRED default marks a key the
    object must give.  A float must be finite, an int given for a float
    is returned as a float, and a list must not be empty.
    """
    if not isinstance(given, Mapping):
        raise InvalidParams(f"{where}: expected an object, got {given!r}")
    for key in given:
        if key not in schema:
            raise UnknownKey(f"{where}.{key}")
    merged = {}
    for key, (kind, default) in schema.items():
        if key not in given:
            if default is REQUIRED:
                raise MissingKey(f"{where}.{key}")
            merged[key] = default
            continue
        value = given[key]
        kind, item = kind if isinstance(kind, tuple) else (kind, None)
        if value is None and default is None:
            pass
        elif isinstance(kind, Mapping):
            value = check_object(f"{where}.{key}", value, kind)
        elif not (_is_json(value, kind)
                  and all(_is_json(v, item) for v in (value if item else ()))):
            what = " of ".join("finite float" if t is float else t.__name__
                               for t in (kind, item) if t)
            raise InvalidParams(f"{where}.{key}: expected {what}, got {value!r}")
        elif kind is list and not value:
            raise InvalidParams(f"{where}.{key}: the list must not be empty")
        elif kind is float:
            value = float(value)
        merged[key] = value
    return merged


def circuit_from_mapping(section: Mapping[str, Any], prefix: str = "circuit") -> CircuitParams:
    """Build CircuitParams from a config section, naming offending keys."""
    kw = check_object(prefix, section, CIRCUIT)
    try:
        kw["boundary"] = Boundary(kw["boundary"].lower())
    except ValueError:
        raise InvalidParams(
            f"{prefix}.boundary: expected 'periodic' or 'open', got {kw['boundary']!r}"
        ) from None
    return CircuitParams(**kw)


def load_config(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file whose root is an object."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise MissingKey(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidParams("config root must be a JSON object")
    return raw
