"""The corruption registry and per-severity parameter tables.

`CorruptionKind` is the one place where the 15 corruption kinds are
declared: each member carries its family, whether it needs a mesh, its
typed parameter names, its dominant parameter and its default records.
Everything else (KIND_NAMES, MESH_KINDS, the default table, table
validation, the report's family header) is derived from it.  A record
holds the keyword arguments of its kind's operator in corruptions.  Any
part of the default table can be overridden by a JSON document keyed by
canonical corruption name whose values are lists of parameter records,
one per severity; check_severity is the one test of a severity.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum

from .io_formats import parse_json, sha256_tag
from .occlusion import CANONICAL_AZIMUTHS

SEVERITIES = (1, 2, 3, 4, 5)


def check_severity(value) -> int:
    """`value` if it is one of SEVERITIES, else a ValueError naming the range."""
    if value not in SEVERITIES:
        raise ValueError(f"severity {value} outside {SEVERITIES[0]}..{SEVERITIES[-1]}")
    return value


class CorruptionKind(Enum):
    """The 15 corruption types, with stable canonical names.

    Each member is declared as (canonical name, family, parameters as
    name -> int or float in record order, dominant parameter, default
    values for severity s in parameter order[, needs a mesh]).  The
    dominant parameter must be non-decreasing in severity.  Counts that
    scale with the cloud size N are stored as a rational rule: count =
    (N // div) * mul for impulse, count = (N * mul) // div for upsampling.
    """

    OCCLUSION = ("occlusion", "Density", {"view_index": int}, "view_index",
                 lambda s: (s,), True)
    LIDAR = ("lidar", "Density", {"view_index": int}, "view_index",
             lambda s: (s,), True)
    LOCAL_DENSITY_INC = ("local_density_inc", "Density",
                         {"n_clusters": int, "cluster_size": int}, "n_clusters",
                         lambda s: (s, 100))
    LOCAL_DENSITY_DEC = ("local_density_dec", "Density",
                         {"n_clusters": int, "cluster_size": int}, "n_clusters",
                         lambda s: (s, 100))
    CUTOUT = ("cutout", "Density", {"n_clusters": int, "k": int}, "n_clusters",
              lambda s: (s, 50))
    UNIFORM = ("uniform", "Noise", {"scale": float}, "scale",
               lambda s: (0.01 * s,))
    GAUSSIAN = ("gaussian", "Noise", {"sigma": float}, "sigma",
                lambda s: (0.01 + 0.005 * (s - 1),))
    IMPULSE = ("impulse", "Noise",
               {"count_div": int, "count_mul": int, "magnitude": float}, "count_mul",
               lambda s: (40, s, 0.05))
    UPSAMPLING = ("upsampling", "Noise",
                  {"count_div": int, "count_mul": int, "bound": float}, "count_mul",
                  lambda s: (10, s, 0.05))
    BACKGROUND = ("background", "Noise", {"count": int}, "count",
                  lambda s: (20 * s,))
    ROTATION = ("rotation", "Transformation", {"max_angle_deg": float}, "max_angle_deg",
                lambda s: (3.0 * s,))
    SHEAR = ("shear", "Transformation", {"max_coeff": float}, "max_coeff",
             lambda s: (0.05 * s,))
    FFD = ("ffd", "Transformation", {"distance": float}, "distance",
           lambda s: (0.1 * s,))
    RBF = ("rbf", "Transformation", {"distance": float}, "distance",
           lambda s: (0.1 * s,))
    INV_RBF = ("inv_rbf", "Transformation", {"distance": float}, "distance",
               lambda s: (0.1 * s,))

    def __new__(cls, name, family, params, dominant, default, needs_mesh=False):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.family = family
        kind.params = params
        kind.dominant = dominant
        kind.defaults = tuple(dict(zip(params, default(s))) for s in SEVERITIES)
        kind.needs_mesh = needs_mesh
        return kind

    @property
    def ordinal(self) -> int:
        """Stable position in declaration order, used for RNG stream keys."""
        return _ORDINALS[self]

    @classmethod
    def from_name(cls, name: str) -> "CorruptionKind":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown corruption name {name!r}") from None


_ORDINALS = {kind: i for i, kind in enumerate(CorruptionKind)}

# The canonical names in declaration order.
KIND_NAMES = tuple(kind.value for kind in CorruptionKind)

# Kinds that consume a mesh (view-based) rather than a point cloud.
MESH_KINDS = frozenset(kind for kind in CorruptionKind if kind.needs_mesh)


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption request: kind, severity, and a base seed."""

    kind: CorruptionKind
    severity: int
    seed: int = 0

    def __post_init__(self):
        check_severity(self.severity)


def _misfit(kind: CorruptionKind, name: str, value) -> str | None:
    """What parameter `name` of `kind` must be, if `value` does not fit it."""
    if kind.params[name] is int:
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if name == "view_index":  # one of the canonical views, counted from 1
            views = len(CANONICAL_AZIMUTHS)
            return None if is_int and 1 <= value <= views else f"an integer in 1..{views}"
        least = 1 if name == "count_div" else 0  # count_div is a divisor
        if not is_int or value < least:
            return f"an integer >= {least}"
    elif (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        # compared, not converted: an int past the float range fails instead of overflowing
        or not 0 <= value <= sys.float_info.max
    ):
        return "a finite number >= 0"
    return None


def _checked_entries(kind: CorruptionKind, entries) -> list[dict]:
    """Copy of one kind's 5 parameter records, validated against the registry."""
    if not isinstance(entries, list) or len(entries) != len(SEVERITIES):
        raise ValueError(
            f"severity table for {kind.value!r} must be a list of "
            f"{len(SEVERITIES)} records"
        )
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != set(kind.params):
            raise ValueError(
                f"severity entry for {kind.value!r} must have exactly the "
                f"parameters {sorted(kind.params)}, got {entry!r}"
            )
        for name, value in entry.items():
            expected = _misfit(kind, name, value)
            if expected:
                raise ValueError(
                    f"severity table {kind.value!r} parameter {name!r} must be "
                    f"{expected}, got {value!r}"
                )
    values = [entry[kind.dominant] for entry in entries]
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError(
            f"{kind.dominant!r} must be non-decreasing in severity for {kind.value!r}"
        )
    return [dict(entry) for entry in entries]


class SeverityTable:
    """Mapping kind -> 5 parameter records, validated on construction."""

    def __init__(self, data=None):
        if data is not None and not isinstance(data, dict):
            raise ValueError("a severity table must be a JSON object")
        self._data = {k.value: [dict(r) for r in k.defaults] for k in CorruptionKind}
        for name, entries in (data or {}).items():
            self._data[name] = _checked_entries(CorruptionKind.from_name(name), entries)

    def params(self, kind: CorruptionKind, severity: int) -> dict:
        return dict(self._data[kind.value][check_severity(severity) - 1])

    def as_dict(self) -> dict:
        return {k: [dict(r) for r in v] for k, v in self._data.items()}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return sha256_tag(canonical.encode())

    @classmethod
    def from_json(cls, data: str | bytes) -> "SeverityTable":
        return cls(parse_json(data, "severity table"))

    @classmethod
    def default(cls) -> "SeverityTable":
        return cls()
