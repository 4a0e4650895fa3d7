"""Declarative platform sweeps for the sensitivity studies.

Every sensitivity table costs the same profiles under a family of
:class:`~repro.apps.timing.CapstanPlatform` variants that differ along one
or two architectural axes. :func:`sweep` generates such a family from a
base platform and keyword axes, e.g.::

    sweep(allocator=("separable", "greedy"), bank_mapping=("hash", "linear"))

yields the four combinations in cartesian order (first axis outermost),
named ``separable-hash`` .. ``greedy-linear`` unless a ``name`` callable is
given. Supported axes:

* ``ordering`` -- :class:`~repro.core.ordering.OrderingMode` (Table 10);
* ``bank_mapping`` / ``allocator`` / ``ideal_sram`` -- SpMU variants
  (Table 9);
* ``memory`` -- :class:`~repro.config.MemoryTechnology` (Table 12);
* ``shuffle`` -- :class:`~repro.config.ShuffleMode` (Table 11);
* ``lanes`` / ``compute_units`` -- structural
  :class:`~repro.config.CapstanConfig` fields (design-space exploration);
* ``banks`` / ``queue_depth`` / ``crossbar_inputs`` -- structural
  :class:`~repro.config.SpMUConfig` fields (design-space exploration).

:data:`SPMU_AXES` names the axes that decide a platform's SpMU
microbenchmark; :func:`spmu_projection_sweep` builds just enough of a grid
to cover all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence

from ..apps.timing import PLATFORM_ALLOCATORS, CapstanPlatform
from ..config import MemoryTechnology, ShuffleMode
from ..core.bank_hash import BANK_MAPPINGS
from ..core.ordering import OrderingMode
from ..errors import ConfigurationError

#: Axes applied by replacing a CapstanPlatform field directly.
_PLATFORM_FIELDS = ("ordering", "bank_mapping", "allocator", "ideal_sram")

#: Legal values per string/bool platform field. A typo here would otherwise
#: be costed silently (the timing model coerces unknown allocators to
#: "greedy") or crash deep inside the bank mapper.
_PLATFORM_FIELD_VALUES = {
    "bank_mapping": BANK_MAPPINGS,
    "allocator": PLATFORM_ALLOCATORS,
    "ideal_sram": (True, False),
}

#: Axes applied by replacing a structural CapstanConfig field.
_CONFIG_FIELDS = ("lanes", "compute_units")

#: Axes applied by replacing a structural SpMUConfig field.
_SPMU_FIELDS = ("banks", "queue_depth", "crossbar_inputs")

#: Native type of each enum-valued axis.
_ENUM_AXES = {"ordering": OrderingMode, "memory": MemoryTechnology, "shuffle": ShuffleMode}

#: Every supported axis name, for error messages.
KNOWN_AXES = _PLATFORM_FIELDS + ("memory", "shuffle") + _CONFIG_FIELDS + _SPMU_FIELDS

#: The axes that decide a platform's SpMU projection
#: (:func:`~repro.apps.timing.platform_throughput_variant`), or whether it
#: has one at all (``ideal_sram``). Every other axis leaves the projection
#: as it is, so a grid's projections are those of its SpMU sub-grid.
SPMU_AXES = (
    "ordering",
    "bank_mapping",
    "allocator",
    "ideal_sram",
    "lanes",
    "banks",
    "queue_depth",
    "crossbar_inputs",
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_choice(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {text!r}")
        return text

    return parse


#: Value parser per sweep axis name, shared by the CLI (``--axis NAME=...``)
#: and the job layer (axis values round-trip through JSON as strings/ints).
AXIS_VALUE_PARSERS: Dict[str, Callable[[Any], Any]] = {
    **_ENUM_AXES,
    "ideal_sram": _parse_bool,
    **{axis: int for axis in _CONFIG_FIELDS + _SPMU_FIELDS},
    "bank_mapping": _parse_choice(*_PLATFORM_FIELD_VALUES["bank_mapping"]),
    "allocator": _parse_choice(*_PLATFORM_FIELD_VALUES["allocator"]),
}


def parse_axis_value(axis: str, value: Any) -> Any:
    """Parse one JSON/CLI axis value into its native sweep type.

    Native values (enums, bools, ints already of the right type) pass
    through unchanged, so parsed axes are idempotent.
    """
    parser = AXIS_VALUE_PARSERS.get(axis)
    if parser is None:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; known: {', '.join(sorted(AXIS_VALUE_PARSERS))}"
        )
    if isinstance(value, (Enum, bool)):
        return value
    if isinstance(value, int) and axis not in _ENUM_AXES:
        return value
    try:
        return parser(value)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for axis {axis!r}: {exc}") from None


def axis_value_to_json(value: Any) -> Any:
    """The JSON form of one axis value (enums collapse to their value)."""
    return getattr(value, "value", value)


def _check_axis(axis: str, value: Any) -> None:
    """Reject one ``{axis: value}`` pair before anything is built."""
    if axis in _ENUM_AXES:
        kind = _ENUM_AXES[axis]
        if not isinstance(value, kind):
            raise ConfigurationError(f"{axis} axis takes {kind.__name__}, got {value!r}")
    elif axis in _PLATFORM_FIELD_VALUES:
        allowed = _PLATFORM_FIELD_VALUES[axis]
        if value not in allowed:
            raise ConfigurationError(f"{axis} axis takes one of {allowed}, got {value!r}")
    elif axis in _CONFIG_FIELDS or axis in _SPMU_FIELDS:
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ConfigurationError(f"{axis} axis takes positive integers, got {value!r}")
    else:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; known: {', '.join(KNOWN_AXES)}")


def axis_value(platform: CapstanPlatform, axis: str) -> Any:
    """The current value of one sweep axis on ``platform`` (the read side
    of the axis -> field mapping :func:`build_variant` writes through)."""
    if axis in _PLATFORM_FIELDS:
        return getattr(platform, axis)
    if axis == "memory":
        return platform.config.memory
    if axis == "shuffle":
        return platform.config.shuffle.mode
    if axis in _CONFIG_FIELDS:
        return getattr(platform.config, axis)
    if axis in _SPMU_FIELDS:
        return getattr(platform.config.spmu, axis)
    raise ConfigurationError(f"unknown sweep axis {axis!r}; known: {', '.join(KNOWN_AXES)}")


def build_variant(
    base: Optional[CapstanPlatform], combo: Mapping[str, Any], name: str
) -> CapstanPlatform:
    """One named, validated variant: ``base`` (default design point) with
    every ``{axis: value}`` of ``combo`` applied.

    The only place a swept platform is built: :func:`sweep` and the
    adaptive search space reject an illegal value (``lanes=12``) alike.
    The values are grouped by the level they live on (platform,
    :class:`~repro.config.CapstanConfig`, :class:`~repro.config.SpMUConfig`)
    and each level is rebuilt once, so a variant costs at most three
    ``replace`` calls (four with a ``shuffle`` axis) whatever its axis count.
    """
    platform = base if base is not None else CapstanPlatform()
    platform_fields: Dict[str, Any] = {"name": name}
    config_fields: Dict[str, Any] = {}
    spmu_fields: Dict[str, Any] = {}
    for axis, value in combo.items():
        _check_axis(axis, value)
        if axis in _PLATFORM_FIELDS:
            platform_fields[axis] = value
        elif axis in _SPMU_FIELDS:
            spmu_fields[axis] = value
        elif axis == "shuffle":
            config_fields["shuffle"] = replace(platform.config.shuffle, mode=value)
        else:
            config_fields[axis] = value
    config = platform.config
    if spmu_fields:
        config_fields["spmu"] = replace(config.spmu, **spmu_fields)
    if config_fields:
        platform_fields["config"] = replace(config, **config_fields)
    platform = replace(platform, **platform_fields)
    platform.config.validate()
    return platform


def default_variant_name(combo: Mapping[str, Any]) -> str:
    """The default variant label: the axis values joined with ``-``."""
    return "-".join(str(axis_value_to_json(value)) for value in combo.values())


def sweep(
    base: Optional[CapstanPlatform] = None,
    *,
    name: Optional[Callable[[Dict[str, Any]], str]] = None,
    **axes: Iterable[Any],
) -> Dict[str, CapstanPlatform]:
    """Generate named platform variants over the cartesian product of axes.

    Args:
        base: Platform the variants are derived from (default design point).
        name: ``name(combo) -> str`` labelling each variant; defaults to
            joining the axis values with ``-``.
        **axes: One iterable of values per swept axis (see module docstring).

    Returns:
        ``{variant name: platform}`` in deterministic cartesian order, each
        built (and validated) by :func:`build_variant` with its ``name``
        field set to its variant name.
    """
    if not axes:
        raise ConfigurationError("sweep() needs at least one axis")
    base = base if base is not None else CapstanPlatform()
    label = name or default_variant_name
    keys = list(axes)
    variants: Dict[str, CapstanPlatform] = {}
    for values in itertools.product(*(list(axes[k]) for k in keys)):
        combo = dict(zip(keys, values))
        variant_name = label(combo)
        if variant_name in variants:
            raise ConfigurationError(f"duplicate sweep variant name {variant_name!r}")
        variants[variant_name] = build_variant(base, combo, variant_name)
    return variants


def spmu_projection_bound(axes: Mapping[str, Sequence[Any]]) -> int:
    """Upper bound on the distinct SpMU projections of the ``axes`` grid:
    the size of its :data:`SPMU_AXES` sub-grid (points of the sub-grid may
    still share a projection, e.g. an ``ideal_sram`` point has none)."""
    return math.prod(len(values) for axis, values in axes.items() if axis in SPMU_AXES)


def spmu_projection_sweep(axes: Mapping[str, Iterable[Any]]) -> Dict[str, CapstanPlatform]:
    """Platforms covering every SpMU projection of the ``axes`` grid.

    The :data:`SPMU_AXES` sub-grid, with every other axis at its first
    value: :func:`spmu_projection_bound` builds instead of the whole
    product. Each value of the other axes is still checked on its own, so
    an illegal one fails here as it would in the full :func:`sweep`.
    """
    grid = {axis: tuple(values) for axis, values in axes.items()}
    for axis, values in grid.items():
        if axis not in SPMU_AXES:
            for value in values:
                _check_axis(axis, value)
    return sweep(
        **{axis: values if axis in SPMU_AXES else values[:1] for axis, values in grid.items()}
    )
