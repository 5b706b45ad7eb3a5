"""Configuration value objects: stable content fingerprints and the
range check they share.

Experiment results are cached on disk keyed by *what was simulated*
(:mod:`repro.eval.jobs`), so every configuration object needs a stable,
content-derived identity that survives process restarts — ``hash()`` is
salted per process and ``repr()`` is not guaranteed canonical.

:func:`fingerprint` walks dataclasses (comparison fields only), enums,
tuples/lists, dicts and scalars into a canonical JSON form and hashes
it.  Two configurations fingerprint equal iff they compare equal.

:class:`repro.uarch.config.CoreConfig`,
:class:`repro.trace.predictor.TracePredictorConfig` and
:class:`repro.core.slipstream.SlipstreamConfig` reject an out-of-range
field at construction with one :class:`ConfigError`
(:func:`check_lower_bounds`), so a bad value fails fast instead of
surfacing as a hang or a nonsense result deep in a simulation.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Sequence, Tuple


class ConfigError(ValueError):
    """A configuration field is out of its valid range.

    Carries the configuration class name, the offending field name, its
    value and the valid range, so callers can build precise diagnostics
    instead of parsing message strings (the style of
    :class:`repro.core.modes.ModeError`).
    """

    def __init__(self, config: str, field_name: str, value: object,
                 valid: str):
        self.config = config
        self.field = field_name
        self.value = value
        self.valid = valid
        super().__init__(f"{config}.{field_name}={value!r}: {valid}")


def check_lower_bounds(config: object,
                       bounds: Sequence[Tuple[str, int]]) -> None:
    """Raise :class:`ConfigError` for the first ``(field, least)`` of
    ``bounds`` whose value on ``config`` is not an integer >= least."""
    for name, least in bounds:
        value = getattr(config, name)
        if not isinstance(value, int) or value < least:
            raise ConfigError(type(config).__name__, name, value,
                              f"must be an integer >= {least}")


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serialisable structure."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        reduced = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
        reduced["__type__"] = type(obj).__name__
        return reduced
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def fingerprint(obj: Any) -> str:
    """A short stable hex digest of ``obj``'s canonical content."""
    blob = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
