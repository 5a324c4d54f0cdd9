"""Versioned predictor-state snapshots and their canonical encoding.

Every predictor in this repository is a deterministic state machine, so
its complete state is expressible as a plain JSON payload: nested dicts,
lists, ints, floats, bools, strings and ``None``.  This module defines

* :func:`canonical_bytes` — a deterministic byte encoding of such a
  payload (compact separators, sorted keys, ``NaN``/``Infinity``
  rejected) so that equal states always hash equally, across processes
  and across Python versions;
* :func:`payload_hash` — SHA-256 over the canonical encoding;
* :class:`PredictorState` — the envelope carried between ``snapshot()``
  and ``restore()``: a ``kind`` tag (the predictor's state-format name),
  an integer ``version`` (bumped whenever the payload layout changes
  incompatibly) and the payload itself.

The envelope is what the simulator checkpoints, the orchestration state
store persists, and ``repro state`` dumps/diffs — see ``docs/state.md``
for the protocol rules (who bumps ``version``, what restore must
validate, how scratch state is treated).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

STATE_FORMAT_VERSION = 1
"""Version of the *envelope* layout (kind/version/payload triple)."""


class StateError(ValueError):
    """A snapshot payload is malformed or incompatible with its target."""


def canonical_bytes(payload: Any) -> bytes:
    """Deterministically encode a JSON-safe payload to bytes.

    Sorted keys and compact separators make the encoding independent of
    insertion order; ``allow_nan=False`` rejects the only float values
    whose textual form is not round-trippable across JSON parsers.
    """
    try:
        text = json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise StateError(f"payload is not canonically encodable: {exc}") from exc
    return text.encode("ascii")


def payload_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def _diff_walk(a: Any, b: Any, path: str) -> Iterator[str]:
    """Yield dotted paths where two payloads differ (leaves only)."""
    if type(a) is not type(b):
        yield f"{path}: type {type(a).__name__} != {type(b).__name__}"
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                yield f"{sub}: only in right"
            elif key not in b:
                yield f"{sub}: only in left"
            else:
                yield from _diff_walk(a[key], b[key], sub)
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path}: length {len(a)} != {len(b)}"
            return
        for index, (left, right) in enumerate(zip(a, b)):
            yield from _diff_walk(left, right, f"{path}[{index}]")
    elif a != b:
        yield f"{path}: {a!r} != {b!r}"


@dataclass(frozen=True)
class PredictorState:
    """A versioned snapshot of one predictor's complete mutable state.

    ``kind`` names the state format (usually the predictor's ``name``),
    ``version`` the layout revision of ``payload``.  ``restore()``
    implementations refuse mismatched kind/version instead of guessing.
    """

    kind: str
    version: int
    payload: dict = field(compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.payload, dict):
            raise StateError(
                f"payload must be a dict, got {type(self.payload).__name__}"
            )

    def canonical(self) -> bytes:
        """Canonical byte encoding of the full envelope."""
        return canonical_bytes(
            {"kind": self.kind, "version": self.version, "payload": self.payload}
        )

    def hash(self) -> str:
        """SHA-256 hex digest of the canonical envelope encoding."""
        return hashlib.sha256(self.canonical()).hexdigest()

    def to_json(self) -> dict:
        """JSON-safe dict form, stamped with the envelope format version."""
        return {
            "format": STATE_FORMAT_VERSION,
            "kind": self.kind,
            "version": self.version,
            "hash": self.hash(),
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PredictorState":
        """Parse :meth:`to_json` output, verifying the embedded hash."""
        if not isinstance(data, dict):
            raise StateError(f"state document must be a dict, got {type(data).__name__}")
        fmt = data.get("format")
        if fmt != STATE_FORMAT_VERSION:
            raise StateError(
                f"unsupported state format {fmt!r} "
                f"(this build reads format {STATE_FORMAT_VERSION})"
            )
        missing = {"kind", "version", "payload"} - set(data)
        if missing:
            raise StateError(f"state document missing fields: {sorted(missing)}")
        state = cls(kind=data["kind"], version=data["version"], payload=data["payload"])
        recorded = data.get("hash")
        if recorded is not None and recorded != state.hash():
            raise StateError(
                f"state document hash mismatch for kind {state.kind!r}: "
                f"recorded {recorded[:12]}.., computed {state.hash()[:12]}.."
            )
        return state

    def diff(self, other: "PredictorState") -> list[str]:
        """Human-readable list of paths where two snapshots differ."""
        lines: list[str] = []
        if self.kind != other.kind:
            lines.append(f"kind: {self.kind!r} != {other.kind!r}")
        if self.version != other.version:
            lines.append(f"version: {self.version} != {other.version}")
        lines.extend(_diff_walk(self.payload, other.payload, ""))
        return lines

    def subset(self, components: tuple[str, ...] | list[str]) -> dict:
        """The named top-level payload entries that exist in this state."""
        return {name: self.payload[name] for name in components if name in self.payload}


def expect_keys(payload: dict, keys: tuple[str, ...], context: str) -> None:
    """Validate that a component payload carries exactly the given keys."""
    if not isinstance(payload, dict):
        raise StateError(f"{context}: payload must be a dict")
    missing = set(keys) - set(payload)
    if missing:
        raise StateError(f"{context}: missing state fields {sorted(missing)}")


def expect_length(values: Any, length: int, context: str) -> None:
    """Validate that a serialized table has the geometry the target expects."""
    if not isinstance(values, list) or len(values) != length:
        found = len(values) if isinstance(values, list) else type(values).__name__
        raise StateError(f"{context}: expected list of length {length}, got {found}")


def expect_range(values: list[int], low: int, high: int, context: str) -> None:
    """Validate that every value of a restored table fits ``[low, high]``."""
    if values and (min(values) < low or max(values) > high):
        raise StateError(
            f"{context}: values must lie in [{low}, {high}], "
            f"got [{min(values)}, {max(values)}]"
        )
