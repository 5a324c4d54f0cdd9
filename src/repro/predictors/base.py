"""The branch predictor interface.

The simulator drives every predictor through the same two calls, in
commit order for each conditional branch:

1. ``predict(pc)`` — return the predicted direction.  The predictor may
   cache whatever internal state it needs (selected table, accumulated
   sum) for the matching ``train`` call; the simulator guarantees strict
   predict/train alternation for the same branch.
2. ``train(pc, taken)`` — learn from the resolved outcome and update all
   history registers.

This mirrors the CBP-4 evaluation discipline (immediate update at
commit).  Predictors also report their storage budget in bits so
configurations can be checked against the paper's 32/64 KB budgets, and
may expose ``provider`` — which component supplied the last prediction —
for the Figure 12 per-table hit attribution.

Predictors additionally participate in the versioned state-snapshot
protocol (``docs/state.md``): ``snapshot()`` captures the complete
mutable state as a :class:`~repro.common.state.PredictorState`,
``restore()`` re-installs it on a structurally compatible instance, and
``state_hash()`` gives a canonical digest for bit-identity checks.
Concrete predictors implement the protocol by overriding the two hooks
``_state_payload`` / ``_restore_payload``; the base class supplies the
envelope (kind tag, layout version, validation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, TypeVar

from repro.common.state import PredictorState, StateError

_F = TypeVar("_F", bound=Callable)


def hot_path(func: _F) -> _F:
    """Mark a function as a per-branch-event hot-path root.

    The marker carries no runtime behaviour — it declares intent to the
    ``perf`` analysis family (``repro.analysis.perf``), which computes
    the transitive call closure of every marked function plus the
    ``predict``/``train`` entry points of registered predictors, and
    flags per-event allocations and lookups inside that closure.
    """
    func.__hot_path__ = True
    return func


class BranchPredictor(ABC):
    """Abstract conditional branch predictor."""

    #: Short display name used by experiment tables.
    name: str = "predictor"

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc`` (True = taken)."""

    @abstractmethod
    def train(self, pc: int, taken: bool) -> None:
        """Observe the resolved outcome of the branch last predicted."""

    def storage_bits(self) -> int:
        """Model storage cost in bits (0 when a config does not track it)."""
        return 0

    @property
    def provider(self) -> str:
        """Name of the component that supplied the last prediction."""
        return self.name

    def reset(self) -> None:
        """Restore power-on state.  Default: rebuild via ``__init__``-set
        attributes is predictor-specific, so subclasses override when the
        experiments need mid-run resets (none do by default)."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")

    #: Name of this predictor's state format.  Defaults to the class
    #: name so two different predictor classes never confuse snapshots
    #: even when they share a display ``name``.
    @property
    def state_kind(self) -> str:
        return type(self).__name__

    #: Layout revision of ``_state_payload``.  Subclasses bump their own
    #: ``state_version`` whenever the payload layout changes shape.
    state_version: int = 1

    def _state_payload(self) -> dict:
        """Complete mutable state as a JSON-safe dict.  Override me."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot"
        )

    def _restore_payload(self, payload: dict) -> None:
        """Install a payload produced by ``_state_payload``.  Override me."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support restore"
        )

    def snapshot(self) -> PredictorState:
        """Capture the complete mutable state of this predictor."""
        return PredictorState(
            kind=self.state_kind,
            version=self.state_version,
            payload=self._state_payload(),
        )

    def restore(self, state: PredictorState) -> None:
        """Re-install a snapshot taken from a compatible instance.

        The target must be the same class (``kind``) with the same
        payload layout revision (``version``); geometry mismatches are
        caught by the per-component length checks during install.
        """
        if state.kind != self.state_kind:
            raise StateError(
                f"cannot restore {state.kind!r} state into {self.state_kind}"
            )
        if state.version != self.state_version:
            raise StateError(
                f"{self.state_kind}: snapshot layout v{state.version} is not "
                f"readable by this build (expects v{self.state_version})"
            )
        self._restore_payload(state.payload)

    def restore_components(
        self, state: PredictorState, components: tuple[str, ...] | list[str]
    ) -> list[str]:
        """Transplant named top-level payload entries from ``state``.

        Used for warm-state sharing between ablation variants whose
        configurations share a structural prefix (e.g. Figure 9 stages
        all warm the same BST and ``Wb``/``Wm`` tables): the current
        state is re-assembled with the shared subtrees replaced, then
        validated by the normal restore path.  Returns the entries that
        were actually transplanted.
        """
        payload = self._state_payload()
        moved = [name for name in components if name in state.payload and name in payload]
        for name in moved:
            payload[name] = state.payload[name]
        self._restore_payload(payload)
        return moved

    def state_hash(self) -> str:
        """Canonical SHA-256 digest of the current state snapshot."""
        return self.snapshot().hash()
