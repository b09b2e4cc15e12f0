"""Branch target buffer: last-target prediction for indirect branches."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import require_power_of_two


@dataclass
class BtbStats:
    lookups: int = 0
    hits: int = 0
    target_mispredictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class BranchTargetBuffer:
    """Direct-mapped, tagged BTB storing the last observed target."""

    def __init__(self, entries: int = 2048) -> None:
        require_power_of_two(entries, "BTB entries")
        self._mask = entries - 1
        self._tags: list[int] = [-1] * entries
        self._targets: list[int] = [0] * entries
        self._index_shift = 2
        self.stats = BtbStats()

    def _index(self, address: int) -> int:
        return (address >> self._index_shift) & self._mask

    def predict(self, address: int) -> int | None:
        """Predicted target for the branch at ``address``; None on BTB miss."""
        index = (address >> self._index_shift) & self._mask
        self.stats.lookups += 1
        if self._tags[index] == address:
            self.stats.hits += 1
            return self._targets[index]
        return None

    def predict_and_update(self, address: int, target: int) -> bool:
        """Predict the target, record accuracy, train. True when correct."""
        predicted = self.predict(address)
        correct = predicted == target
        if not correct:
            self.stats.target_mispredictions += 1
        self.update(address, target)
        return correct

    def update(self, address: int, target: int) -> None:
        index = self._index(address)
        self._tags[index] = address
        self._targets[index] = target

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Tag and target tables (passed by reference, not copied)."""
        return {"tags": self._tags, "targets": self._targets}

    def load_warm_state(self, state) -> None:
        tags, targets = state["tags"], state["targets"]
        if len(tags) != len(self._tags) or len(targets) != len(self._targets):
            raise ValueError(
                f"BTB snapshot shape {len(tags)}/{len(targets)} does not "
                f"match {len(self._tags)} entries"
            )
        self._tags = tags
        self._targets = targets
