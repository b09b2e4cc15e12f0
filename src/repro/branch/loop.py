"""Loop predictor (Table I: 256 entries).

Captures branches with regular loop behaviour: after observing the same
trip count twice, it predicts the not-taken exit on the final iteration —
exactly the branch a gshare mispredicts. HPC codes spend most of their time
in fixed-trip loops, which is why the paper pairs the gshare with this
structure.
"""

from __future__ import annotations

from repro.utils import require_power_of_two

#: Confidence threshold before the loop predictor overrides the gshare.
CONFIDENT = 2
_CONFIDENCE_MAX = 3


class LoopPredictor:
    """Direct-mapped, tagged loop-termination predictor.

    Entry fields live in parallel flat lists (tag / learned trip count /
    current taken-run / confidence): the tables snapshot and restore by
    reference for warm-state checkpoints, and indexing flat int lists is
    no slower than attribute access on per-entry objects.
    """

    def __init__(self, entries: int = 256) -> None:
        require_power_of_two(entries, "loop predictor entries")
        self._mask = entries - 1
        self._tags = [-1] * entries
        self._trips = [0] * entries  # learned taken-run length before exit
        self._currents = [0] * entries  # taken count in the current run
        self._confidences = [0] * entries
        self._index_shift = 2

    def confident(self, address: int) -> bool:
        """True when this predictor should override the gshare."""
        # The tag is the index's unmasked form: one shift serves both.
        tag = address >> self._index_shift
        index = tag & self._mask
        return (
            self._tags[index] == tag
            and self._confidences[index] >= CONFIDENT
        )

    def predict(self, address: int) -> bool:
        tag = address >> self._index_shift
        index = tag & self._mask
        if self._tags[index] != tag:
            return True  # unknown loop branch: assume taken (stay in loop)
        trips = self._trips[index]
        return self._currents[index] + 1 < trips or trips == 0

    def update(self, address: int, taken: bool) -> None:
        tag = address >> self._index_shift
        index = tag & self._mask
        if self._tags[index] != tag:
            # Allocate on a not-taken outcome: that is a potential loop exit.
            if not taken:
                self._tags[index] = tag
                self._trips[index] = 0
                self._currents[index] = 0
                self._confidences[index] = 0
            return
        if taken:
            self._currents[index] += 1
            return
        # Loop exit: compare the observed taken-run with the learned one.
        observed = self._currents[index] + 1  # executions incl. the exit
        if observed == self._trips[index]:
            self._confidences[index] = min(
                _CONFIDENCE_MAX, self._confidences[index] + 1
            )
        else:
            self._trips[index] = observed
            self._confidences[index] = 0
        self._currents[index] = 0

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Entry tables, passed by reference (see repro.machine.warm)."""
        return {
            "tags": self._tags,
            "trips": self._trips,
            "currents": self._currents,
            "confidences": self._confidences,
        }

    def load_warm_state(self, state) -> None:
        tables = (
            state["tags"], state["trips"], state["currents"],
            state["confidences"],
        )
        if any(len(table) != len(self._tags) for table in tables):
            raise ValueError(
                f"loop-predictor snapshot does not match "
                f"{len(self._tags)} entries"
            )
        self._tags, self._trips, self._currents, self._confidences = tables
