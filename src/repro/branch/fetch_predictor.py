"""The fetch predictor: the front-end's combined prediction structure.

In the decoupled front-end (Fig. 5), the "Fetch Predictor (which is
actually the branch predictor)" generates fetch-block addresses into the
FTQ. For the trace-driven model it must answer one question per basic
block: *was this block's terminating branch predicted correctly?* A wrong
answer costs a front-end redirect (flush + refill bubble).

Composition, per Table I: a 16 KB gshare augmented with a 256-entry loop
predictor (the loop predictor overrides when confident), plus a BTB for
indirect branch targets. Unconditional direct branches are always
predicted correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor, PredictorStats
from repro.branch.loop import LoopPredictor
from repro.trace.records import BranchKind, BranchOutcome


@dataclass
class FetchPredictorStats:
    conditional: PredictorStats
    overall_lookups: int = 0
    overall_mispredictions: int = 0

    def mpki(self, instructions: int) -> float:
        if instructions <= 0:
            return 0.0
        return self.overall_mispredictions * 1000.0 / instructions


class FetchPredictor:
    """Predicts each basic block's terminating branch. One per core."""

    def __init__(
        self,
        direction: GsharePredictor | None = None,
        loop: LoopPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
    ) -> None:
        self.direction = direction if direction is not None else GsharePredictor()
        self.loop = loop if loop is not None else LoopPredictor()
        self.btb = btb if btb is not None else BranchTargetBuffer()
        self.stats = FetchPredictorStats(conditional=self.direction.stats)

    def resolve(self, branch_address: int, branch: BranchOutcome | None) -> bool:
        """Predict and train on one terminating branch.

        Args:
            branch_address: address of the branch instruction.
            branch: the recorded outcome; ``None`` marks a control-flow
                discontinuity without a branch (treated as predicted).

        Returns:
            True when the front-end predicted this transition correctly.
        """
        self.stats.overall_lookups += 1
        if branch is None or branch.kind is BranchKind.UNCONDITIONAL:
            return True
        if branch.kind is BranchKind.INDIRECT:
            correct = self.btb.predict_and_update(branch_address, branch.target)
            if not correct:
                self.stats.overall_mispredictions += 1
            return correct
        # Conditional: loop predictor overrides the gshare when confident.
        if self.loop.confident(branch_address):
            predicted = self.loop.predict(branch_address)
        else:
            predicted = self.direction.predict(branch_address)
        self.direction.stats.lookups += 1
        correct = predicted == branch.taken
        if not correct:
            self.direction.stats.mispredictions += 1
            self.stats.overall_mispredictions += 1
        self.direction.update(branch_address, branch.taken)
        self.loop.update(branch_address, branch.taken)
        return correct

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Composite snapshot of the direction/loop/BTB structures."""
        return {
            "direction": self.direction.warm_state(),
            "loop": self.loop.warm_state(),
            "btb": self.btb.warm_state(),
        }

    def load_warm_state(self, state) -> None:
        self.direction.load_warm_state(state["direction"])
        self.loop.load_warm_state(state["loop"])
        self.btb.load_warm_state(state["btb"])
