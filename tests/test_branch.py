"""Unit tests for branch predictors."""

import pytest

from repro.branch import (
    BranchTargetBuffer,
    FetchPredictor,
    GsharePredictor,
    LoopPredictor,
)
from repro.trace.records import BranchKind, BranchOutcome


def predict_and_update(predictor, address, taken):
    """Predict, then train; True when the prediction was correct."""
    correct = predictor.predict(address) == taken
    predictor.update(address, taken)
    return correct


class TestGshare:
    def test_paper_configuration(self):
        # Table I: 16 KB gshare = 64 Ki two-bit counters, 16 history bits.
        predictor = GsharePredictor(16 * 1024)
        assert predictor.history_bits == 16

    def test_learns_alternating_pattern(self):
        # A strict alternation is history-predictable; gshare must converge.
        predictor = GsharePredictor(1024)
        outcomes = [bool(i % 2) for i in range(400)]
        for taken in outcomes[:200]:
            predict_and_update(predictor, 0x300, taken)
        correct = sum(
            predict_and_update(predictor, 0x300, taken) for taken in outcomes[200:]
        )
        assert correct > 180

    def test_random_branches_mispredict(self):
        from random import Random

        rng = Random(42)
        predictor = GsharePredictor(1024)
        outcomes = [rng.random() < 0.5 for _ in range(500)]
        correct = sum(
            predict_and_update(predictor, 0x400, taken) for taken in outcomes
        )
        assert 0.3 < correct / 500 < 0.75  # near chance


class TestLoopPredictor:
    def _run_loop(self, predictor, address, trips, instances):
        correct = 0
        total = 0
        for _ in range(instances):
            for i in range(trips):
                taken = i != trips - 1
                use_loop = predictor.confident(address)
                predicted = predictor.predict(address) if use_loop else None
                if use_loop:
                    total += 1
                    correct += predicted == taken
                predictor.update(address, taken)
        return correct, total

    def test_learns_fixed_trip_count(self):
        predictor = LoopPredictor(256)
        correct, total = self._run_loop(predictor, 0x500, trips=10, instances=20)
        assert total > 0
        assert correct / total > 0.95

    def test_gains_confidence_only_after_stable_trips(self):
        predictor = LoopPredictor(256)
        # One instance is not enough to be confident.
        for i in range(10):
            predictor.update(0x600, i != 9)
        assert not predictor.confident(0x600)

    def test_trip_change_resets_confidence(self):
        predictor = LoopPredictor(256)
        self._run_loop(predictor, 0x700, trips=8, instances=5)
        assert predictor.confident(0x700)
        # Change the trip count: confidence must drop.
        for i in range(12):
            predictor.update(0x700, i != 11)
        assert not predictor.confident(0x700)


class TestBtb:
    def test_learns_target(self):
        btb = BranchTargetBuffer(256)
        assert btb.predict(0x800) is None
        btb.update(0x800, 0x9000)
        assert btb.predict(0x800) == 0x9000

    def test_target_mispredict_counted(self):
        btb = BranchTargetBuffer(256)
        assert not btb.predict_and_update(0x800, 0x9000)  # cold miss
        assert btb.predict_and_update(0x800, 0x9000)
        assert not btb.predict_and_update(0x800, 0xA000)  # target changed
        assert btb.stats.target_mispredictions == 2


class TestFetchPredictor:
    def test_unconditional_always_correct(self):
        fp = FetchPredictor()
        branch = BranchOutcome(BranchKind.UNCONDITIONAL, True, 0x2000)
        assert fp.resolve(0x100, branch)
        assert fp.stats.overall_mispredictions == 0

    def test_discontinuity_counts_as_predicted(self):
        fp = FetchPredictor()
        assert fp.resolve(0x100, None)
        assert fp.stats.overall_mispredictions == 0

    def test_loop_override_beats_gshare_on_loop_exit(self):
        # A fixed-trip loop branch: after training, the loop predictor must
        # remove the once-per-instance exit misprediction.
        fp = FetchPredictor()
        address = 0x900
        mispredicts_late = 0
        for instance in range(30):
            for i in range(7):
                branch = BranchOutcome(BranchKind.CONDITIONAL, i != 6, 0x900)
                correct = fp.resolve(address, branch)
                if instance >= 10 and not correct:
                    mispredicts_late += 1
        assert mispredicts_late == 0

    def test_indirect_uses_btb(self):
        fp = FetchPredictor()
        branch_a = BranchOutcome(BranchKind.INDIRECT, True, 0x4000)
        branch_b = BranchOutcome(BranchKind.INDIRECT, True, 0x5000)
        fp.resolve(0x300, branch_a)  # cold: mispredict
        assert fp.resolve(0x300, branch_a)
        assert not fp.resolve(0x300, branch_b)  # target change

    def test_mpki_accounting(self):
        fp = FetchPredictor()
        branch = BranchOutcome(BranchKind.INDIRECT, True, 0x4000)
        fp.resolve(0x300, branch)
        assert fp.stats.mpki(1000) == pytest.approx(1.0)
