"""Branch prediction: gshare + loop predictor + BTB (Table I)."""

from repro.branch.btb import BranchTargetBuffer, BtbStats
from repro.branch.fetch_predictor import FetchPredictor, FetchPredictorStats
from repro.branch.gshare import GsharePredictor, PredictorStats, saturating_update
from repro.branch.loop import LoopPredictor

__all__ = [
    "PredictorStats",
    "saturating_update",
    "BranchTargetBuffer",
    "BtbStats",
    "FetchPredictor",
    "FetchPredictorStats",
    "GsharePredictor",
    "LoopPredictor",
]
