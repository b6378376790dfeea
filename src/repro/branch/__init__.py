"""Branch prediction.

Table I of the paper specifies a g-share direction predictor with a 4 K
pattern-history table and a 512-entry BTB for every model.  This package
implements those, a return-address stack for calls/returns, and a composite
:class:`BranchPredictor` front the cores use.
"""

from repro.branch.gshare import GShare
from repro.branch.btb import BTB
from repro.branch.ras import ReturnAddressStack
from repro.branch.predictor import BranchPredictor, Prediction

__all__ = [
    "GShare",
    "BTB",
    "ReturnAddressStack",
    "BranchPredictor",
    "Prediction",
]
