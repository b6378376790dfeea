"""Observability and validation are free when off, checked exactly.

Every core guards its observer calls with one ``is None`` test per
site.  An unobserved, unvalidated run must therefore never enter code
defined under ``repro/obs/`` or ``repro/validate/``, nor a per-cycle
classification hook, whose only readers are the observers.
``sys.setprofile`` records every Python call the run makes, so the
check is a call count, not a timing.  The same runs with an
``Observability`` bundle or a ``Validator`` attached must make such
calls, which shows the probe sees them.
"""

import os
import sys
from pathlib import Path

import pytest

import repro.obs
import repro.validate
from repro.core import build_core, model_config, ooo
from repro.core.clustered import ClusteredCore
from repro.core.fxa import FXACore
from repro.core.inorder import InOrderCore
from repro.obs import Observability, TimelineCollector, TopDownCollector
from repro.validate import Validator
from repro.workloads import generate_trace

MODELS = ("LITTLE", "BIG", "HALF+FX", "CA")

#: Source directories an unobserved, unvalidated run never enters.
OBSERVER_DIRS = tuple(str(Path(package.__file__).parent) + os.sep
                      for package in (repro.obs, repro.validate))

#: The per-cycle classification hooks, read only by observers.
CLASSIFY_HOOKS = frozenset(hook.__code__ for hook in (
    ooo.OutOfOrderCore._classify, InOrderCore._classify,
    FXACore._classify, ClusteredCore._classify,
    ooo.frontend_stall, ooo.memory_bound_leaf))


def observer_calls(model, trace, obs=None, validator=None):
    """Python calls into observer code during one ``core.run``."""
    core = build_core(model_config(model), obs=obs, validator=validator)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code in CLASSIFY_HOOKS
                    or code.co_filename.startswith(OBSERVER_DIRS)):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        core.run(trace)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("model", MODELS)
def test_unobserved_unvalidated_run_calls_no_observer_code(model):
    # mcf is memory-bound, so the fast-forward kernel's bulk path runs
    # as well as the per-cycle tick.
    trace = generate_trace("mcf", 1500, seed=3)
    unobserved = observer_calls(model, trace)
    observed = observer_calls(model, trace, obs=Observability(
        timeline=TimelineCollector(), topdown=TopDownCollector()))
    validated = observer_calls(model, trace, validator=Validator(trace))
    assert unobserved == 0
    assert observed > 0
    assert validated > 0
