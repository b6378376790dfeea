"""Core models: configurations and four pipeline families on one base.

* :class:`CoreBase` — what every family shares: the front end (fetch,
  branch prediction and resolution), the cache hierarchy, the FU pools
  and the predictor, FU and cache half of the event counters.
* :class:`OutOfOrderCore` — the conventional physical-register-file
  superscalar of Figure 1 (models BIG and HALF).
* :class:`InOrderCore` — the little in-order superscalar (LITTLE).
* :class:`FXACore` — the paper's contribution: an out-of-order core with
  an in-order execution unit in the front end (BIG+FX / HALF+FX).
* :class:`ClusteredCore` — the clustered related-work comparator (CA).

Presets mirror Table I; ``build_core("HALF+FX")`` returns a ready model.
"""

from repro.core.config import ClusterConfig, CoreConfig, IXUConfig
from repro.core.inflight import InFlight
from repro.core.stats import CoreStats, EventCounts
from repro.core.base import CoreBase, SimulationError
from repro.core.ooo import OutOfOrderCore
from repro.core.inorder import InOrderCore
from repro.core.clustered import ClusteredCore
from repro.core.fxa import FXACore
from repro.core.presets import (
    KNOWN_MODELS,
    MODEL_NAMES,
    big_config,
    ca_config,
    big_fx_config,
    build_core,
    half_config,
    half_fx_config,
    little_config,
    model_config,
)

__all__ = [
    "ClusterConfig",
    "ClusteredCore",
    "CoreBase",
    "CoreConfig",
    "IXUConfig",
    "ca_config",
    "InFlight",
    "CoreStats",
    "EventCounts",
    "OutOfOrderCore",
    "InOrderCore",
    "FXACore",
    "SimulationError",
    "KNOWN_MODELS",
    "MODEL_NAMES",
    "big_config",
    "half_config",
    "little_config",
    "big_fx_config",
    "half_fx_config",
    "build_core",
    "model_config",
]
