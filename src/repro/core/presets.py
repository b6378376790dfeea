"""Model presets after Table I (ARM big.LITTLE-inspired configurations).

* **BIG** — Cortex-A57-like 3-fetch/4-issue out-of-order core: the
  baseline every figure normalises against.
* **HALF** — BIG with the IQ's width and capacity halved.
* **LITTLE** — Cortex-A53-like 2-wide in-order core.
* **HALF+FX** — the paper's FXA proposal: HALF plus a 3-stage [3,1,1]
  IXU with the "opt" bypass network.
* **BIG+FX** — BIG plus the same IXU.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple, Union

from repro.core.config import ClusterConfig, CoreConfig, IXUConfig
from repro.core.clustered import ClusteredCore
from repro.core.fxa import FXACore
from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore

MODEL_NAMES: Tuple[str, ...] = (
    "LITTLE", "BIG", "BIG+FX", "HALF", "HALF+FX"
)

#: Every name :func:`model_config` accepts: Table I's models plus the
#: clustered related-work comparator, so every core class is among them.
KNOWN_MODELS: Tuple[str, ...] = MODEL_NAMES + ("CA",)

#: The paper's IXU: three stages, [3,1,1] FUs, bypass limited to two
#: stages (Section VI-B).
PAPER_IXU = IXUConfig(stage_fus=(3, 1, 1), bypass_stage_limit=2)


def big_config() -> CoreConfig:
    """BIG: the out-of-order baseline (Table I left column)."""
    return CoreConfig(
        name="BIG",
        core_type="ooo",
        fetch_width=3,
        rename_width=3,
        issue_width=4,
        commit_width=4,
        iq_entries=64,
        rob_entries=128,
        int_prf_entries=128,
        fp_prf_entries=96,
        lq_entries=32,
        sq_entries=32,
        fu_int=2,
        fu_mem=2,
        fu_fp=2,
    )


def half_config() -> CoreConfig:
    """HALF: BIG with the IQ width and capacity halved."""
    return replace(big_config(), name="HALF", issue_width=2,
                   iq_entries=32)


def little_config() -> CoreConfig:
    """LITTLE: the in-order core (Table I right column)."""
    return CoreConfig(
        name="LITTLE",
        core_type="inorder",
        fetch_width=2,
        rename_width=2,
        issue_width=2,
        commit_width=2,
        iq_entries=1,       # unused by the in-order pipeline
        rob_entries=1,      # unused
        fu_int=2,
        fu_mem=1,
        fu_fp=1,
        fetch_to_rename=5,  # fetch-to-issue: ~8-cycle mispredict penalty
        fetch_breaks_on_taken=True,
    )


def half_fx_config(ixu: IXUConfig = PAPER_IXU) -> CoreConfig:
    """HALF+FX: the paper's FXA proposal."""
    return replace(half_config(), name="HALF+FX", ixu=ixu)


def big_fx_config(ixu: IXUConfig = PAPER_IXU) -> CoreConfig:
    """BIG+FX: FXA with the full-size IQ."""
    return replace(big_config(), name="BIG+FX", ixu=ixu)


def ca_config(steering: str = "dependence") -> CoreConfig:
    """CA: a clustered comparator with BIG-equivalent resources.

    Two Alpha 21264-style clusters, each 2-issue with one private
    integer FU, sharing the memory/FP units — the related-work design
    Section VII-A argues FXA improves upon.
    """
    return replace(
        big_config(),
        name="CA",
        clusters=ClusterConfig(
            count=2,
            issue_width_per_cluster=2,
            int_fus_per_cluster=1,
            inter_cluster_delay=1,
            steering=steering,
        ),
    )


def model_config(name: str) -> CoreConfig:
    """Look up a model configuration by name (Table I models + "CA")."""
    factories = {
        "BIG": big_config,
        "HALF": half_config,
        "LITTLE": little_config,
        "HALF+FX": half_fx_config,
        "BIG+FX": big_fx_config,
        "CA": ca_config,
    }
    try:
        return factories[name]()
    except KeyError:
        known = ", ".join(KNOWN_MODELS)
        raise KeyError(f"unknown model {name!r}; known: {known}") from None


def build_core(spec: Union[str, CoreConfig], obs=None, validator=None,
               warm_state=None):
    """Instantiate the right core class for a model name or config.

    ``obs`` is an optional :class:`repro.obs.Observability` bundle; the
    returned core collects metrics/stalls/pipeline traces into it.
    ``validator`` is an optional :class:`repro.validate.Validator`; the
    returned core runs under differential + invariant checking.
    ``warm_state`` is a restored cache hierarchy and predictor for the
    core to run on (see :class:`~repro.core.base.CoreBase`).
    """
    config = model_config(spec) if isinstance(spec, str) else spec
    if config.core_type == "inorder":
        return InOrderCore(config, obs, validator, warm_state)
    if config.has_ixu:
        return FXACore(config, obs, validator, warm_state)
    if config.clusters is not None:
        return ClusteredCore(config, obs, validator, warm_state)
    return OutOfOrderCore(config, obs, validator, warm_state)
