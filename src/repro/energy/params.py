"""Device and energy-model parameters.

``DeviceParams`` reproduces Table II verbatim; ``EnergyParams`` holds the
per-event base energies (pJ) and leakage densities the analytical model
uses.  Base energies are quoted at the BIG core's structure geometry
(Table I left column) and are scaled by capacity/port ratios for other
configurations — the scaling rule the paper takes from Weste & Harris.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceParams:
    """Table II: device configuration used by the McPAT evaluation."""

    technology: str = "22 nm, Fin-FET (MASTAR)"
    temperature_k: int = 320
    vdd: float = 0.8
    core_device_type: str = "high performance"
    core_ioff_na_per_um: float = 127.0
    l2_device_type: str = "low standby power"
    l2_ioff_na_per_um: float = 0.0968
    clock_ghz: float = 2.0


#: Reference geometry the base energies are quoted at (BIG, Table I).
REF_IQ_ENTRIES = 64
REF_ISSUE_WIDTH = 4
REF_LSQ_ENTRIES = 64          # 32 loads + 32 stores
REF_PRF_ENTRIES = 224         # 128 INT + 96 FP
REF_RENAME_WIDTH = 3
REF_OXU_FUS = 6               # 2 int + 2 mem + 2 fp


@dataclass(frozen=True)
class EnergyParams:
    """Per-event base energies in pJ and leakage densities.

    Calibrated so the BIG model's component shares approximate the
    Figure 8a stacked bars (IQ a mid-teens share, caches ~30 %, L2
    nearly invisible, ...).  Absolute joules are not meaningful — every
    figure the paper reports is relative to BIG.
    """

    # Issue queue: CAM+RAM write on dispatch, payload read on issue,
    # per-entry tag comparison on each wakeup broadcast.
    iq_dispatch: float = 4.0
    iq_issue: float = 3.2
    iq_cam_compare: float = 0.5
    # Load/store queue: address CAM search and entry write.
    lsq_search: float = 11.0
    lsq_write: float = 9.0
    # Register files / rename.
    prf_read: float = 3.0
    prf_write: float = 3.8
    scoreboard_read: float = 0.05      # 1/64 of the PRF (paper V-B)
    rat_read: float = 1.7
    rat_write: float = 1.7
    rob_alloc: float = 4.0
    # Execution.
    fu_int_op: float = 5.0
    fu_agu_op: float = 3.6
    fu_fp_op: float = 24.0
    bypass_broadcast: float = 1.6      # at 6 FUs on the network
    intercluster_forward: float = 3.2  # CA cross-cluster result wires
    wrongpath_op: float = 1.4          # flushed work, int-op equivalent
    # Front end.
    decode: float = 5.2
    fetch: float = 8.0                 # fetch queue + ITLB + sequencing
    predictor_lookup: float = 6.0      # PHT + BTB
    # Caches (per access at Table I geometry; line-granular for the L1I).
    l1i_access: float = 70.0
    l1d_access: float = 25.0
    l1d_fill: float = 30.0
    l2_access: float = 24.0
    prefetch: float = 10.0
    # Leakage densities, pJ per cycle per mm².
    hp_leak_pj_per_cycle_mm2: float = 2.4
    lstp_leak_pj_per_cycle_mm2: float = 0.08


DEFAULT_DEVICE = DeviceParams()
DEFAULT_ENERGY = EnergyParams()
