"""The in-order execution unit (IXU) — the paper's contribution.

The IXU is a stall-free in-order execution pipeline of FUs plus a bypass
network, placed between rename and dispatch.  This package provides the
bypass-reachability registry; :class:`repro.core.FXACore` runs the
stages, their FU counts and the pipe itself inside the pipeline.
"""

from repro.ixu.pipeline import BypassRegistry

__all__ = ["BypassRegistry"]
