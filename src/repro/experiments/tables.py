"""Tables I and II: processor and device configurations.

These are inputs, not results — the regenerators render the implemented
configurations so a reader can diff them against the paper's tables.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import MODEL_NAMES, model_config
from repro.energy import DEFAULT_DEVICE


def table1() -> Dict[str, Dict[str, str]]:
    """Return the Table I parameter grid for every model."""
    grid: Dict[str, Dict[str, str]] = {}
    for model in MODEL_NAMES:
        config = model_config(model)
        hierarchy = config.hierarchy
        row = {
            "type": ("in-order" if config.core_type == "inorder"
                     else "out-of-order"),
            "fetch width": f"{config.fetch_width} inst.",
            "issue width": f"{config.issue_width} inst.",
            "issue queue": ("N/A" if config.core_type == "inorder"
                            else f"{config.iq_entries} entries"),
            "FU (int, mem, fp)":
                f"{config.fu_int}, {config.fu_mem}, {config.fu_fp}",
            "ROB": ("N/A" if config.core_type == "inorder"
                    else f"{config.rob_entries} entries"),
            "int/fp PRF": (
                "N/A" if config.core_type == "inorder"
                else f"{config.int_prf_entries}/"
                     f"{config.fp_prf_entries} entries"),
            "ld/st queue": (
                "N/A" if config.core_type == "inorder"
                else f"{config.lq_entries}/{config.sq_entries} entries"),
            "branch pred.":
                f"g-share, {config.pht_entries // 1024}K PHT, "
                f"{config.btb_entries} entries BTB",
            "br. mispred. penalty":
                f"~{config.mispredict_depth} cycles",
            "L1C (I)": f"{hierarchy.l1i_kb} KB, {hierarchy.l1i_ways} way,"
                       f" {hierarchy.line_bytes} B/line,"
                       f" {hierarchy.l1_latency} cycles",
            "L1C (D)": f"{hierarchy.l1d_kb} KB, {hierarchy.l1d_ways} way,"
                       f" {hierarchy.line_bytes} B/line,"
                       f" {hierarchy.l1_latency} cycles",
            "L2C": f"{hierarchy.l2_kb} KB, {hierarchy.l2_ways} way,"
                   f" {hierarchy.line_bytes} B/line,"
                   f" {hierarchy.l2_latency} cycles",
            "main mem.": f"{hierarchy.mem_latency} cycles",
            "ISA": "Alpha-like micro-ISA",
        }
        if config.has_ixu:
            row["IXU"] = (
                f"{list(config.ixu.stage_fus)} FUs, bypass limit "
                f"{config.ixu.bypass_stage_limit}"
            )
        grid[model] = row
    return grid


def table2() -> Dict[str, str]:
    """Return the Table II device configuration."""
    device = DEFAULT_DEVICE
    return {
        "technology": device.technology,
        "temperature": f"{device.temperature_k} K",
        "VDD": f"{device.vdd} V",
        "device type (core)":
            f"{device.core_device_type} "
            f"(I off: {device.core_ioff_na_per_um} nA/um)",
        "device type (L2)":
            f"{device.l2_device_type} "
            f"(I off: {device.l2_ioff_na_per_um} nA/um)",
        "clock": f"{device.clock_ghz} GHz",
    }


def format_table1(grid: Dict[str, Dict[str, str]]) -> str:
    models = list(grid)
    keys: List[str] = []
    for row in grid.values():
        for key in row:
            if key not in keys:
                keys.append(key)
    width = max(len(k) for k in keys) + 2
    lines = ["Table I: processor configurations",
             " " * width + "".join(f"{m:>24s}" for m in models)]
    for key in keys:
        cells = "".join(
            f"{grid[m].get(key, '-'):>24s}" for m in models
        )
        lines.append(f"{key:{width}s}{cells}")
    return "\n".join(lines)


def format_table2(rows: Dict[str, str]) -> str:
    lines = ["Table II: device configurations"]
    for key, value in rows.items():
        lines.append(f"  {key:22s}{value}")
    return "\n".join(lines)

