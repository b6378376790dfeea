"""Self-contained static HTML run reports (``repro-exp report``).

One invocation of the experiment harness leaves several artifacts
behind — a manifest, ``--metrics-json`` payloads, timelines, stall
tables.  This module folds them into a single offline-viewable HTML
file: provenance, per-run aggregates, the top-down slot trees and
energy-by-class tables from :mod:`repro.obs.topdown`, stall-mix bars,
timeline sparklines, and (optionally) an A/B section rendered from the
same :func:`~repro.obs.diffrun.diff_manifests` comparison the
``--baseline`` gate uses.

The output is deliberately dependency-free: no JavaScript, no external
stylesheets, fonts or images — bars are CSS widths, sparklines are
inline SVG polylines — so the file renders anywhere (CI artifact
viewers, ``file://``, mail attachments) exactly as generated.

Entry points::

    repro-exp report RUN.manifest.json OUT.html [--baseline BASE]
    fxa-experiments ... --report OUT.html [--report-baseline BASE]

The CLI path passes live collector payloads; the ``repro-exp`` path
recovers the top-down payloads embedded in the manifest aggregates, so
a report can be (re)built from a manifest alone, after the fact.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Sequence

from repro.atomicio import replacing
from repro.obs.manifest import RunManifest
from repro.obs.topdown import (
    ENERGY_CLASSES,
    SLOT_LEAVES,
    merge_topdown_payloads,
    rollup_slots,
)

#: Top-level category colours (muted, print-safe).
_CATEGORY_COLORS = {
    "retiring": "#2e7d32",
    "bad_speculation": "#c62828",
    "frontend_bound": "#ef6c00",
    "backend_bound": "#1565c0",
}

_SEVERITY_COLORS = {
    "regression": "#c62828",
    "warning": "#ef6c00",
    "info": "#546e7a",
}

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #212121;
       line-height: 1.45; }
h1 { font-size: 1.5em; border-bottom: 2px solid #1565c0;
     padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 2em; color: #1565c0; }
h3 { font-size: 1em; margin-bottom: .3em; }
table { border-collapse: collapse; margin: .6em 0; font-size: .85em; }
th, td { border: 1px solid #ddd; padding: .25em .6em;
         text-align: right; }
th { background: #f5f5f5; }
td.l, th.l { text-align: left; }
.bar { display: inline-block; height: .75em; vertical-align: baseline;
       background: #90a4ae; }
.tree td.label { text-align: left; font-family: monospace;
                 white-space: pre; }
.muted { color: #757575; font-size: .85em; }
.mono { font-family: monospace; }
.sev { font-weight: 600; }
svg.spark { vertical-align: middle; }
"""


def _fmt(value, digits: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    if isinstance(value, int):
        return f"{value:,}"
    return escape(str(value))


def _sparkline(values: Sequence[float], width: int = 260,
               height: int = 36) -> str:
    """Inline SVG polyline of ``values`` (empty string when < 2)."""
    if len(values) < 2:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{index * step:.1f},"
        f"{height - 2 - (value - low) / span * (height - 4):.1f}"
        for index, value in enumerate(values))
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="#1565c0" stroke-width="1.2" '
            f'points="{points}"/></svg>')


def _bar(share: float, color: str, scale: float = 220) -> str:
    width = max(0.0, min(1.0, share)) * scale
    return (f'<span class="bar" '
            f'style="width:{width:.1f}px;background:{color}"></span>')


def _kv_table(rows: Sequence[tuple]) -> List[str]:
    parts = ["<table>"]
    for key, value in rows:
        parts.append(f'<tr><th class="l">{escape(str(key))}</th>'
                     f'<td class="l">{_fmt(value)}</td></tr>')
    parts.append("</table>")
    return parts


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _provenance_section(manifest: RunManifest) -> List[str]:
    host = manifest.host or {}
    cache = manifest.cache or {}
    rows = [
        ("command", " ".join(manifest.command) or "-"),
        ("experiments", ", ".join(manifest.experiments) or "-"),
        ("benchmarks", ", ".join(manifest.benchmarks)
            if manifest.benchmarks else "full suite"),
        ("measure / warmup / seed",
         f"{manifest.measure} / {manifest.warmup} / {manifest.seed}"),
        ("code version", manifest.code_version or "-"),
        ("host", f"{host.get('hostname', '?')} "
                 f"({host.get('platform', '?')}, "
                 f"python {host.get('python', '?')}, "
                 f"{host.get('cpu_count', '?')} cpus)"),
        ("started / finished",
         f"{manifest.started_at or '?'} - {manifest.finished_at or '?'}"),
        ("wall seconds", round(manifest.wall_seconds, 2)),
        ("workers", manifest.workers),
        ("jobs simulated / failed",
         f"{manifest.jobs_simulated} / {manifest.jobs_failed}"),
        ("cache", ", ".join(f"{key}={value}"
                            for key, value in sorted(cache.items()))
            or "-"),
    ]
    return ["<h2>Provenance</h2>", *_kv_table(rows)]


def _aggregates_section(manifest: RunManifest) -> List[str]:
    if not manifest.aggregates:
        return []
    parts = ["<h2>Run aggregates</h2>", "<table>",
             '<tr><th class="l">model</th><th class="l">benchmark</th>'
             "<th>IPC</th><th>cycles</th><th>committed</th>"
             "<th>energy (pJ)</th><th>pJ/inst</th>"
             "<th>insts/s</th><th>FF cycles</th></tr>"]
    for entry in sorted(manifest.aggregates,
                        key=lambda e: (e.get("model", ""),
                                       e.get("benchmark", ""))):
        parts.append(
            "<tr>"
            f'<td class="l">{escape(str(entry.get("model", "?")))}</td>'
            f'<td class="l">'
            f'{escape(str(entry.get("benchmark", "?")))}</td>'
            f"<td>{_fmt(entry.get('ipc', 0.0))}</td>"
            f"<td>{_fmt(entry.get('cycles', 0))}</td>"
            f"<td>{_fmt(entry.get('committed', 0))}</td>"
            f"<td>{_fmt(entry.get('energy_total', 0.0), 1)}</td>"
            f"<td>{_fmt(entry.get('energy_per_instruction', 0.0))}</td>"
            f"<td>{_fmt(entry.get('insts_per_second', 0.0), 0)}</td>"
            f"<td>{_fmt(entry.get('ff_skipped_cycles', 0))}</td>"
            "</tr>")
    parts.append("</table>")
    parts.append('<p class="muted">FF cycles = cycles the fast-forward '
                 'kernel jumped instead of ticking serially.</p>')
    return parts


def topdowns_from_manifest(manifest: RunManifest) -> Dict[str, Dict]:
    """Recover per-model merged top-down payloads from the ``topdown``
    key the CLI embeds in each manifest aggregate entry (empty dict
    when the sweep ran without ``--topdown``/``--report``)."""
    per_model: Dict[str, List[Dict]] = {}
    for entry in manifest.aggregates:
        payload = entry.get("topdown")
        if payload:
            per_model.setdefault(entry.get("model", "?"),
                                 []).append(payload)
    return {model: merge_topdown_payloads(payloads)
            for model, payloads in sorted(per_model.items())}


def _topdown_section(merged: Dict[str, Dict]) -> List[str]:
    if not merged:
        return []
    parts = ["<h2>Top-down slot accounting</h2>",
             '<p class="muted">Every issue slot (commit width &times; '
             "cycles) attributed hierarchically; retiring is split by "
             "execution unit (IXU vs OXU, the paper's Figure 6 "
             "coverage).</p>"]
    rows: List[str] = []
    for leaf in SLOT_LEAVES:
        leaf_parts = leaf.split(".")
        for depth in range(1, len(leaf_parts) + 1):
            prefix = ".".join(leaf_parts[:depth])
            if prefix not in rows:
                rows.append(prefix)
    for model, payload in merged.items():
        total = payload.get("total_slots", 0) or 1
        tree = rollup_slots(payload.get("slots", {}))
        parts.append(f"<h3>{escape(model)} "
                     f'<span class="muted">({_fmt(total)} slots, '
                     f'width {payload.get("width", "?")})</span></h3>')
        parts.append('<table class="tree">')
        parts.append('<tr><th class="l">category</th>'
                     "<th>share</th><th>slots</th>"
                     '<th class="l">&nbsp;</th></tr>')
        for row in rows:
            count = tree.get(row, 0)
            share = count / total
            depth = row.count(".")
            label = "  " * depth + row.rsplit(".", 1)[-1]
            color = _CATEGORY_COLORS.get(
                row.split(".", 1)[0], "#90a4ae")
            parts.append(
                "<tr>"
                f'<td class="label">{escape(label)}</td>'
                f"<td>{share:.1%}</td><td>{_fmt(count)}</td>"
                f'<td class="l">{_bar(share, color)}</td></tr>')
        parts.append("</table>")
    return parts


def _energy_section(merged: Dict[str, Dict]) -> List[str]:
    if not merged:
        return []
    models = list(merged)
    parts = ["<h2>Energy by instruction class</h2>", "<table>",
             '<tr><th class="l">class</th>'
             + "".join(f"<th>{escape(model)} (pJ)</th><th>share</th>"
                       for model in models) + "</tr>"]
    totals = {model: merged[model].get("energy_total", 0.0) or 1.0
              for model in models}
    for key in ENERGY_CLASSES:
        cells = []
        for model in models:
            energy = merged[model].get(
                "energy_by_class", {}).get(key, 0.0)
            cells.append(f"<td>{_fmt(energy, 1)}</td>"
                         f"<td>{energy / totals[model]:.1%}</td>")
        parts.append(f'<tr><td class="l mono">{escape(key)}</td>'
                     + "".join(cells) + "</tr>")
    parts.append('<tr><th class="l">total</th>'
                 + "".join(f"<th>{_fmt(merged[m].get('energy_total', 0.0), 1)}"
                           f"</th><th>100%</th>" for m in models)
                 + "</tr>")
    parts.append("</table>")
    return parts


def _stalls_section(manifest: RunManifest) -> List[str]:
    entries = [e for e in manifest.aggregates if e.get("stalls")]
    if not entries:
        return []
    parts = ["<h2>Stall-cause mix</h2>"]
    for entry in sorted(entries, key=lambda e: (e.get("model", ""),
                                                e.get("benchmark", ""))):
        stalls = entry["stalls"]
        total = sum(stalls.values()) or 1
        parts.append(
            f"<h3>{escape(str(entry.get('model', '?')))}/"
            f"{escape(str(entry.get('benchmark', '?')))} "
            f'<span class="muted">({_fmt(total)} stall cycles)'
            "</span></h3>")
        parts.append("<table>")
        for cause, cycles in sorted(stalls.items(),
                                    key=lambda kv: -kv[1]):
            if not cycles:
                continue
            share = cycles / total
            parts.append(
                f'<tr><td class="l mono">{escape(cause)}</td>'
                f"<td>{share:.1%}</td><td>{_fmt(cycles)}</td>"
                f'<td class="l">{_bar(share, "#90a4ae")}</td></tr>')
        parts.append("</table>")
    return parts


def _timeline_section(timelines) -> List[str]:
    if not timelines:
        return []
    parts = ["<h2>Timelines</h2>",
             '<p class="muted">Per-interval IPC and energy per '
             "instruction (one point per sampling interval).</p>"]
    for collector in timelines:
        samples = getattr(collector, "samples", [])
        label = (f"{getattr(collector, 'model', '?')}/"
                 f"{getattr(collector, 'benchmark', '?')}")
        parts.append(f"<h3>{escape(label)} "
                     f'<span class="muted">({len(samples)} '
                     "interval(s))</span></h3>")
        if not samples:
            continue
        ipcs = [s.ipc for s in samples]
        epis = [s.energy_per_instruction for s in samples]
        parts.append("<table>")
        parts.append(f'<tr><td class="l">IPC</td>'
                     f"<td>{min(ipcs):.2f}..{max(ipcs):.2f}</td>"
                     f'<td class="l">{_sparkline(ipcs)}</td></tr>')
        parts.append(f'<tr><td class="l">pJ/inst</td>'
                     f"<td>{min(epis):.1f}..{max(epis):.1f}</td>"
                     f'<td class="l">{_sparkline(epis)}</td></tr>')
        parts.append("</table>")
    return parts


def _diff_section(manifest: RunManifest, baseline: RunManifest,
                  base_label: str) -> List[str]:
    from repro.obs.diffrun import diff_manifests

    report = diff_manifests(baseline, manifest)
    parts = ["<h2>A/B vs baseline</h2>",
             f'<p class="muted">Baseline: {escape(base_label)} '
             f"({report.compared} pair(s) compared"
             + ("" if report.sim_speed_compared
                else "; sim-speed skipped: different hosts") + ")</p>"]
    if not report.deltas:
        parts.append("<p>No changes beyond thresholds.</p>")
        return parts
    parts.append("<table>")
    parts.append('<tr><th class="l">severity</th><th class="l">where'
                 '</th><th class="l">metric</th><th>base</th>'
                 "<th>new</th><th>change</th>"
                 '<th class="l">note</th></tr>')
    for delta in report.deltas:
        color = _SEVERITY_COLORS.get(delta.severity, "#546e7a")
        where = (f"{delta.model}/{delta.benchmark}"
                 if delta.benchmark else delta.model)
        parts.append(
            "<tr>"
            f'<td class="l sev" style="color:{color}">'
            f"{escape(delta.severity)}</td>"
            f'<td class="l">{escape(where)}</td>'
            f'<td class="l mono">{escape(delta.metric)}</td>'
            f"<td>{_fmt(delta.base, 4)}</td>"
            f"<td>{_fmt(delta.new, 4)}</td>"
            f"<td>{delta.rel_change:+.1%}</td>"
            f'<td class="l">{escape(delta.note)}</td></tr>')
    parts.append("</table>")
    verdict = "OK" if report.ok else "REGRESSED"
    parts.append(f"<p><b>Result: {verdict}</b> "
                 f"({len(report.regressions)} regression(s), "
                 f"{len(report.warnings)} warning(s))</p>")
    return parts


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def render_report(manifest: RunManifest, *,
                  topdowns: Optional[Dict[str, Dict]] = None,
                  timelines=None,
                  baseline: Optional[RunManifest] = None,
                  base_label: str = "baseline",
                  title: str = "FXA experiment report") -> str:
    """Render the full HTML document as a string.

    Args:
        manifest: The run to report on.
        topdowns: Per-model *merged* top-down payloads
            (:func:`~repro.obs.topdown.merge_topdown_payloads`); when
            None they are recovered from the manifest aggregates.
        timelines: Optional sequence of
            :class:`~repro.obs.TimelineCollector` (live or rebuilt via
            ``from_dict``) for the sparkline section.
        baseline: Optional baseline manifest for the A/B section.
        base_label: Label naming the baseline (usually its path).
        title: Document title.
    """
    if topdowns is None:
        topdowns = topdowns_from_manifest(manifest)
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{escape(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{escape(title)}</h1>",
    ]
    parts += _provenance_section(manifest)
    parts += _aggregates_section(manifest)
    parts += _topdown_section(topdowns)
    parts += _energy_section(topdowns)
    parts += _stalls_section(manifest)
    parts += _timeline_section(timelines)
    if baseline is not None:
        parts += _diff_section(manifest, baseline, base_label)
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(path: str, manifest: RunManifest, **kwargs) -> None:
    """Render and write the report to ``path``."""
    document = render_report(manifest, **kwargs)
    with replacing(path) as stream:
        stream.write(document)
        stream.write("\n")


__all__ = [
    "render_report",
    "write_report",
    "topdowns_from_manifest",
]
