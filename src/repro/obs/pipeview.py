"""Kanata pipeline-trace writer (Konata-compatible).

Emits the tab-separated Onikiri2-Kanata log format that the Konata
visualiser (https://github.com/shioyadan/konata — by the paper's first
author) renders as a per-instruction pipeline diagram::

    Kanata  0004
    C=      <start cycle>
    I       <file id>  <sim id>  <thread>
    L       <file id>  0         <label text>
    S       <file id>  0         <stage>
    E       <file id>  0         <stage>
    R       <file id>  <retire>  <0=commit|1=flush>
    C       <cycles advanced>

The simulator retires (or flushes) instructions with all of their stage
timestamps already stamped on the
:class:`~repro.core.inflight.InFlight` record, so the writer buffers
stage events per instruction and serialises them in global cycle order
on :meth:`close`.  A ``window`` bounds how many instructions are
recorded, keeping traces of long runs small enough to load.

Stage names: ``F`` fetch, ``Rn`` rename, ``X`` IXU execution (FXA),
``Iq`` issue-queue residency, ``Ex`` OXU execute, ``Cm`` completed and
waiting to retire.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.atomicio import replacing

KANATA_HEADER = "Kanata\t0004"


class KanataWriter:
    """Buffering writer for one simulation's pipeline trace.

    Args:
        path: Output file (overwritten on :meth:`close`).
        window: Record at most this many instructions (None = all).
    """

    def __init__(self, path: str, window: Optional[int] = None):
        if window is not None and window <= 0:
            raise ValueError("pipeview window must be positive")
        self.path = path
        self.window = window
        self.recorded = 0
        self._next_id = 0
        self._order = 0
        #: (cycle, emit order, line) triples, sorted on close.
        self._events: List[Tuple[int, int, str]] = []

    # ------------------------------------------------------------------

    @property
    def full(self) -> bool:
        """Has the instruction window been exhausted?"""
        return self.window is not None and self.recorded >= self.window

    def record(self, entry, end_cycle: int, flushed: bool) -> None:
        """Record one retired (or flushed) in-flight instruction.

        Every stage timestamp is read off ``entry``; unset stages
        (``< 0``) are skipped, so partially-advanced flushed
        instructions serialise cleanly.
        """
        if self.full:
            return
        stages = self._stage_starts(entry)
        if not stages:
            return
        self.recorded += 1
        file_id = self._next_id
        self._next_id += 1
        inst = entry.inst
        first_cycle = stages[0][1]
        self._emit(first_cycle, f"I\t{file_id}\t{inst.seq}\t0")
        self._emit(first_cycle,
                   f"L\t{file_id}\t0\t{inst.pc:#x}: {inst.op.name}")
        self._emit(first_cycle,
                   f"L\t{file_id}\t1\tseq={inst.seq} {self._detail(entry)}")
        previous = None
        for name, start in stages:
            if previous is not None:
                self._emit(start, f"E\t{file_id}\t0\t{previous}")
            self._emit(start, f"S\t{file_id}\t0\t{name}")
            previous = name
        end = max(end_cycle, stages[-1][1])
        self._emit(end, f"E\t{file_id}\t0\t{previous}")
        self._emit(end,
                   f"R\t{file_id}\t{inst.seq}\t{1 if flushed else 0}")

    def close(self) -> None:
        """Sort the buffered events into cycle order and write the file.

        A ``.gz`` path is written gzip-compressed (Konata loads both
        forms; long-window traces shrink ~10x).
        """
        lines = [KANATA_HEADER]
        current: Optional[int] = None
        for cycle, _, text in sorted(self._events):
            if current is None:
                lines.append(f"C=\t{cycle}")
            elif cycle > current:
                lines.append(f"C\t{cycle - current}")
            current = cycle
            lines.append(text)
        text = "\n".join(lines) + "\n"
        if self.path.endswith(".gz"):
            import gzip

            # mtime=0 keeps repeated runs byte-identical; the header
            # names the final file, not the temp one.
            with replacing(self.path, "wb") as raw:
                with gzip.GzipFile(self.path, "wb", mtime=0,
                                   fileobj=raw) as stream:
                    stream.write(text.encode())
        else:
            with replacing(self.path) as stream:
                stream.write(text)

    # ------------------------------------------------------------------

    def _emit(self, cycle: int, text: str) -> None:
        self._events.append((cycle, self._order, text))
        self._order += 1

    @staticmethod
    def _detail(entry) -> str:
        parts = []
        if getattr(entry, "executed_in_ixu", False):
            parts.append(
                f"IXU(stage {entry.ixu_exec_stage},"
                f" cat {entry.ixu_category or '?'})"
            )
        if entry.mispredicted:
            parts.append("mispredicted")
        if entry.squashed:
            parts.append("squashed")
        return " ".join(parts) if parts else "-"

    @staticmethod
    def _stage_starts(entry) -> List[Tuple[str, int]]:
        """Ordered (stage name, start cycle) list from entry timestamps.

        Stage starts are clamped monotonically non-decreasing so a
        coarse timestamp (e.g. a scheduled cycle) can never produce a
        negative-length stage.
        """
        raw: List[Tuple[str, int]] = [("F", entry.fetch_cycle)]
        if entry.rename_cycle >= 0:
            raw.append(("Rn", entry.rename_cycle))
        if getattr(entry, "executed_in_ixu", False):
            raw.append(("X", entry.ixu_exec_cycle))
        if entry.iq_cycle >= 0:
            raw.append(("Iq", entry.iq_cycle))
        if entry.issue_cycle >= 0 and not entry.executed_in_ixu:
            raw.append(("Ex", entry.issue_cycle))
        if entry.complete_cycle >= 0:
            raw.append(("Cm", entry.complete_cycle))
        stages: List[Tuple[str, int]] = []
        floor = None
        for name, start in raw:
            if start < 0:
                continue
            if floor is not None and start < floor:
                start = floor
            stages.append((name, start))
            floor = start
        return stages
