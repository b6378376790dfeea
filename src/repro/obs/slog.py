"""Structured logging for the serving stack (and anything else).

Thin wrapper over stdlib :mod:`logging` that gives every component two
interchangeable output shapes from the same call sites:

* **console** (the default) — one human-readable line per record, with
  any correlation fields appended as ``key=value`` pairs;
* **JSON lines** (``--log-json``) — one JSON object per record with
  ``ts``/``level``/``logger``/``msg`` plus the correlation fields
  (``trace_id``, ``batch_id``, ``tenant``, ``digest``, ...), ready for
  ingestion by log shippers.

Correlation fields ride through the normal ``extra=`` mechanism::

    log = slog.get_logger("repro.serve")
    log.info("batch admitted", extra={"batch_id": bid, "trace_id": tid})

All repro loggers live under the ``"repro"`` root so one
:func:`configure` call controls the whole tree.  :func:`configure` is
idempotent: calling it again replaces the handler rather than stacking
duplicates, which keeps in-process test servers from double-logging.

The commands that log (``repro-exp serve`` and ``spool-worker``) share
the flag vocabulary through :func:`add_logging_args` /
:func:`configure_from_args`.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import sys
from typing import IO, Optional

#: Root logger name for everything in this package.
ROOT = "repro"

#: LogRecord attribute names that are plumbing, not user payload.  Any
#: record attribute *not* in this set is treated as a correlation field
#: and serialized alongside the message.
_RESERVED = frozenset(vars(logging.makeLogRecord({})).keys()) | {
    "message", "asctime", "taskName",
}


def _extra_fields(record: logging.LogRecord) -> dict:
    return {
        key: value for key, value in record.__dict__.items()
        if key not in _RESERVED and not key.startswith("_")
    }


class JsonFormatter(logging.Formatter):
    """One JSON object per line; correlation fields inline."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": datetime.datetime.fromtimestamp(
                record.created, datetime.timezone.utc
            ).isoformat(timespec="milliseconds"),
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        payload.update(_extra_fields(record))
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=False, default=str)


class ConsoleFormatter(logging.Formatter):
    """Human-readable line: ``HH:MM:SS LEVEL logger: msg key=value ...``"""

    def format(self, record: logging.LogRecord) -> str:
        stamp = datetime.datetime.fromtimestamp(
            record.created).strftime("%H:%M:%S")
        line = f"{stamp} {record.levelname:<7s} {record.name}: " \
               f"{record.getMessage()}"
        fields = _extra_fields(record)
        if fields:
            joined = " ".join(f"{k}={v}" for k, v in fields.items())
            line = f"{line} [{joined}]"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    Binding the stream at :func:`configure` time breaks when the caller
    swaps stderr around it (pytest's capture does): a server thread that
    logs after the swap is undone would write to a closed stream.
    """

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def get_logger(name: str = ROOT) -> logging.Logger:
    """Logger under the ``repro`` tree (``name`` may already include it)."""
    if name != ROOT and not name.startswith(ROOT + "."):
        name = f"{ROOT}.{name}"
    return logging.getLogger(name)


def configure(json_lines: bool = False, level: str = "info",
              stream: Optional[IO[str]] = None) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree.

    Replaces any handler previously installed by this function, so
    repeated calls (e.g. several in-process test servers) never stack
    duplicate handlers.  Returns the root ``repro`` logger.
    """
    root = logging.getLogger(ROOT)
    root.setLevel(getattr(logging, level.upper(), logging.INFO))
    root.propagate = False
    handler = (_StderrHandler() if stream is None
               else logging.StreamHandler(stream))
    handler.setFormatter(JsonFormatter() if json_lines
                         else ConsoleFormatter())
    handler._repro_slog = True  # type: ignore[attr-defined]
    for existing in list(root.handlers):
        if getattr(existing, "_repro_slog", False):
            root.removeHandler(existing)
    root.addHandler(handler)
    return root


def add_logging_args(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--log-json`` / ``--log-level`` flags."""
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit JSON-lines structured logs instead of console lines")
    parser.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="log verbosity (default: info)")


def configure_from_args(args: argparse.Namespace) -> logging.Logger:
    """Apply :func:`configure` from a parsed argparse namespace."""
    return configure(json_lines=getattr(args, "log_json", False),
                     level=getattr(args, "log_level", "info"))


__all__ = [
    "ROOT", "JsonFormatter", "ConsoleFormatter", "get_logger",
    "configure", "add_logging_args", "configure_from_args",
]
