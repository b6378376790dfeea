"""Persistent, content-addressed on-disk cache for simulation results.

The in-process memo cache in :mod:`repro.experiments.runner` dies with
the process, so every CLI invocation, pytest session and example script
re-pays the full simulation cost.  This cache persists finished
:class:`~repro.experiments.runner.BenchmarkRun` records as JSON files
under ``~/.cache/fxa-repro/`` (or any ``--cache-dir``).  Every method
takes the :class:`~repro.experiments.pool.SimJob` itself and files it
under its ``digest``: the :func:`fingerprint`, a SHA-256 hash of

* the **complete** :class:`~repro.core.CoreConfig` (every field,
  including the nested IXU / cluster / cache-hierarchy configs),
* the benchmark name, measured/warm-up interval lengths and seed, and
* a **code-version stamp** hashing every ``repro`` source file, so any
  change to the simulator or workload generator invalidates old entries
  automatically.

Entries are written atomically (temp file + ``os.replace``) so parallel
workers and concurrent CLI invocations never observe torn files; a
corrupt or unreadable entry is treated as a miss and deleted.

Besides finished runs the cache also persists **failure records**
(``<digest>.fail.json``): when a sweep quarantines a job (crash, hang,
worker death) the structured failure is stored under the same content
address, so later invocations report the same gap without re-paying the
crash — until ``--resume`` clears the record and retries the job, the
code version changes (new fingerprint), or a successful run replaces
it.  These are the resume keys of the fault-tolerant runner.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.atomicio import replace_json

#: Bump to invalidate every existing cache entry on a format change.
CACHE_FORMAT = 1

_code_version_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/fxa-repro`` or ``~/.cache/fxa-repro``."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "fxa-repro"


def code_version() -> str:
    """Hash of every ``repro`` source file (cached per process).

    Any edit to the simulator, energy model or workload generator
    changes this stamp and therefore every cache key.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).resolve().parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def fingerprint(config, benchmark: str, measure: int, warmup: int,
                seed: int) -> str:
    """Content address of one simulation: full config + run parameters.

    Unlike the old hand-picked field list this derives from
    ``dataclasses.asdict(config)``, so *every* config field — LSQ and
    PRF capacities, predictor geometry, the cache hierarchy, ... —
    participates in the key and two configs differing in any field can
    never alias.
    """
    payload = {
        "format": CACHE_FORMAT,
        "code": code_version(),
        "config": _config_form(config, repr(config)),
        "benchmark": benchmark,
        "measure": measure,
        "warmup": warmup,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.lru_cache(maxsize=1024)
def _config_form(config, text: str) -> dict:
    """``dataclasses.asdict(config)``, derived once per config: a sweep
    fingerprints each config once per benchmark and interval.  ``text``
    is ``repr(config)``: configs that compare equal may still hold
    differently typed values (``16`` and ``16.0``, ``1`` and ``True``)
    that serialise differently, so the memo tells them apart by it.
    Callers only read the dict."""
    return dataclasses.asdict(config)


class DiskCache:
    """Content-addressed store of finished benchmark runs.

    Args:
        root: Cache directory (created on demand); defaults to
            :func:`default_cache_dir`.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.failures_seen = 0
        self.failures_stored = 0

    def _path(self, digest: str) -> Path:
        # Two-level fan-out keeps directory listings small.
        return self.root / digest[:2] / f"{digest}.json"

    def _failure_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.fail.json"

    def load(self, job):
        """Return ``job``'s cached :class:`BenchmarkRun` or None on a
        miss.

        An entry that does not parse, or parses but does not rehydrate
        (say ``"stats": []``), is dropped and counted as a miss, so the
        job is simulated again instead of failing every sweep that
        names it (as :meth:`load_failure` treats a failure record).
        """
        from repro.experiments.runner import BenchmarkRun

        path = self._path(job.digest)
        try:
            with open(path) as stream:
                payload = json.load(stream)
            run = BenchmarkRun.from_dict(payload["run"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Torn/corrupt entry: drop it and re-simulate.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return run

    def store(self, job, run) -> None:
        """Persist ``job``'s finished run (atomic write; failures are
        soft)."""
        digest = job.digest
        path = self._path(digest)
        payload = {
            "fingerprint": digest,
            "model": run.model,
            "benchmark": job.benchmark,
            "run": run.to_dict(),
        }
        if not self._write_json(path, payload):
            return  # a read-only cache dir must not break simulation
        self.stores += 1
        # A fresh success supersedes any stale quarantine record.
        try:
            self._failure_path(digest).unlink()
        except OSError:
            pass

    def _write_json(self, path: Path, payload: dict) -> bool:
        """Atomic JSON write; False (never an exception) on failure.

        The temp name comes from :func:`repro.atomicio.tmp_path_for`
        (hostname + pid + monotonic counter): on a cache directory
        shared between hosts, a pid-only suffix lets two workers
        publishing the same digest clobber each other's temp file
        mid-write and publish a torn entry.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            replace_json(path, payload)
        except OSError:
            return False
        return True

    def store_failure(self, job, record: dict) -> None:
        """Persist one quarantined job's failure record (resume key).

        ``record`` is the plain-dict form of a
        :class:`~repro.experiments.pool.JobFailure`; later invocations
        treat the job as failed without re-running it until the record
        is cleared (``--resume``) or a successful run replaces it.
        """
        if self._write_json(self._failure_path(job.digest),
                            {"fingerprint": job.digest, "failure": record}):
            self.failures_stored += 1

    def load_failure(self, job):
        """Return ``job``'s persisted
        :class:`~repro.experiments.pool.JobFailure`, or None.

        A record that does not parse, or parses but does not rehydrate
        (say ``"attempts": "many"``), is dropped like a corrupt entry,
        so the job runs again instead of failing every sweep that names
        it.
        """
        from repro.experiments.pool import JobFailure

        path = self._failure_path(job.digest)
        try:
            with open(path) as stream:
                failure = JobFailure.from_dict(
                    job, json.load(stream)["failure"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.failures_seen += 1
        return failure

    def clear_failure(self, job) -> bool:
        """Drop ``job``'s failure record (``--resume`` retries it)."""
        try:
            self._failure_path(job.digest).unlink()
        except OSError:
            return False
        return True

    def counters(self) -> dict:
        """This invocation's accounting as a plain dict.

        Returned (not just printed) so callers — the CLI's cache
        summary, run manifests, ``--json`` consumers — can record the
        hit/miss/store counts programmatically.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "failures_seen": self.failures_seen,
            "failures_stored": self.failures_stored,
            "root": str(self.root),
        }

    def clear(self) -> int:
        """Delete every entry (results and failure records alike);
        returns the number of *result* entries removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.endswith(".fail.json"):
                removed += 1
        return removed

    def __len__(self) -> int:
        """Number of cached *result* entries (failure records excluded)."""
        if not self.root.exists():
            return 0
        return sum(1 for path in self.root.glob("*/*.json")
                   if not path.name.endswith(".fail.json"))
