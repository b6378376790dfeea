"""Per-tenant admission control for the job server.

Tenancy here is cooperative (a label on each batch), but the
accounting is real: a tenant may only keep ``max_queued`` jobs
admitted-but-unfinished at a time and submit at most ``max_batch``
jobs per request; anything beyond answers HTTP 429 without touching
the scheduler.  ``priority`` orders the batch queue — the scheduler
always starts the highest-priority waiting batch next (FIFO within a
priority level), so an interactive tenant's two-job probe is never
stuck behind a bulk tenant's thousand-job sweep.

Policies load from a JSON file (``repro-exp serve --quotas``)::

    {"default": {"max_queued": 256, "max_batch": 256, "priority": 0},
     "tenants": {"ci":    {"max_queued": 64, "priority": 10},
                 "bulk":  {"max_queued": 1024, "priority": -10}}}

Unknown tenants fall back to the ``default`` policy.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional


class QuotaExceeded(Exception):
    """A submission over the tenant's budget; answered with HTTP 429."""


@dataclass(frozen=True)
class TenantPolicy:
    """Limits and scheduling weight for one tenant."""

    name: str = "default"
    max_queued: int = 256      # admitted-but-unfinished jobs at once
    max_batch: int = 256       # jobs per single submission
    priority: int = 0          # higher = scheduled first

    def to_dict(self) -> Dict:
        return {"max_queued": self.max_queued,
                "max_batch": self.max_batch,
                "priority": self.priority}


_POLICY_KEYS = frozenset({"max_queued", "max_batch", "priority"})


def _policy_from(name: str, data: object,
                 base: TenantPolicy) -> TenantPolicy:
    if not isinstance(data, Mapping):
        raise ValueError(f"tenant {name!r}: policy must be an object")
    unknown = set(data) - _POLICY_KEYS
    if unknown:
        raise ValueError(f"tenant {name!r}: unknown quota key(s) "
                         f"{sorted(unknown)}; known: "
                         f"{sorted(_POLICY_KEYS)}")
    for key, value in data.items():
        # bool is an int subclass, but "priority": true is a typo.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"tenant {name!r}: {key} must be an "
                             f"integer (got {value!r})")
    policy = replace(base, name=name, **dict(data))
    if policy.max_queued < 1 or policy.max_batch < 1:
        raise ValueError(f"tenant {name!r}: max_queued and max_batch "
                         "must be >= 1")
    return policy


class QuotaRegistry:
    """Tenant policies plus live per-tenant accounting.

    Thread-safe: ``admit`` runs on the event loop but ``release`` can
    arrive from executor callbacks, so the counters sit behind a lock.
    """

    def __init__(self, default: Optional[TenantPolicy] = None,
                 tenants: Optional[Dict[str, TenantPolicy]] = None):
        self.default = default or TenantPolicy()
        self.tenants = dict(tenants or {})
        self._lock = threading.Lock()
        self._active: Dict[str, int] = {}
        self._admitted: Dict[str, int] = {}
        self._rejected: Dict[str, int] = {}

    @classmethod
    def from_file(cls, path) -> "QuotaRegistry":
        """Load the policies at ``path``; raises OSError when it cannot
        be read and ValueError when it is not a valid policy file."""
        with open(path) as stream:
            data = json.load(stream)
        if not isinstance(data, Mapping):
            raise ValueError(f"{path}: quota file must be an object")
        unknown = set(data) - {"default", "tenants"}
        if unknown:
            raise ValueError(f"{path}: unknown key(s) {sorted(unknown)}")
        default = _policy_from("default", data.get("default", {}),
                               TenantPolicy())
        entries = data.get("tenants") or {}
        if not isinstance(entries, Mapping):
            raise ValueError(f"{path}: \"tenants\" must be an object")
        tenants = {name: _policy_from(name, entry, default)
                   for name, entry in entries.items()}
        return cls(default=default, tenants=tenants)

    def policy(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, replace(self.default,
                                                name=tenant))

    def admit(self, tenant: str, jobs: int) -> TenantPolicy:
        """Reserve ``jobs`` slots for ``tenant`` or raise
        :class:`QuotaExceeded`; pair every success with one
        :meth:`release` when the batch finishes."""
        policy = self.policy(tenant)
        with self._lock:
            if jobs > policy.max_batch:
                self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
                raise QuotaExceeded(
                    f"tenant {tenant!r}: batch of {jobs} exceeds "
                    f"max_batch={policy.max_batch}")
            active = self._active.get(tenant, 0)
            if active + jobs > policy.max_queued:
                self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
                raise QuotaExceeded(
                    f"tenant {tenant!r}: {active} job(s) already "
                    f"queued; admitting {jobs} more exceeds "
                    f"max_queued={policy.max_queued}")
            self._active[tenant] = active + jobs
            self._admitted[tenant] = self._admitted.get(tenant, 0) + jobs
        return policy

    def release(self, tenant: str, jobs: int) -> None:
        with self._lock:
            self._active[tenant] = max(
                0, self._active.get(tenant, 0) - jobs)

    def snapshot(self) -> Dict[str, Dict]:
        """Per-tenant accounting for the status endpoint."""
        with self._lock:
            names = (set(self._active) | set(self._admitted)
                     | set(self._rejected) | set(self.tenants))
            return {
                name: {
                    "active_jobs": self._active.get(name, 0),
                    "admitted_jobs": self._admitted.get(name, 0),
                    "rejected_batches": self._rejected.get(name, 0),
                    "policy": self.policy(name).to_dict(),
                }
                for name in sorted(names)
            }


__all__ = ["QuotaExceeded", "TenantPolicy", "QuotaRegistry"]
