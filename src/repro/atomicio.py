"""Atomic file publication and advisory locking for shared directories.

Several persistence paths in this repo are read and written by more
than one process at once: the content-addressed disk cache under a
sweep with ``--jobs N``, run manifests polled by progress streamers and
``repro-exp diff`` while the producing sweep is still running, the
``--trajectory`` / simspeed JSON histories appended by concurrent
sweeps, and the job-server spool directory shared between worker
*hosts*.  They all need the same two primitives:

* :func:`replacing` — write a file through a temp sibling published
  with ``os.replace``, so a reader sees either the complete old file or
  the complete new one, never a torn intermediate
  (:func:`replace_json` is its JSON form).  The temp name
  (:func:`tmp_path_for`) embeds hostname, pid **and** a
  process-monotonic counter: pids collide across hosts on a shared
  filesystem, and one process can publish the same path twice from two
  threads, so any shorter name lets two writers clobber each other's
  temp file mid-write.
* :func:`locked` — an exclusive ``fcntl`` lock for read-modify-write
  cycles (histories that append).  The lock lives on a ``<path>.lock``
  sidecar because the data file itself is republished by
  ``os.replace``: locking the data inode would let a second writer
  lock the *new* inode while the first still holds the old one.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import socket
import threading
from contextlib import contextmanager

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

_COUNTER = itertools.count()
#: Hostname sanitised to filename-safe characters (a shared NFS spool
#: sees temp files from many machines side by side).
_HOST = re.sub(r"[^A-Za-z0-9_.-]", "-", socket.gethostname()) or "host"


def tmp_path_for(path) -> str:
    """A collision-proof temp sibling for atomically publishing ``path``.

    All three components are load-bearing: the hostname distinguishes
    workers on different machines sharing one directory (their pids
    collide), the pid distinguishes processes on one host, and the
    monotonic counter distinguishes threads (and repeat publishes)
    within one process.
    """
    return f"{path}.tmp.{_HOST}.{os.getpid()}.{next(_COUNTER)}"


@contextmanager
def replacing(path, mode: str = "w", **kwargs):
    """Write ``path`` atomically: ``with replacing(path) as stream:``.

    Yields a stream opened with ``open(tmp, mode, **kwargs)`` on a temp
    sibling (:func:`tmp_path_for`) and publishes it at ``path`` with
    ``os.replace`` once the block ends without an error.  If the block
    (or the publish) fails, any existing file is left untouched and the
    temp is removed.
    """
    tmp = tmp_path_for(path)
    try:
        with open(tmp, mode, **kwargs) as stream:
            yield stream
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def replace_json(path, payload, *, indent=None, sort_keys: bool = False,
                 default=None, trailing_newline: bool = False) -> None:
    """Serialise ``payload`` as JSON and atomically publish it at ``path``.

    ``indent``, ``sort_keys`` and ``default`` are :func:`json.dumps`'s.
    Readers never observe a torn file; a failure while serialising (or
    writing) leaves any existing file untouched and removes the temp.
    The text is encoded in one call and written once (``json.dump``
    would send the stream hundreds of small writes).
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys,
                      default=default)
    with replacing(path) as stream:
        stream.write(text + "\n" if trailing_newline else text)


#: In-process locks per path.  POSIX record locks are held per
#: *process*: a second thread of the same process acquires the fcntl
#: lock instantly even while the first still holds it, so cross-thread
#: mutual exclusion needs a real threading.Lock alongside it.
_THREAD_LOCKS: dict = {}
_THREAD_LOCKS_GUARD = threading.Lock()


def _thread_lock_for(path) -> threading.Lock:
    key = os.path.abspath(str(path))
    with _THREAD_LOCKS_GUARD:
        lock = _THREAD_LOCKS.get(key)
        if lock is None:
            lock = _THREAD_LOCKS[key] = threading.Lock()
        return lock


@contextmanager
def locked(path):
    """Exclusive lock guarding a read-modify-write of ``path``.

    Blocks until the lock is held.  Two layers, both required: a
    per-path ``threading.Lock`` serialises threads within this process
    (fcntl record locks are per-process and would not), and an
    exclusive ``fcntl`` lock on the ``<path>.lock`` sidecar serialises
    against other processes.  Platforms without ``fcntl`` keep the
    thread layer and degrade to no cross-process locking (the atomic
    publish still prevents torn reads, only lost updates are possible
    there).
    """
    with _thread_lock_for(path):
        with open(f"{path}.lock", "a") as handle:
            if fcntl is not None:
                fcntl.lockf(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.lockf(handle, fcntl.LOCK_UN)
