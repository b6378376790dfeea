"""The sweep flags of ``fxa-experiments``, ``repro-exp dse`` and
``repro-exp serve``, declared once.

:func:`add_sweep_args` adds them with parse-time validation, so a bad
value exits 2 with a one-line argparse error before anything runs;
:func:`applied` installs the parsed values as the runner's
:class:`~repro.experiments.runner.SweepSettings` and fault injector for
a ``with`` block.
"""

from __future__ import annotations

import argparse

from repro.experiments import runner
from repro.experiments.diskcache import DiskCache
from repro.experiments.pool import FaultSpec


def int_at_least(minimum: int):
    """argparse type: an integer ``>= minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum} (got {value})")
        return value
    return parse


def float_at_least(minimum: float, exclusive: bool = False):
    """argparse type: a number ``>= minimum`` (``> minimum`` when
    ``exclusive``)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}") from None
        if value < minimum or (exclusive and value == minimum):
            op = ">" if exclusive else ">="
            raise argparse.ArgumentTypeError(
                f"must be {op} {minimum:g} (got {value:g})")
        return value
    return parse


def fault_spec(text: str) -> FaultSpec:
    """argparse type: a :class:`~repro.experiments.pool.FaultSpec`."""
    try:
        return FaultSpec.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def add_sweep_args(parser: argparse.ArgumentParser, *,
                   in_process: bool = True) -> None:
    """Declare the sweep flags on ``parser``.

    Every sweep command takes ``--jobs --cache-dir --timeout --retries
    --retry-backoff --inject-fault``.  ``in_process`` adds
    ``--no-cache`` and ``--resume``, which only a sweep this process
    runs for itself takes: the job server always caches, and its
    clients choose resume per batch.  The two exclude each other: a
    resume replays from the cache.
    """
    parser.add_argument(
        "--jobs", type=int_at_least(1), default=1, metavar="N",
        help="Worker processes simulations fan out over (default 1).")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="On-disk result cache directory "
             "(default ~/.cache/fxa-repro).")
    if in_process:
        cache_use = parser.add_mutually_exclusive_group()
        cache_use.add_argument(
            "--no-cache", action="store_true",
            help="Disable the on-disk result cache (always "
                 "re-simulate).")
        cache_use.add_argument(
            "--resume", action="store_true",
            help="Replay completed jobs from the disk cache and re-run "
                 "only missing or previously-failed ones (clears their "
                 "failure records); requires the cache.")
    parser.add_argument(
        "--timeout", type=float_at_least(0.0, exclusive=True),
        default=None, metavar="SECONDS",
        help="Per-job execution-time limit (queue wait is not charged); "
             "a job over the limit is retried, then quarantined "
             "(default: none).")
    parser.add_argument(
        "--retries", type=int_at_least(0), default=0, metavar="N",
        help="Re-run a failed job (crash, hang, dead worker) up to N "
             "extra times before quarantining it (default 0).")
    parser.add_argument(
        "--retry-backoff", type=float_at_least(0.0), default=0.25,
        metavar="SECONDS",
        help="Base delay before retry n, scaled as BACKOFF*2^(n-1) "
             "(default 0.25).")
    parser.add_argument(
        "--inject-fault", type=fault_spec, default=None, metavar="SPEC",
        help="Testing/CI hook: inject a worker fault, e.g. crash:lbm, "
             "flaky:mcf:2, die:hmmer, hang:lbm:30, sleep::0.2 "
             "(KIND[:BENCHMARK[:PARAM]]; empty benchmark = all jobs).")


def print_cache_line(settings) -> None:
    """Print ``[disk cache: H hits, S new entries under ROOT]`` when the
    sweep run under ``settings`` read or wrote its disk cache."""
    cache = settings.cache
    if cache is not None and (cache.hits or cache.stores):
        print(f"[disk cache: {cache.hits} hits, {cache.stores} new "
              f"entries under {cache.root}]")


def applied(args: argparse.Namespace):
    """Context manager running a block under the parsed sweep flags.

    The settings get a :class:`DiskCache` at ``--cache-dir`` unless
    ``--no-cache``; a flag the command does not declare (``--no-cache``,
    ``--resume``, ``--fail-fast``) takes its default.  See
    :func:`repro.experiments.runner.configured` for what the block
    starts from and what is restored after it.
    """
    return runner.configured(runner.SweepSettings(
        workers=args.jobs,
        cache=(None if getattr(args, "no_cache", False)
               else DiskCache(args.cache_dir)),
        timeout=args.timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        resume=getattr(args, "resume", False),
        fail_fast=getattr(args, "fail_fast", False),
    ), injector=args.inject_fault)
