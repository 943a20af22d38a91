"""Campaign service: HTTP/JSON front end over the campaign engines.

``repro.serve`` turns the toolkit into a long-lived, cache-first
execution service (``repro-lid serve``): clients POST campaign
manifests; a scheduler funnels each request through the shared
content-addressed :class:`~repro.exec.ResultCache`, collapses
concurrent identical requests onto a single golden run
(:class:`AsyncSingleFlight`), applies token-bucket rate limiting and
bounded-queue backpressure, and shards cold work across a persistent
worker pool.  Workers run :func:`execute_manifest` — the same function
the offline ``repro-lid inject``/``deadlock``/``series`` commands call
— so served responses are byte-identical to the offline CLI
(`docs/serving.md` states the exact contract) and served runs land in
the same run ledger with the same content-addressed ids.

The asyncio-backed names (server, scheduler, coalescer) resolve on
first access, so the CLI's manifest path imports neither ``asyncio``
nor the HTTP layer.

Layering: ``repro.serve`` sits above the engines and ``repro.exec`` /
``repro.obs`` and must never import ``repro.cli`` (enforced by
``tools/check_layering.py``); the CLI imports *this* package.
"""

from importlib import import_module

from .dispatch import (
    DispatchError,
    ServeOutcome,
    execute_manifest,
    manifest_fingerprint,
)
from .manifest import Manifest, ManifestError
from .ratelimit import RateLimiter, TokenBucket

#: Public name -> submodule, for the names resolved lazily.
_LAZY = {
    "AsyncSingleFlight": "coalesce",
    "CampaignScheduler": "scheduler",
    "CampaignServer": "app",
    "DEFAULT_QUEUE_DEPTH": "scheduler",
    "ServeRejected": "scheduler",
    "ServeStats": "scheduler",
    "ServerHandle": "app",
    "run_server": "app",
    "start_in_thread": "app",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AsyncSingleFlight",
    "CampaignScheduler",
    "CampaignServer",
    "DEFAULT_QUEUE_DEPTH",
    "DispatchError",
    "Manifest",
    "ManifestError",
    "RateLimiter",
    "ServeOutcome",
    "ServeRejected",
    "ServeStats",
    "ServerHandle",
    "TokenBucket",
    "execute_manifest",
    "manifest_fingerprint",
    "run_server",
    "start_in_thread",
]
