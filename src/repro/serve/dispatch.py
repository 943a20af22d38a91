"""Manifest execution: the one code path behind ``inject``, ``deadlock``
and ``series``.

:func:`execute_manifest` runs a validated :class:`Manifest` — parse the
topology, call the engine, render the report, build the ledger record.
The offline CLI (``repro-lid inject``/``deadlock``/``series`` build a
manifest from their flags and call it in-process) and the campaign
service (which ships it into a persistent worker pool — it is a
**module-level, picklable** function for that reason) both go through
it, so served response bodies are byte-identical to offline output and
served ledger records share the offline ``run_id`` by construction
(run ids are content-addressed over the payload only; the
non-deterministic ``meta`` block never enters them).

Everything returned travels back to the caller as a
:class:`ServeOutcome`: the response body bytes, the exit code, the
ready-to-append ledger record, and the golden-run cache counters.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Union

from .manifest import Manifest

#: Schema tag for response-cache entries (bump on any layout change).
SERVE_CACHE_SCHEMA = "repro-lid-serve/v1"

_CONTENT_TYPES = {
    "json": "application/json",
    "table": "text/plain; charset=utf-8",
    "detail": "text/plain; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
}


class DispatchError(Exception):
    """A manifest failed during execution for a client-side reason
    (bad topology parameters, unsatisfiable fault spec, a backend that
    cannot run the design); maps to HTTP 400 and to a one-line CLI
    diagnostic.  Carries only its message so it pickles across the
    worker boundary intact."""


@dataclasses.dataclass
class ServeOutcome:
    """Everything the parent needs to answer, cache and ledger a run."""

    body: bytes
    content_type: str
    exit_code: int
    span: str
    run_id: Optional[str] = None
    record: Optional[Dict[str, Any]] = None
    wall_seconds: float = 0.0
    cache: Optional[Dict[str, int]] = None

    def cache_payload(self) -> Dict[str, Any]:
        """The slice of the outcome worth replaying from the response
        cache (the deterministic part; wall time and cache counters
        describe *this* execution, not the content)."""
        return {
            "schema": SERVE_CACHE_SCHEMA,
            "body": self.body,
            "content_type": self.content_type,
            "exit_code": self.exit_code,
            "span": self.span,
            "run_id": self.run_id,
        }

    @classmethod
    def from_cache_payload(cls, payload: Dict[str, Any]) -> "ServeOutcome":
        return cls(body=payload["body"],
                   content_type=payload["content_type"],
                   exit_code=payload["exit_code"],
                   span=payload["span"],
                   run_id=payload.get("run_id"))


def manifest_fingerprint(manifest: Manifest) -> Optional[str]:
    """The design fingerprint the CLI would record (``None`` for
    series work, which has no topology).  Raises :class:`DispatchError`
    for topology *parameter* errors — family names were already
    validated by the manifest."""
    if manifest.kind == "series":
        return None
    from ..exec import graph_fingerprint

    return graph_fingerprint(_parse(manifest))


def _parse(manifest: Manifest):
    from ..graph.specs import parse_topology

    try:
        return parse_topology(manifest.topology, seed=manifest.seed)
    except SystemExit as exc:  # parse_topology diagnoses via SystemExit
        raise DispatchError(str(exc)) from None
    except ValueError as exc:
        raise DispatchError(
            f"bad topology {manifest.topology!r}: {exc}") from None


def execute_manifest(
    manifest: Union[Manifest, Dict[str, Any]],
    *,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    progress: Optional[Any] = None,
    telemetry: Optional[Any] = None,
    trace: Optional[Any] = None,
) -> ServeOutcome:
    """Run one manifest to completion and package the result.

    *use_cache*/*cache_dir* control the golden-run
    :class:`~repro.exec.ResultCache` (the CLI's ``--no-cache`` /
    ``--cache-dir``).  The remaining hooks are in-process only — none
    of them crosses a process boundary, so the pool path passes none:

    * *progress* — a :class:`repro.obs.ProgressReporter` (campaigns);
    * *telemetry* — a :class:`repro.obs.Telemetry` bundle handed to
      the engine; its metrics snapshot enters the ledger record (the
      CLI's ``--metrics-out``/``--trace-out``);
    * *trace* — a :class:`repro.exec.TraceCollection` collecting the
      per-worker lanes of a campaign, stamped with the run's span.

    Capability refusals and misconfigured campaigns raise
    :class:`DispatchError`.
    """
    from ..errors import BackendUnavailable, InjectionError

    if isinstance(manifest, dict):
        manifest = Manifest.from_dict(manifest)
    try:
        if manifest.kind == "campaign":
            return _execute_campaign(
                manifest, jobs=jobs, use_cache=use_cache,
                cache_dir=cache_dir, progress=progress,
                telemetry=telemetry, trace=trace)
        if manifest.kind == "deadlock":
            return _execute_deadlock(
                manifest, jobs=jobs, use_cache=use_cache,
                cache_dir=cache_dir, telemetry=telemetry)
        return _execute_series(manifest)
    except (BackendUnavailable, InjectionError) as exc:
        raise DispatchError(str(exc)) from None


def _outcome(manifest: Manifest, text: str, fmt: str, *,
             exit_code: int, wall: float, cache: Optional[Any],
             telemetry: Optional[Any] = None,
             **record_fields: Any) -> ServeOutcome:
    """Build the ledger record for *manifest* and wrap it with *text*."""
    from ..obs import make_record

    metrics = None
    if telemetry is not None and telemetry.metrics is not None:
        metrics = telemetry.metrics.snapshot()
    record = make_record(manifest.record_kind, params=manifest.params(),
                         metrics=metrics, **record_fields)
    return ServeOutcome(
        body=text.encode(),
        content_type=_CONTENT_TYPES[fmt],
        exit_code=exit_code,
        span=record["payload"]["span"],
        run_id=record["run_id"],
        record=record,
        wall_seconds=wall,
        cache=cache.stats.to_dict() if cache is not None else None)


def _execute_campaign(manifest: Manifest, *, jobs: int, use_cache: bool,
                      cache_dir: Optional[str], progress: Optional[Any],
                      telemetry: Optional[Any],
                      trace: Optional[Any]) -> ServeOutcome:
    from time import perf_counter

    from ..exec import GraphRef, ResultCache, graph_fingerprint
    from ..inject import run_campaign, skeleton_campaign
    from ..lid.variant import ProtocolVariant

    graph = _parse(manifest)
    variant = ProtocolVariant(manifest.variant)
    cache = ResultCache.disk(cache_dir) if use_cache else None
    fingerprint = graph_fingerprint(graph)
    if progress is not None and cache is not None:
        progress.cache = cache.stats
    if trace is not None:
        trace.run_id = manifest.span(fingerprint)

    common = dict(variant=variant, classes=manifest.faults,
                  cycles=manifest.cycles, window=manifest.window,
                  exhaustive=manifest.exhaustive,
                  samples=manifest.samples, seed=manifest.seed,
                  telemetry=telemetry, jobs=jobs, cache=cache,
                  progress=progress, trace=trace)
    started = perf_counter()
    if manifest.engine == "skeleton":
        report = skeleton_campaign(graph, backend=manifest.backend,
                                   strict=manifest.strict, **common)
    else:
        report = run_campaign(
            graph, strict=manifest.strict,
            graph_ref=GraphRef.from_spec(manifest.topology,
                                         seed=manifest.seed),
            **common)
    wall = perf_counter() - started

    if manifest.format == "json":
        text = report.to_json()
    else:
        text = report.format_table() + "\n"
    execution = report.execution or {}
    meta: Dict[str, Any] = {"wall_seconds": round(wall, 6), "jobs": jobs}
    if execution.get("cache") is not None:
        meta["cache"] = execution["cache"]
    return _outcome(manifest, text, manifest.format, exit_code=0,
                    wall=wall, cache=cache, telemetry=telemetry,
                    topology=manifest.topology, fingerprint=fingerprint,
                    variant=str(variant), verdict=dict(report.counts()),
                    meta=meta)


def _execute_deadlock(manifest: Manifest, *, jobs: int, use_cache: bool,
                      cache_dir: Optional[str],
                      telemetry: Optional[Any]) -> ServeOutcome:
    from time import perf_counter

    from ..exec import GraphRef, ResultCache, graph_fingerprint
    from ..lid.variant import ProtocolVariant
    from ..skeleton import check_deadlock

    graph = _parse(manifest)
    variant = ProtocolVariant(manifest.variant)
    cache = ResultCache.disk(cache_dir) if use_cache else None
    started = perf_counter()
    verdict = check_deadlock(graph, variant=variant,
                             max_cycles=manifest.max_cycles,
                             jobs=jobs,
                             graph_ref=GraphRef.from_spec(
                                 manifest.topology, seed=manifest.seed),
                             telemetry=telemetry,
                             cache=cache,
                             backend=manifest.deadlock_backend)
    wall = perf_counter() - started
    exit_code = 3 if verdict.inconclusive else (0 if verdict.live else 1)
    return _outcome(manifest, verdict.detail + "\n", "detail",
                    exit_code=exit_code, wall=wall, cache=cache,
                    telemetry=telemetry, topology=manifest.topology,
                    fingerprint=graph_fingerprint(graph),
                    variant=str(variant),
                    verdict={
                        "deadlocked": verdict.deadlocked,
                        "potential": verdict.potential,
                        "inconclusive": verdict.inconclusive,
                        "transient": verdict.transient,
                        "period": verdict.period,
                    },
                    meta={"wall_seconds": round(wall, 6), "jobs": jobs})


def _execute_series(manifest: Manifest) -> ServeOutcome:
    from time import perf_counter

    from ..analysis.sweep import SERIES_GENERATORS

    started = perf_counter()
    text = SERIES_GENERATORS[manifest.which]().to_csv()
    wall = perf_counter() - started
    return _outcome(manifest, text, "csv", exit_code=0, wall=wall,
                    cache=None,
                    verdict={"lines": len(text.splitlines())},
                    meta={"wall_seconds": round(wall, 6)})
