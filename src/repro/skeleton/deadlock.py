"""Deadlock checking via skeleton simulation.

The paper's liveness strategy: liveness is topology dependent, so
instead of verifying the protocol globally, *"simulate the system up to
the transient's extinction; either the deadlock will show, or will be
forever avoided"* — on the cheap valid/stop skeleton.

Two failure modes are distinguished:

* **hard deadlock** — under the optimistic (least-fixpoint) resolution
  of the stop network, the periodic regime contains zero shell firings:
  no block will ever fire again;
* **potential deadlock** — the stop equations admit more than one
  fixpoint in some reachable cycle (only possible when a combinational
  stop cycle exists, i.e. half relay stations — or direct shell-shell
  wires — on loops), or the pessimistic (greatest-fixpoint) resolution
  stalls even though the optimistic one runs.  Real gates could settle
  either way, so the design is hazardous: this is the paper's
  *"potential deadlocks iff half relay stations are present in loops"*.

Because simulation runs until state periodicity, the verdict is exact
for the given source/sink scripts — the paper's "forever avoided"
guarantee.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .sim import SkeletonResult, SkeletonSim


@dataclasses.dataclass
class DeadlockVerdict:
    """Outcome of :func:`check_deadlock`.

    ``inconclusive`` marks a run whose cycle budget expired before the
    skeleton state became periodic: nothing can be said about liveness
    either way (``optimistic`` is then ``None`` and ``transient`` /
    ``period`` are ``-1`` / ``0``).  Raise ``max_cycles`` to resolve it.
    """

    deadlocked: bool
    potential: bool
    transient: int
    period: int
    detail: str
    optimistic: Optional[SkeletonResult] = None
    pessimistic: Optional[SkeletonResult] = None
    inconclusive: bool = False

    @property
    def live(self) -> bool:
        """Fully live: neither hard nor potential deadlock was proven.

        An inconclusive verdict is *not* live: the check never reached
        the periodic regime that would justify the paper's "forever
        avoided" claim.
        """
        return (not self.deadlocked and not self.potential
                and not self.inconclusive)


def _sim_class(backend: str):
    """Map a deadlock ``backend`` name to its simulator class.

    Only the per-instance engines make sense here (the probes are
    single simulators run to periodicity); the compiled engine is
    opt-in like everywhere else.
    """
    if backend == "codegen":
        from .codegen import CodegenSkeletonSim

        return CodegenSkeletonSim
    if backend != "scalar":
        raise ValueError(
            f"unknown deadlock backend {backend!r} "
            "(expected 'scalar' or 'codegen')")
    return SkeletonSim


def _probe(args) -> tuple:
    """Run one fixpoint probe inside a worker process.

    Returns the picklable pair ``("ok", SkeletonResult)`` or
    ``("timeout", None)`` — a raised :class:`PeriodicityTimeout` means
    different things for the two probes, so the *caller* owns that
    interpretation, not the worker.
    """
    graph_ref, variant, fixpoint, max_cycles, sources, sinks, backend \
        = args
    from ..errors import PeriodicityTimeout

    sim = _sim_class(backend)(
        graph_ref.materialize(),
        variant=variant,
        fixpoint=fixpoint,
        source_patterns=sources,
        sink_patterns=sinks,
    )
    try:
        return ("ok", sim.run(max_cycles=max_cycles))
    except PeriodicityTimeout:
        return ("timeout", None)


def _merge_probe_metrics(telemetry, probe: str, sim: SkeletonSim) -> None:
    """Fold one probe's metrics snapshot into the caller's registry.

    Each probe gets its own ``deadlock/<probe>/`` namespace so the
    optimistic and pessimistic passes never double-count each other's
    skeleton counters.
    """
    if telemetry is None or telemetry.metrics is None:
        return
    snapshot = sim.metrics_snapshot()
    telemetry.metrics.merge_snapshot(
        {f"deadlock/{probe}/{name}": record
         for name, record in snapshot.items()})


def _pattern_key(patterns) -> tuple:
    return tuple(sorted(
        (name, tuple(bool(b) for b in bits))
        for name, bits in (patterns or {}).items()
    ))


def check_deadlock(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 10_000,
    source_patterns: Optional[Dict[str, Sequence[bool]]] = None,
    sink_patterns: Optional[Dict[str, Sequence[bool]]] = None,
    *,
    jobs: int = 1,
    graph_ref=None,
    cache=None,
    telemetry=None,
    backend: str = "scalar",
) -> DeadlockVerdict:
    """Simulate the skeleton until periodicity and classify liveness.

    When no periodic regime appears within *max_cycles* the verdict is
    ``inconclusive`` (not a raised :class:`TimeoutError`): callers get a
    one-line diagnostic in ``detail`` and can retry with a larger
    budget.

    *telemetry* (a :class:`repro.obs.Telemetry`) instruments the
    probes; because worker processes cannot write into the caller's
    registries, a telemetry-carrying check always probes serially —
    the verdict is identical either way, only the wall clock differs.

    ``jobs > 1`` runs the optimistic and pessimistic probes in separate
    worker processes when the stop network may be ambiguous (the only
    case that needs both); the verdict is identical to the serial one
    for any ``jobs`` value.  The graph must be rebuildable inside the
    workers — pass *graph_ref* (a :class:`repro.exec.GraphRef`) for
    graphs holding unpicklable pearls/streams; without one the check
    silently falls back to serial probing, which returns the same
    verdict.  *cache* (a :class:`repro.exec.ResultCache`) memoises the
    whole verdict keyed on graph fingerprint, variant, cycle budget and
    script patterns — *backend* is deliberately absent from the key:
    the engines are bit-exact, so a verdict computed by one serves all.

    *backend* picks the probe engine: ``"scalar"`` (default) or
    ``"codegen"`` (compiled per-topology cycle functions — same
    verdict, less wall clock on long transients).
    """
    from ..errors import BackendUnavailable, ExecutionError, PeriodicityTimeout
    from ..exec import GraphRef, graph_fingerprint, map_deterministic

    sim_class = _sim_class(backend)
    if backend == "codegen":
        # Fail fast, before any probe (possibly a worker process) trips
        # over the compiled engine's single-clock constructor guard.
        from .backend import _is_single_clock, _single_clock_reason

        if not _is_single_clock(graph):
            raise BackendUnavailable(
                _single_clock_reason(graph, "codegen"))

    key = None
    if cache is not None:
        key = cache.key(
            "deadlock", graph_fingerprint(graph), variant, max_cycles,
            _pattern_key(source_patterns), _pattern_key(sink_patterns))
        hit = cache.get(key)
        if isinstance(hit, DeadlockVerdict):
            return hit

    def _done(verdict: DeadlockVerdict) -> DeadlockVerdict:
        if cache is not None:
            cache.put(key, verdict)
        return verdict

    optimistic_sim = sim_class(
        graph,
        variant=variant,
        fixpoint="least",
        source_patterns=source_patterns,
        sink_patterns=sink_patterns,
        telemetry=telemetry,
    )
    # Ambiguity potential is a static topology property, so whether the
    # pessimistic probe will be needed is known before running anything
    # — that is what makes speculative parallel probing exact.
    needs_pessimistic = optimistic_sim._may_be_ambiguous
    opt_status = pess_status = None
    optimistic = pessimistic = None

    # Telemetry registries live in this process; speculative worker
    # probes could not report into them, so instrumented checks always
    # probe serially (the verdict is jobs-invariant anyway).
    parallel_ok = jobs > 1 and needs_pessimistic and telemetry is None
    ref = graph_ref
    if parallel_ok and ref is None:
        try:
            ref = GraphRef.from_graph(graph)
        except ExecutionError:
            ref = None  # unpicklable graph: probe serially below

    if parallel_ok and ref is not None:
        probes = [
            (ref, variant, mode, max_cycles,
             source_patterns, sink_patterns, backend)
            for mode in ("least", "greatest")
        ]
        (opt_status, optimistic), (pess_status, pessimistic) = (
            map_deterministic(_probe, probes, jobs=2))
    else:
        try:
            optimistic = optimistic_sim.run(max_cycles=max_cycles)
            opt_status = "ok"
        except PeriodicityTimeout:
            opt_status = "timeout"
        _merge_probe_metrics(telemetry, "optimistic", optimistic_sim)

    if opt_status == "timeout":
        return _done(DeadlockVerdict(
            deadlocked=False,
            potential=False,
            transient=-1,
            period=0,
            detail=(
                f"inconclusive: no periodic regime within {max_cycles} "
                f"cycles — raise --max-cycles to let the transient "
                f"extinguish"
            ),
            inconclusive=True,
        ))

    potential = optimistic.potential
    detail = ""
    if optimistic.deadlocked:
        detail = (
            f"hard deadlock: periodic window of {optimistic.period} cycles "
            f"after cycle {optimistic.transient} contains no shell firing"
        )
        # The serial path never probes past a hard deadlock; discard a
        # speculative pessimistic result to keep verdicts identical.
        pessimistic = None
        pess_status = None
    if not optimistic.deadlocked and potential:
        detail = (
            f"stop network ambiguous from cycle "
            f"{optimistic.potential_deadlock_cycle}: least and greatest "
            f"fixpoints disagree (combinational stop cycle is active)"
        )
    if needs_pessimistic and not optimistic.deadlocked:
        if pess_status is None:
            pessimistic_sim = sim_class(
                graph,
                variant=variant,
                fixpoint="greatest",
                source_patterns=source_patterns,
                sink_patterns=sink_patterns,
                telemetry=telemetry,
            )
            try:
                pessimistic = pessimistic_sim.run(max_cycles=max_cycles)
                pess_status = "ok"
            except PeriodicityTimeout:
                pess_status = "timeout"
            _merge_probe_metrics(telemetry, "pessimistic",
                                 pessimistic_sim)
        if pess_status == "timeout":
            return _done(DeadlockVerdict(
                deadlocked=False,
                potential=potential,
                transient=optimistic.transient,
                period=optimistic.period,
                detail=(
                    f"inconclusive: pessimistic stop resolution found no "
                    f"periodic regime within {max_cycles} cycles"
                ),
                optimistic=optimistic,
                inconclusive=True,
            ))
        if pessimistic.deadlocked and not potential:
            potential = True
            detail = (
                "pessimistic stop resolution deadlocks although the "
                "optimistic one runs: hazardous combinational stop cycle"
            )

    return _done(DeadlockVerdict(
        deadlocked=optimistic.deadlocked,
        potential=potential,
        transient=optimistic.transient,
        period=optimistic.period,
        detail=detail or "live: periodic regime fires every shell",
        optimistic=optimistic,
        pessimistic=pessimistic,
    ))


def is_deadlock_free_class(graph: SystemGraph) -> Optional[str]:
    """Static sufficient conditions for deadlock freedom (paper's list).

    Returns the name of the first matching rule, or ``None`` when no
    static rule applies (the system then needs the skeleton check):

    * ``"feed-forward"`` — the block graph is acyclic (possibly with
      reconvergence);
    * ``"all-full-relay-stations"`` — every relay station is full.
    """
    if graph.is_feedforward():
        return "feed-forward"
    if graph.relay_count() == graph.relay_count("full"):
        return "all-full-relay-stations"
    from .. import graph as _graph_pkg  # local import to avoid a cycle

    if not _graph_pkg.half_relays_on_loops(graph):
        return "no-half-relay-stations-on-loops"
    return None
