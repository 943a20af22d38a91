"""Unified backend selection for skeleton simulation.

Four engines implement the exact same valid/stop semantics:

* :class:`~repro.skeleton.sim.SkeletonSim` — the scalar reference,
  one Python object per instance;
* :class:`~repro.skeleton.vectorized.BatchSkeletonSim` — numpy
  bit-matrix state, all instances of a sweep as columns;
* :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim` — SBFI-style
  bit planes, one experiment per bit of a Python integer (the
  fault-campaign engine);
* :class:`~repro.skeleton.codegen.CodegenSkeletonSim` — per-topology
  compiled straight-line Python (one ``compile()`` per structural
  fingerprint, reused across every instance and run).

:func:`select` hides the choice: callers describe *what* to simulate
(a topology, a protocol variant, and one script set per instance) and
get back a handle with a backend-independent interface.  The
differential conformance suite (``tests/skeleton/
test_backend_conformance.py``) is the contract that keeps the
engines interchangeable — any future engine must join that suite
before :func:`select` may return it.

Selection policy: the vectorized engine is used whenever numpy is
importable, the variant advertises the ``skeleton-vectorized``
capability (see :attr:`ProtocolVariant.capabilities`) and the sweep is
wider than one instance; otherwise the scalar engine is fanned out.
``backend="scalar"``/``"vectorized"``/``"bitsim"``/``"codegen"``
forces the choice — the bit-plane and codegen engines are opt-in
(campaigns pick them explicitly; bitsim wins when the batch is many
scripts over one topology, codegen when the same topology is stepped
for many cycles or many runs and the one-time compile amortizes).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import BackendUnavailable
from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .sim import SkeletonResult, SkeletonSim

PatternMap = Mapping[str, Sequence[bool]]
Patterns = Union[None, PatternMap, Sequence[Optional[PatternMap]]]

#: Every name :func:`select` accepts for ``backend=``.
BACKEND_CHOICES = ("auto", "scalar", "vectorized", "bitsim", "codegen")


def _single_clock_reason(graph, engine: str) -> str:
    """Refusal message for an engine without multi-clock support.

    Names the specific capability flags that failed so callers can see
    exactly why the lowering was rejected (the GALS capability
    contract: ``single_clock`` / ``has_bridges`` on the lowered IR).
    """
    lowered = graph if isinstance(graph, LoweredSystem) else lower(graph)
    return (f"graph {lowered.name!r} is multi-clock "
            f"(capability flags: single_clock={lowered.single_clock}, "
            f"has_bridges={lowered.has_bridges}) and the {engine} "
            f"engine requires single_clock=True; use the scalar or "
            f"vectorized engine for GALS workloads")


def _is_single_clock(graph) -> bool:
    lowered = graph if isinstance(graph, LoweredSystem) else lower(graph)
    return lowered.single_clock


def vectorized_supported(graph: SystemGraph,
                         variant: ProtocolVariant) -> Tuple[bool, str]:
    """Can the vectorized engine run this (graph, variant)?

    Returns ``(supported, reason)``; *reason* explains a refusal.
    """
    if "skeleton-vectorized" not in variant.capabilities:
        return False, (f"variant {variant} lacks the "
                       f"'skeleton-vectorized' capability")
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a hard dep
        return False, "numpy is not importable"
    return True, ""


def bitsim_supported(graph: SystemGraph,
                     variant: ProtocolVariant) -> Tuple[bool, str]:
    """Can the bit-plane engine run this (graph, variant)?

    Returns ``(supported, reason)``; *reason* explains a refusal.  The
    engine's state is plain Python integers, but the boundary accessors
    (``accept_history`` et al.) return numpy arrays to stay
    interchangeable with the other backends.
    """
    if "skeleton-bitsim" not in variant.capabilities:
        return False, (f"variant {variant} lacks the "
                       f"'skeleton-bitsim' capability")
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a hard dep
        return False, "numpy is not importable"
    if not _is_single_clock(graph):
        return False, _single_clock_reason(graph, "bitsim")
    return True, ""


def codegen_supported(graph: SystemGraph,
                      variant: ProtocolVariant) -> Tuple[bool, str]:
    """Can the compiled-codegen engine run this (graph, variant)?

    Returns ``(supported, reason)``; *reason* explains a refusal.  The
    engine itself is pure Python (no numpy in the hot path), but the
    unified handle's count accessors are inherited from the scalar
    backend and return numpy arrays like every other backend.
    """
    if "skeleton-codegen" not in variant.capabilities:
        return False, (f"variant {variant} lacks the "
                       f"'skeleton-codegen' capability")
    if not _is_single_clock(graph):
        return False, _single_clock_reason(graph, "codegen")
    return True, ""


def available_backends(graph: SystemGraph,
                       variant: ProtocolVariant) -> Tuple[str, ...]:
    """The backend names able to run this (graph, variant) right now.

    The scalar reference engine supports everything; the rest are
    probed through their ``*_supported`` predicates.  Used by
    :func:`select` to make refusal messages actionable.
    """
    names = ["scalar"]
    for name, probe in (("vectorized", vectorized_supported),
                        ("bitsim", bitsim_supported),
                        ("codegen", codegen_supported)):
        if probe(graph, variant)[0]:
            names.append(name)
    return tuple(names)


def _normalize(patterns: Patterns, batch: int) -> List[Dict]:
    """Broadcast a single mapping / fill None entries, one per column."""
    if patterns is None:
        return [{}] * batch
    if isinstance(patterns, Mapping):
        return [dict(patterns)] * batch
    if len(patterns) != batch:
        raise ValueError(
            f"{len(patterns)} script mappings for batch width {batch}")
    return [dict(m) if m else {} for m in patterns]


def _infer_batch(batch: Optional[int], *pattern_seqs: Patterns) -> int:
    widths = {batch} if batch is not None else set()
    for seq in pattern_seqs:
        if seq is not None and not isinstance(seq, Mapping):
            widths.add(len(seq))
    if len(widths) > 1:
        raise ValueError(f"inconsistent batch widths: {sorted(widths)}")
    return widths.pop() if widths else 1


class _Backend:
    """Backend-independent interface shared by all handles."""

    #: "scalar", "vectorized" or "bitsim"
    name: str

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        """Run every instance to periodicity; one result per column."""
        raise NotImplementedError

    def run_cycles(self, cycles: int) -> None:
        """Step every instance a fixed number of cycles."""
        raise NotImplementedError

    def fire_counts(self):
        """(n_shells, batch) cumulative firing counts."""
        raise NotImplementedError

    def accept_counts(self):
        """(n_sinks, batch) cumulative sink acceptance counts."""
        raise NotImplementedError

    def accept_history(self):
        """(cycles, n_sinks, batch) boolean per-cycle acceptance.

        Cycle-resolved form of :meth:`accept_counts`; the payload-fault
        classification of :func:`repro.inject.campaign.
        skeleton_campaign` reads the golden column from it.
        """
        raise NotImplementedError

    def stop_assertion_counts(self):
        """(batch,) cumulative asserted-stop-wire counts."""
        raise NotImplementedError

    def void_stop_counts(self):
        """(batch,) cumulative stops asserted on **void** tokens.

        The paper-claim locality counter; strict fault campaigns use
        the per-column excess over the golden column as the "detected"
        signal (the refined protocol's stop-shape monitor raises on
        stop-on-void).
        """
        raise NotImplementedError

    def metrics_snapshots(self) -> List[Dict]:
        """One canonical metrics snapshot per instance.

        Snapshots are backend-independent: the conformance suite
        asserts scalar and vectorized snapshots are equal dicts.
        """
        raise NotImplementedError

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        """Schedule a bridge occupancy perturbation for one instance.

        The CDC fault models of GALS campaigns: *delta* of ``+1`` is a
        bridge overflow (phantom write), ``-1`` an underflow (lost
        token); applied after the normal update on each cycle in
        ``[cycle, cycle + duration)``, clamped to ``[0, depth]``.  Only
        the scalar and vectorized engines model bridges.
        """
        raise NotImplementedError(
            f"{self.name} backend does not model bridges")


class ScalarBackend(_Backend):
    """One :class:`SkeletonSim` per instance, same interface."""

    name = "scalar"

    def _sim_class(self):
        """The per-instance simulator class (codegen overrides this)."""
        return SkeletonSim

    def __init__(self, graph: SystemGraph, variant: ProtocolVariant,
                 source_patterns: List[Dict], sink_patterns: List[Dict],
                 fixpoint: str, detect_ambiguity: bool,
                 telemetry=None):
        self.graph = graph
        self.batch = len(sink_patterns)
        sim_class = self._sim_class()
        self.sims = [
            sim_class(graph, variant=variant, fixpoint=fixpoint,
                      source_patterns=source_patterns[i],
                      sink_patterns=sink_patterns[i],
                      detect_ambiguity=detect_ambiguity,
                      telemetry=telemetry)
            for i in range(self.batch)
        ]
        first = self.sims[0]
        self.shell_names = first.shell_names
        self.source_names = first.source_names
        self.sink_names = first.sink_names
        # The scalar engine silently ignores unknown script names;
        # the vectorized engine rejects them.  The unified API must
        # behave the same regardless of the engine picked.
        for mappings, known in ((sink_patterns, set(self.sink_names)),
                                (source_patterns,
                                 set(self.source_names))):
            for mapping in mappings:
                for name in mapping:
                    if name not in known:
                        raise ValueError(
                            f"unknown script target {name!r}")

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        return [sim.run(max_cycles=max_cycles) for sim in self.sims]

    def run_cycles(self, cycles: int) -> None:
        for sim in self.sims:
            for _ in range(cycles):
                sim.step()

    def fire_counts(self):
        import numpy as np

        counts = np.zeros((len(self.shell_names), self.batch),
                          dtype=np.int64)
        for i, sim in enumerate(self.sims):
            for fires in sim.fire_history:
                for j, fired in enumerate(fires):
                    counts[j, i] += fired
        return counts

    def accept_counts(self):
        import numpy as np

        counts = np.zeros((len(self.sink_names), self.batch),
                          dtype=np.int64)
        for i, sim in enumerate(self.sims):
            for accepts in sim.accept_history:
                for j, accepted in enumerate(accepts):
                    counts[j, i] += accepted
        return counts

    def accept_history(self):
        import numpy as np

        cycles = len(self.sims[0].accept_history) if self.sims else 0
        history = np.zeros((cycles, len(self.sink_names), self.batch),
                           dtype=bool)
        for i, sim in enumerate(self.sims):
            for cycle, accepts in enumerate(sim.accept_history):
                for j, accepted in enumerate(accepts):
                    history[cycle, j, i] = accepted
        return history

    def stop_assertion_counts(self):
        import numpy as np

        return np.array([sim.stop_assertions_total for sim in self.sims],
                        dtype=np.int64)

    def void_stop_counts(self):
        import numpy as np

        return np.array([sim.stops_on_voids_total for sim in self.sims],
                        dtype=np.int64)

    def metrics_snapshots(self) -> List[Dict]:
        return [sim.metrics_snapshot() for sim in self.sims]

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        self.sims[instance].poke_bridge(bridge, cycle, delta,
                                        duration=duration)


class CodegenBackend(ScalarBackend):
    """One compiled :class:`CodegenSkeletonSim` per instance.

    Everything except simulator construction and the batched
    ``run_cycles`` fast path is inherited from the scalar handle — the
    codegen simulator subclasses the scalar one, so every accessor
    reads the same state layout.  All instances of a batch share one
    compiled plan (they share topology, variant and options).
    """

    name = "codegen"

    def _sim_class(self):
        from .codegen import CodegenSkeletonSim

        return CodegenSkeletonSim

    def run_cycles(self, cycles: int) -> None:
        for sim in self.sims:
            sim.run_cycles(cycles)


class VectorizedBackend(_Backend):
    """A :class:`BatchSkeletonSim` behind the shared interface."""

    name = "vectorized"

    def __init__(self, graph: SystemGraph, variant: ProtocolVariant,
                 source_patterns: List[Dict], sink_patterns: List[Dict],
                 fixpoint: str, detect_ambiguity: bool,
                 telemetry=None):
        from .vectorized import BatchSkeletonSim

        self.graph = graph
        self.batch = len(sink_patterns)
        self.sim = BatchSkeletonSim(
            graph, sink_patterns, source_patterns=source_patterns,
            variant=variant, fixpoint=fixpoint,
            detect_ambiguity=detect_ambiguity, telemetry=telemetry)
        self.shell_names = self.sim.shell_names
        self.source_names = self.sim.source_names
        self.sink_names = self.sim.sink_names

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        return self.sim.run_to_period(max_cycles=max_cycles)

    def run_cycles(self, cycles: int) -> None:
        self.sim.run(cycles)

    def fire_counts(self):
        return self.sim.shell_fired.copy()

    def accept_counts(self):
        return self.sim.sink_accepted.copy()

    def accept_history(self):
        return self.sim.accept_history()

    def stop_assertion_counts(self):
        return self.sim.stop_assertions_total.copy()

    def void_stop_counts(self):
        return self.sim.stops_on_voids_total.copy()

    def metrics_snapshots(self) -> List[Dict]:
        return [self.sim.metrics_snapshot(i) for i in range(self.batch)]

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        self.sim.poke_bridge(instance, bridge, cycle, delta,
                             duration=duration)


class BitplaneBackend(_Backend):
    """A :class:`BitplaneSkeletonSim` behind the shared interface.

    State lives in Python integers (bit *p* = instance *p*); the
    accessors below unpack the vertical counters into the same numpy
    shapes the other backends return, so callers never see the plane
    layout.
    """

    name = "bitsim"

    def __init__(self, graph: SystemGraph, variant: ProtocolVariant,
                 source_patterns: List[Dict], sink_patterns: List[Dict],
                 fixpoint: str, detect_ambiguity: bool,
                 telemetry=None):
        from .bitsim import BitplaneSkeletonSim

        self.graph = graph
        self.batch = len(sink_patterns)
        self.sim = BitplaneSkeletonSim(
            graph, sink_patterns, source_patterns=source_patterns,
            variant=variant, fixpoint=fixpoint,
            detect_ambiguity=detect_ambiguity, telemetry=telemetry)
        self.shell_names = self.sim.shell_names
        self.source_names = self.sim.source_names
        self.sink_names = self.sim.sink_names

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        return self.sim.run_to_period(max_cycles=max_cycles)

    def run_cycles(self, cycles: int) -> None:
        self.sim.run(cycles)

    def fire_counts(self):
        import numpy as np

        return np.array(
            [ctr.values(self.batch) for ctr in self.sim.shell_fired],
            dtype=np.int64).reshape(len(self.shell_names), self.batch)

    def accept_counts(self):
        import numpy as np

        return np.array(
            [ctr.values(self.batch) for ctr in self.sim.sink_accepted],
            dtype=np.int64).reshape(len(self.sink_names), self.batch)

    def accept_history(self):
        return self.sim.accept_history()

    def stop_assertion_counts(self):
        import numpy as np

        return np.array(self.sim.stop_assertions.values(self.batch),
                        dtype=np.int64)

    def void_stop_counts(self):
        import numpy as np

        return np.array(self.sim.stops_on_voids.values(self.batch),
                        dtype=np.int64)

    def metrics_snapshots(self) -> List[Dict]:
        return [self.sim.metrics_snapshot(i) for i in range(self.batch)]


def select(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    batch: Optional[int] = None,
    *,
    source_patterns: Patterns = None,
    sink_patterns: Patterns = None,
    fixpoint: str = "least",
    detect_ambiguity: bool = True,
    backend: str = "auto",
    telemetry=None,
) -> _Backend:
    """Pick the fastest exact engine for a skeleton workload.

    Parameters
    ----------
    graph, variant:
        What to simulate.
    batch:
        Number of instances; inferred from the pattern sequences when
        omitted (single mappings broadcast to every instance).
    source_patterns, sink_patterns:
        Either one mapping (applied to every instance) or one mapping
        per instance — the sweep dimensions.
    backend:
        ``"auto"`` (default policy), ``"scalar"``, ``"vectorized"``,
        ``"bitsim"`` (opt-in bit-plane engine; never auto-picked) or
        ``"codegen"`` (opt-in compiled engine; never auto-picked —
        the compile cost only pays off over many cycles or runs, a
        judgement left to the caller).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  Metric
        accumulation is per-instance on either engine; event streams
        are per-instance (scalar) or aggregate per cycle (vectorized).

    Returns a handle with ``run()`` / ``run_cycles()`` / count accessors
    that behave identically regardless of the engine chosen.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}; available backends for "
            f"this graph/variant: "
            + ", ".join(available_backends(graph, variant))
            + " (or 'auto')")
    width = _infer_batch(batch, source_patterns, sink_patterns)
    if width < 1:
        raise ValueError("need at least one instance")
    sources = _normalize(source_patterns, width)
    sinks = _normalize(sink_patterns, width)

    def _unavailable(name: str, reason: str) -> BackendUnavailable:
        return BackendUnavailable(
            f"{name} backend unavailable: {reason}; available "
            f"backends: "
            + ", ".join(available_backends(graph, variant)))

    if backend == "bitsim":
        supported, reason = bitsim_supported(graph, variant)
        if not supported:
            raise _unavailable("bitsim", reason)
        cls = BitplaneBackend
    elif backend == "codegen":
        supported, reason = codegen_supported(graph, variant)
        if not supported:
            raise _unavailable("codegen", reason)
        cls = CodegenBackend
    else:
        supported, reason = vectorized_supported(graph, variant)
        if backend == "vectorized" and not supported:
            raise _unavailable("vectorized", reason)
        use_vectorized = (backend == "vectorized"
                          or (backend == "auto" and supported
                              and width > 1))
        cls = VectorizedBackend if use_vectorized else ScalarBackend
    return cls(graph, variant, sources, sinks, fixpoint, detect_ambiguity,
               telemetry=telemetry)
