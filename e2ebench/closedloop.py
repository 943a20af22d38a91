"""Closed-loop runner shared by the campaign and design-check workloads.

One client runs one op at a time.  Between ops it runs the reference
loop (:mod:`refloop`), so every op carries its own host-speed reading:
``latency_*_ref`` divides the op's time by the mean of the loop times
measured just before and just after it.  Output checks run after the
op's timer has stopped, so they never count as op time.

A workload object provides:

* ``cpus`` — CPUs one op keeps busy; with 2 the reference loop runs
  on both at once (:class:`refloop.PairedReference`);
* ``unit`` — ops per measurement unit (a design-check unit is one pass
  over the corpus, so every design is measured equally often and the
  latency percentiles are taken over whole passes; the campaign
  workloads use 1);
* ``warm()`` — untimed ops that fill the in-process plan and memo
  caches before the window (the steady state the window measures);
* ``op(index)`` — one timed op; returns its outputs;
* ``verify(index, outputs)`` — the op's output check, run after its
  timer stopped; returns ``(ok, work)`` where *work* is the count
  of experiments or designs the op completed;
* ``check()`` — post-window output checks; returns a list of failures;
* ``install()`` — wrap the layers the op passes through (traced runs);
* ``layer_metrics(layers)`` — add extra per-layer readings to a traced
  run's *layers* (census, speed-up, ratios); returns a list of failures.
"""

import statistics
import time
import traceback

import refloop


def percentile(values, pct):
    """Inclusive-method percentile of *values* (``pct`` in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_window(workload, seconds, tracer=None,
               reference=refloop.reference_ms):
    """Run whole units of ops for *seconds*; return the op samples.

    *reference* times one reference-loop reading in ms; it runs before
    the first op and after every op.

    Each sample is ``(latency_s, ref_ms, ok, work, traced)``, *ref_ms*
    the mean of the readings around the op.  With a *tracer*, odd units
    are traced and even units are not, so the untraced units give the
    baseline for ``trace.overhead``.
    """
    samples = []
    index = 0
    deadline = time.perf_counter() + seconds
    before = reference()
    while time.perf_counter() < deadline or index % workload.unit:
        unit_index = index // workload.unit
        traced = tracer is not None and unit_index % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
            tracer.op = index
        started = time.perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    outputs = workload.op(index)
            else:
                outputs = workload.op(index)
        except Exception:  # a failed op is counted, and the run goes on
            traceback.print_exc()
            outputs = None
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.enabled = False
        after = reference()
        ok, work = (False, 0) if outputs is None \
            else workload.verify(index, outputs)
        samples.append((latency, (before + after) / 2.0, ok, work, traced))
        before = after
        index += 1
    return samples


def p50_p90(samples, value, unit):
    """p50 and p90 over the units of ``value(sample)`` summed per unit.

    A design-check unit is one pass over its corpus, whose designs span
    two orders of magnitude in cost: a unit's total weighs every design
    by its cost, so a slowdown on any design moves both percentiles.
    """
    totals = {}
    for index, sample in enumerate(samples):
        totals[index // unit] = totals.get(index // unit, 0.0) + value(sample)
    values = list(totals.values())
    return statistics.median(values), percentile(values, 90)


def end_to_end(samples, limit_s, unit):
    """End-to-end metric values of an untraced window.

    ``goodput_per_s`` counts ops that passed their checks within the
    workload's latency limit, per second of op time (the single client
    is busy only while an op runs; reference-loop and check time are
    benchmark overhead and excluded).
    """
    p50_ms, p90_ms = p50_p90(samples, lambda s: s[0] * 1000.0, unit)
    p50_ref, p90_ref = p50_p90(samples, lambda s: s[0] * 1000.0 / s[1],
                               unit)
    good = sum(1 for s in samples if s[2] and s[0] <= limit_s)
    return {
        "goodput_per_s": good / sum(s[0] for s in samples),
        "latency_p50_ms": p50_ms,
        "latency_p90_ms": p90_ms,
        "latency_p50_ref": p50_ref,
        "latency_p90_ref": p90_ref,
        "success_rate": sum(1 for s in samples if s[2]) / len(samples),
    }


def traced_layers(samples, tracer, unit):
    """Per-layer medians over the traced units of a traced window."""
    per_op = tracer.self_times()
    # Counters share each unit's slot under a "#" prefix: summed per unit
    # like the times, reported without the "_s" suffix.
    per_unit = {}
    for op, layers in per_op.items():
        slot = per_unit.setdefault(op // unit, {})
        for name, seconds in layers.items():
            slot[name] = slot.get(name, 0.0) + seconds
        for name, value in tracer.counts.get(op, {}).items():
            slot["#" + name] = slot.get("#" + name, 0.0) + value
    names = sorted({name for slot in per_unit.values() for name in slot})
    metrics = {}
    for name in names:
        value = statistics.median(slot.get(name, 0.0)
                                  for slot in per_unit.values())
        if name.startswith("#"):
            metrics[name[1:]] = value
        elif name != "op":
            metrics[name + "_s"] = value
    walls = [sum(slot.get(n, 0.0) for n in slot if not n.startswith("#"))
             for slot in per_unit.values()]
    unaccounted = [slot.get("op", 0.0) for slot in per_unit.values()]
    metrics["trace.coverage"] = 1.0 - (sum(unaccounted) / sum(walls))

    def unit_times(traced):
        times = {}
        for i, sample in enumerate(samples):
            if sample[4] == traced:
                times[i // unit] = times.get(i // unit, 0.0) + sample[0]
        return list(times.values())

    metrics["trace.overhead"] = (statistics.median(unit_times(True))
                                 / statistics.median(unit_times(False)))
    metrics["host.ref_ms"] = statistics.median(s[1] for s in samples)
    return metrics
