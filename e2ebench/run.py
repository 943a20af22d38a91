"""End-to-end benchmark of the repro-lid toolkit: one workload per run.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload campaign-skeleton --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
breakdown and writes its spans to ``e2ebench/traces/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``, the names and
units declared in ``BENCHMARK.json``).  See ``e2ebench/README.md`` for
the workloads, the metric definitions and the layer-to-metric map.

Every run is hermetic: it works in a fresh directory under
``e2ebench/runs/`` (result cache, ledger, report files, temporary files
and a private ``HOME``, so nothing under ``~/.cache/repro-lid`` is read
or written) and removes it on exit.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("campaign-skeleton", "campaign-lid", "design-check",
             "serve-mix")

#: Cold start-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7


class RunDir:
    """A private scratch tree for one process; removed on close."""

    def __init__(self, label):
        self.path = os.path.join(HERE, "runs", f"{label}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        self.cache_dir = os.path.join(self.path, "cache")
        self.out_dir = os.path.join(self.path, "out")
        self.home = os.path.join(self.path, "home")
        self.ledger = os.path.join(self.path, "ledger.jsonl")
        tmp = os.path.join(self.path, "tmp")
        for directory in (self.cache_dir, self.out_dir, self.home, tmp):
            os.makedirs(directory)
        os.environ.update(HOME=self.home, TMPDIR=tmp,
                          REPRO_LID_CACHE_DIR=self.cache_dir,
                          REPRO_LID_LEDGER=self.ledger)

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still owns a directory there


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def closed_loop_class(name):
    if name == "campaign-skeleton":
        from wl_skeleton import CampaignSkeleton as cls
    elif name == "campaign-lid":
        from wl_lid import CampaignLid as cls
    else:
        from wl_design import DesignCheck as cls
    return cls


def probe(name, seed):
    """Child side of a set-up probe: import, one cold op, report."""
    from layers import Tracer

    run = RunDir(f"probe-{name}")
    try:
        workload = closed_loop_class(name)(run, seed, Tracer())
        workload.verify(0, workload.op(0))
        print("ready", flush=True)
    finally:
        run.close()
    return 0


def setup_seconds(name, seed):
    """Median start-up time at nominal host speed.

    Each probe is timed from spawning a fresh interpreter to its first
    completed op, then scaled by reference-loop readings taken just
    before and just after it (:func:`refloop.at_nominal_speed`).
    """
    import refloop

    samples = []
    for attempt in range(SETUP_PROBES):
        before = refloop.reference_ms()
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", name, "--seed", str(seed * 100 + attempt)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed")
        samples.append(refloop.at_nominal_speed(
            elapsed, before, refloop.reference_ms()))
    return statistics.median(samples)


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest
    finished child: the pool workers of a ``jobs=2`` campaign, which
    run its experiments.  Read before any set-up probe has run."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_closed_loop(args, run):
    import closedloop
    import refloop
    from layers import Tracer

    tracer = Tracer()
    cls = closed_loop_class(args.workload)
    # Forked before the workload starts any thread; it is reaped only
    # after the memory reading, so it never counts as a child there.
    paired = refloop.PairedReference() if cls.cpus > 1 else None
    try:
        workload = cls(run, args.seed, tracer)
        workload.warm()
        if args.trace:
            workload.install()
        samples = closedloop.run_window(
            workload, args.seconds, tracer if args.trace else None,
            paired.reference_ms if paired else refloop.reference_ms)
        peak_mb = peak_rss_mb()
        failures = workload.check()
        if args.trace:
            metrics = closedloop.traced_layers(samples, tracer, workload.unit)
            untraced = [s for s in samples if not s[4]]
            metrics.update(closedloop.end_to_end(
                untraced, workload.limit_s, workload.unit))
            key = ("designs_per_s" if args.workload == "design-check"
                   else "experiments_per_s")
            metrics[key] = (sum(s[3] for s in untraced)
                            / sum(s[0] for s in untraced))
            failures += workload.layer_metrics(metrics)
            tracer.write(os.path.join(
                HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = closedloop.end_to_end(samples, workload.limit_s,
                                            workload.unit)
            metrics["peak_rss_mb"] = peak_mb
    finally:
        tracer.unpatch()
        if paired:
            paired.close()
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
    attempted = len(samples)
    failed = sum(1 for s in samples if not s[2])
    return failures, attempted, failed, metrics


def result_line(failures, attempted, failed, values, units, traced):
    """The JSON result, with the declared metrics of this kind of run.

    Every end-to-end metric must have been measured; a per-layer metric
    of a layer the workload's op never enters reads 0.  Values measured
    but not declared for this kind of run are left out.
    """
    missing = sorted(set(units) - set(values))
    if missing and not traced:
        raise RuntimeError(f"no value measured for {missing}")
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if args.probe:
        return probe(args.workload, args.seed)

    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    run = RunDir(args.workload)
    try:
        if args.workload == "serve-mix":
            import wl_serve

            outcome = wl_serve.run(args, run)
        else:
            outcome = run_closed_loop(args, run)
        failures, attempted, failed, values = outcome
        line = result_line(failures, attempted, failed, values, units,
                           bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.close()
    for failure in failures:
        print(f"e2ebench: check failed: {failure}", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
