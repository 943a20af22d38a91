"""``campaign-lid``: token-level fault campaigns fanned across 2 workers.

One op is ``run_campaign`` on ``feedback`` with 64 sampled stop/void
faults, strict monitors and ``jobs=2`` (the host's core count), using a
fresh fault-sampling seed drawn from the workload seed stream, then
``to_json``.  The LID ``kernel`` engine and the ``exec`` fork/chunk/merge
path do the work; there is no batch engine and the report is small.
"""

import hashlib
import random
import statistics
import time

SPEC = "feedback"
SAMPLES = 64
#: Cycles per experiment, sized so one op takes ~0.15 s at ``jobs=2``.
CYCLES = 128
JOBS = 2
#: Ops re-run at ``jobs=1`` after the window to check jobs-invariance.
JOBS_SAMPLE = 3
#: Alternating ``jobs=1``/``jobs=2`` repetitions behind ``exec.speedup``.
SPEEDUP_REPS = 3


class CampaignLid:
    cpus = 2
    unit = 1
    limit_s = 2.0

    def __init__(self, run, seed, tracer):
        from repro.graph import specs
        from repro.inject import campaign
        from repro.lid.variant import DEFAULT_VARIANT

        self.specs, self.campaign = specs, campaign
        self.variant = DEFAULT_VARIANT
        self.run, self.tracer = run, tracer
        self.rng = random.Random(seed)
        self.op_seeds = {}
        self.digests = {}

    def install(self):
        import repro.ir
        from repro.graph.model import SystemGraph

        tracer, campaign = self.tracer, self.campaign
        tracer.patch(self.specs, "parse_topology", "graph.parse")
        tracer.patch(repro.ir, "lower", "ir.lower")
        tracer.patch(campaign, "generate_faults", "inject.plan")
        tracer.patch(campaign.GoldenRun, "capture", "inject.golden")
        tracer.patch(SystemGraph, "elaborate", "lid.elaborate")
        tracer.patch(campaign, "run_experiment", "inject.experiment")
        tracer.patch(campaign, "map_deterministic", "exec.map")

    def _campaign(self, op_seed, jobs):
        from repro.exec import GraphRef, ResultCache

        graph = self.specs.parse_topology(SPEC, seed=op_seed)
        cache = ResultCache.disk(self.run.cache_dir)
        with self.tracer.span("inject.campaign"):
            report = self.campaign.run_campaign(
                graph, variant=self.variant, classes=("stop", "void"),
                cycles=CYCLES, samples=SAMPLES, seed=op_seed, strict=True,
                jobs=jobs, cache=cache,
                graph_ref=GraphRef.from_spec(SPEC, seed=op_seed))
        with self.tracer.span("inject.encode"):
            text = report.to_json()
        execution = report.execution or {}
        stats = execution.get("cache") or {}
        self.tracer.count("exec.workers", execution.get("workers", 1))
        self.tracer.count("exec.cache_hits", stats.get("hits", 0))
        self.tracer.count("exec.cache_misses", stats.get("misses", 0))
        return text, len(report.results)

    def op(self, index):
        op_seed = self.op_seeds[index] = self.rng.randrange(2 ** 31)
        return self._campaign(op_seed, JOBS)

    def verify(self, index, outputs):
        text, experiments = outputs
        self.digests[index] = hashlib.sha256(text.encode()).hexdigest()
        return experiments == SAMPLES, experiments

    def warm(self):
        for index in (-2, -1):
            self.verify(index, self.op(index))

    def check(self):
        """Sampled window ops must produce the same bytes at ``jobs=1``."""
        window = sorted(i for i in self.digests if i >= 0)
        picks = window[::max(1, len(window) // JOBS_SAMPLE)][:JOBS_SAMPLE]
        failures = []
        for index in picks:
            text, _ = self._campaign(self.op_seeds[index], 1)
            if hashlib.sha256(text.encode()).hexdigest() \
                    != self.digests[index]:
                failures.append(f"op {index}: jobs=1 report differs from "
                                f"the jobs={JOBS} report")
        return failures

    def layer_metrics(self, layers):
        """``exec.speedup`` and a serial traced pass for per-experiment
        and elaboration times (with ``jobs=2`` both run in workers,
        where the parent's spans cannot see them)."""
        op_seed = self.rng.randrange(2 ** 31)
        times = {1: [], JOBS: []}
        for _rep in range(SPEEDUP_REPS):
            for jobs in (1, JOBS):
                started = time.perf_counter()
                self._campaign(op_seed, jobs)
                times[jobs].append(time.perf_counter() - started)
        layers["exec.speedup"] = (statistics.median(times[1])
                                  / statistics.median(times[JOBS]))

        tracer = self.tracer
        first = len(tracer.spans)
        tracer.enabled, tracer.op = True, "serial"
        try:
            self._campaign(op_seed, 1)
        finally:
            tracer.enabled = False
        serial = tracer.spans[first:]
        layers["inject.experiment_p50_ms"] = 1000.0 * statistics.median(
            s["end"] - s["start"] for s in serial
            if s["name"] == "inject.experiment")
        layers["lid.elaborate_s"] = tracer.self_times()["serial"][
            "lid.elaborate"]
        return []
