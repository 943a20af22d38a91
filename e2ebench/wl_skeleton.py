"""``campaign-skeleton``: the ``repro-lid inject --engine skeleton`` path.

One op is ``repro-lid inject --engine skeleton --exhaustive --strict
--backend auto --format json --output FILE --ledger`` on three
topologies, called through the same public functions the CLI calls:
parse -> lower -> plan faults -> batch engine -> classify -> ``to_json``
-> write file -> ledger append.  Exhaustive fault lists do not depend
on the seed, so every op of a run does identical work and must produce
identical bytes; the run seed only enters the report header.
"""

import hashlib
import os
import time

#: (topology, fault classes, cycles).  Cycles are sized so one op takes
#: 0.1-0.15 s on a 2-core x86-64 host, and a 25 s window holds 100+ ops
#: even when the host runs at half speed.
TOPOLOGIES = (
    ("feedback", ("stop", "void"), 48),
    ("pipeline:stages=8", ("stop", "void", "payload"), 32),
    ("gals-ring:rates=1+2/3,depth=2", ("stop", "void", "cdc"), 32),
)

CENSUS_BACKENDS = ("scalar", "vectorized", "bitsim", "codegen")


class CampaignSkeleton:
    cpus = 1
    unit = 1
    limit_s = 2.0

    def __init__(self, run, seed, tracer):
        from repro.graph import specs
        from repro.inject import campaign
        from repro.lid.variant import DEFAULT_VARIANT

        self.specs, self.campaign = specs, campaign
        self.variant = DEFAULT_VARIANT
        self.run, self.seed, self.tracer = run, seed, tracer
        self.expected = {}

    def install(self):
        """Wrap the layers this workload's op passes through."""
        import repro.ir
        from layers import patch_skeleton_select

        self.tracer.patch(self.specs, "parse_topology", "graph.parse")
        self.tracer.patch(repro.ir, "lower", "ir.lower")
        self.tracer.patch(self.campaign, "generate_faults", "inject.plan")
        patch_skeleton_select(self.tracer)

    def _campaign(self, graph, classes, cycles, backend, cache=None):
        return self.campaign.skeleton_campaign(
            graph, variant=self.variant, classes=classes, cycles=cycles,
            window=None, exhaustive=True, samples=64, seed=self.seed,
            backend=backend, strict=True, jobs=1, cache=cache)

    def _inject(self, spec, classes, cycles):
        """One ``inject`` command; returns ``(report text, experiments)``."""
        from repro.exec import ResultCache, graph_fingerprint
        from repro.obs import append_record, make_record

        started = time.perf_counter()
        graph = self.specs.parse_topology(spec, seed=self.seed)
        cache = ResultCache.disk(self.run.cache_dir)
        with self.tracer.span("inject.classify"):
            report = self._campaign(graph, classes, cycles, "auto", cache)
        wall = time.perf_counter() - started
        with self.tracer.span("inject.encode"):
            text = report.to_json()
        with self.tracer.span("obs.write"):
            path = os.path.join(self.run.out_dir,
                                spec.partition(":")[0] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            params = {"engine": "skeleton", "backend": "auto",
                      "cycles": cycles, "samples": 64, "seed": self.seed,
                      "classes": list(classes), "exhaustive": True,
                      "window": None, "strict": True}
            execution = report.execution or {}
            meta = {"wall_seconds": round(wall, 6), "jobs": 1}
            if execution.get("cache") is not None:
                meta["cache"] = execution["cache"]
            append_record(self.run.ledger, make_record(
                "inject-campaign", topology=spec,
                fingerprint=graph_fingerprint(graph),
                variant=str(self.variant), params=params,
                verdict=dict(report.counts()), meta=meta))
        self.tracer.count("inject.report_bytes", len(text))
        self.tracer.count("inject.experiments", len(report.results))
        self.tracer.count("inject.faults",
                          len(report.results) + len(report.skipped))
        return text, len(report.results)

    def op(self, index):
        return [self._inject(spec, classes, cycles)
                for spec, classes, cycles in TOPOLOGIES]

    def verify(self, index, outputs):
        """Each report must repeat the first op's bytes exactly."""
        ok, work = True, 0
        for (spec, _classes, _cycles), (text, experiments) in zip(
                TOPOLOGIES, outputs):
            digest = hashlib.sha256(text.encode()).hexdigest()
            ok = ok and self.expected.setdefault(spec, digest) == digest
            work += experiments
        return ok, work

    def warm(self):
        for index in range(2):
            self.verify(index, self.op(index))

    def check(self):
        """Every op's bytes must equal a scalar-backend reference."""
        failures = []
        for spec, classes, cycles in TOPOLOGIES:
            graph = self.specs.parse_topology(spec, seed=self.seed)
            text = self._campaign(graph, classes, cycles, "scalar").to_json()
            if hashlib.sha256(text.encode()).hexdigest() \
                    != self.expected.get(spec):
                failures.append(f"{spec}: report differs from the "
                                f"scalar-backend reference")
        return failures

    def layer_metrics(self, layers):
        """Backend census on the ``feedback`` op, plus derived ratios."""
        spec, classes, cycles = TOPOLOGIES[0]
        graph = self.specs.parse_topology(spec, seed=self.seed)
        texts = {}
        for backend in CENSUS_BACKENDS:
            started = time.perf_counter()
            report = self._campaign(graph, classes, cycles, backend)
            layers[f"skeleton.campaign_s.{backend}"] = (
                time.perf_counter() - started)
            texts[backend] = report.to_json()
        failures = [f"census: {backend} report differs from scalar"
                    for backend, text in texts.items()
                    if text != texts["scalar"]]
        layers["inject.expressible_share"] = (
            layers.pop("inject.experiments") / layers.pop("inject.faults"))
        return failures
