"""``design-check``: static analysis, liveness and exhaustive verification.

One op checks one design of a fixed corpus: ``analyze`` (which runs the
skeleton to its periodic regime and ``check_deadlock`` inside), an
explicit ``check_deadlock``, and ``verify_system_liveness`` on the
designs whose state space fits.  A unit is one pass over the corpus in
a seed-shuffled order, so every design is measured equally often; the
latency percentiles are taken over whole passes, so every design's cost
counts.

An op fails when its output contradicts an oracle:

* the static throughput differs from the simulated one on a design
  where the analysis claims exactness (single-clock designs, and
  feed-forward GALS designs whose bridges are all at least 2 deep), or
  exceeds it where the analysis claims a certified upper bound;
* ``check_deadlock`` and ``verify_system_liveness`` disagree on
  liveness.

``gals-chain:rates=3/4+4/5,depth=2`` stays in the corpus: its static
throughput is 3/4 while simulation gives 7/10, a known defect of the
exactness claim, so ``success_rate`` reads 0.9 until the program is
fixed.
"""

import random

CORPUS = (
    "feedback",
    "figure1",
    "ring:shells=6",
    "composed",
    "tree:depth=3",
    "butterfly",
    "loopy:shells=8,half=0.5",
    "dag:shells=12",
    "gals-chain:rates=3/4+4/5,depth=2",
    "gals-ring:rates=1+2/3+3/5,depth=1",
)

#: Designs small enough for the exhaustive liveness explorer.
LIVENESS = frozenset((
    "feedback", "figure1", "ring:shells=6", "composed",
    "gals-chain:rates=3/4+4/5,depth=2", "gals-ring:rates=1+2/3+3/5,depth=1",
))


class DesignCheck:
    cpus = 1
    unit = len(CORPUS)
    limit_s = 5.0

    def __init__(self, run, seed, tracer):
        from repro import analysis, verify
        from repro.graph import specs
        from repro.ir import lower
        from repro.skeleton import deadlock

        self.specs, self.analysis = specs, analysis
        self.deadlock, self.verify_mod = deadlock, verify
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.order = list(CORPUS)
        self.exact = {}
        for spec in CORPUS:
            graph = specs.parse_topology(spec)
            self.exact[spec] = graph.is_single_clock() or (
                not graph.shell_cycles()
                and all(b.depth >= 2 for b in lower(graph).bridges))

    def install(self):
        tracer = self.tracer
        tracer.patch(self.specs, "parse_topology", "graph.parse")
        tracer.patch(self.analysis, "analyze", "analysis.analyze")
        tracer.patch(self.deadlock, "check_deadlock", "skeleton.deadlock")
        tracer.patch(self.verify_mod, "verify_system_liveness",
                     "verify.liveness")

    def check_design(self, spec):
        graph = self.specs.parse_topology(spec)
        report = self.analysis.analyze(graph)
        verdict = self.deadlock.check_deadlock(graph)
        liveness = None
        if spec in LIVENESS:
            liveness = self.verify_mod.verify_system_liveness(graph)
            self.tracer.count("verify.states", liveness.reachable_states)
        return spec, report, verdict, liveness

    def op(self, index):
        if index % self.unit == 0 and index:
            self.rng.shuffle(self.order)
        return self.check_design(self.order[index % self.unit])

    def verify(self, index, outputs):
        spec, report, verdict, liveness = outputs
        static, simulated = (report.static_throughput,
                             report.simulated_throughput)
        ok = static == simulated if self.exact[spec] else static >= simulated
        if liveness is not None:
            ok = ok and liveness.live == verdict.live
        return ok, 1

    def warm(self):
        for spec in CORPUS:
            self.check_design(spec)

    def check(self):
        return []

    def layer_metrics(self, layers):
        return []
