"""Fixed pure-Python reference loop: the benchmark's host-speed yardstick.

Closed-loop workloads run this loop between ops and report each op's
latency divided by the mean of the readings around it (the ``*_ref``
metrics), so a run that lands in a slow window on a shared host reads
the same in reference units.  The loop imports nothing from ``repro``
and must never do so: no change to the program may make it faster or
slower.  Its mix
(dict updates, integer arithmetic, list building, sorting, string
formatting and joining) mirrors the interpreter-bound work of fault
classification and report encoding.

``setup_s`` scales each cold start-up to nominal host speed with two
readings taken around it (:func:`at_nominal_speed`).

A workload whose op keeps two CPUs busy (``campaign-lid`` at ``jobs=2``)
uses :class:`PairedReference`: the same loop on both CPUs at once, so a
slow second CPU shows in the reading as it does in the op.
"""

import os
import time

#: Iterations per call; sized so one call takes 10-20 ms on a 2-core
#: x86-64 container running CPython 3.11.
ROUNDS = 32_000
#: The reading at full speed on that host; :func:`at_nominal_speed`
#: scales wall times to it.
NOMINAL_MS = 10.0


def reference_work(rounds: int = ROUNDS) -> int:
    """Do a fixed amount of interpreter-bound work; return a checksum."""
    table = {}
    acc = 0
    rows = []
    for i in range(rounds):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + (i ^ key)
        acc = (acc * 31 + i) & 0xFFFFFFFF
        if i % 8 == 0:
            rows.append((key, acc & 0xFFFF))
    rows.sort()
    text = ",".join(f"{k}:{v}" for k, v in rows)
    return (acc + len(text) + sum(table.values())) & 0xFFFFFFFF


def reference_ms(rounds: int = ROUNDS) -> float:
    """Wall time of one :func:`reference_work` call, in milliseconds."""
    started = time.perf_counter()
    reference_work(rounds)
    return (time.perf_counter() - started) * 1000.0


def at_nominal_speed(seconds, before_ms, after_ms):
    """*seconds* of wall time, scaled by the readings taken just before
    and just after it to a host on which the loop reads NOMINAL_MS."""
    return seconds * NOMINAL_MS * 2.0 / (before_ms + after_ms)


class PairedReference:
    """The reference loop run in this process and a helper at once.

    The helper is forked on construction, before the caller starts any
    thread; it waits on a pipe, runs :func:`reference_work` per request
    and answers when done.  :meth:`reference_ms` is the wall time until
    both copies finished.
    """

    def __init__(self, rounds=ROUNDS):
        self.rounds = rounds
        go_read, self._go = os.pipe()
        self._done, done_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._go)
            os.close(self._done)
            try:
                while os.read(go_read, 1):
                    reference_work(rounds)
                    os.write(done_write, b"x")
            finally:
                os._exit(0)
        os.close(go_read)
        os.close(done_write)

    def reference_ms(self):
        started = time.perf_counter()
        os.write(self._go, b"x")
        reference_work(self.rounds)
        os.read(self._done, 1)
        return (time.perf_counter() - started) * 1000.0

    def close(self):
        """Stop the helper and wait for it to exit."""
        os.close(self._go)
        os.close(self._done)
        os.waitpid(self.pid, 0)
