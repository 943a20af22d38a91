"""Golden-file regression for :func:`repro.analysis.analyze` reports.

The corpus is the ``design-check`` benchmark's ten designs plus
``figure2`` and an 8-stage pipeline.  The rendered reports must match
the checked-in golden byte for byte.

The rotation and order of the printed loops follow
``networkx.simple_cycles``, which walks string-keyed sets, so they
depend on the interpreter's string-hash seed.  The corpus is therefore
rendered in a subprocess with ``PYTHONHASHSEED=0``.

Regenerate (after an *intentional* change) with::

    PYTHONHASHSEED=0 PYTHONPATH=src python -c \
        "import tests.analysis.test_analyze_golden as g; g.regenerate()"
"""

import os
import subprocess
import sys

from repro.analysis import analyze
from repro.graph.specs import parse_topology

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
GOLDEN_PATH = os.path.join(HERE, "..", "golden", "analyze.txt")

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
    "figure2",
    "pipeline:stages=8",
)


def render_corpus() -> str:
    return "\n".join(f"[{spec}]\n{analyze(parse_topology(spec)).render()}"
                     for spec in CORPUS)


def regenerate() -> None:  # pragma: no cover - maintenance helper
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(render_corpus())


def test_analyze_matches_golden():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)),
               PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, test_analyze_golden as g; "
         "sys.stdout.write(g.render_corpus())"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = fh.read()
    if proc.stdout != golden:
        import difflib

        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), proc.stdout.splitlines(),
            fromfile="golden", tofile="current", lineterm="", n=2))
        raise AssertionError("analyze reports drifted from the golden "
                             "file:\n" + diff)
