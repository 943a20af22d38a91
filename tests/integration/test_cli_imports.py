"""Import-cost guard for the manifest-backed CLI commands.

``inject``, ``deadlock`` and ``series`` run through
:func:`repro.serve.dispatch.execute_manifest`, the function the
campaign service runs too.  Sharing that path must not drag the
service's asyncio/HTTP stack into every offline invocation.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

PROBE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["inject", "--smoke", "--no-cache",
                 "--format", "json"]) == 0
    assert main(["deadlock", "feedback"]) == 0
    assert main(["series", "loop"]) == 0
loaded = [name for name in ("asyncio", "repro.serve.app")
          if name in sys.modules]
print(",".join(loaded) or "clean")
"""


def test_manifest_commands_do_not_import_asyncio():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "clean"
