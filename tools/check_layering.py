#!/usr/bin/env python3
"""Layering lint: enforce the import direction of the IR refactor.

The canonical construction path (docs/ir.md) layers the package as::

    repro.graph / repro.ir          (topology + lowered IR: no upward imports)
        -> repro.lid / repro.skeleton / repro.analysis   (backends)
        -> repro.exec / repro.inject                     (execution)
        -> repro.cli                                     (frontend)

Rules enforced here (each rule: *source prefix* must not import any of
the *forbidden prefixes*):

* ``repro.graph`` and ``repro.ir`` must not import ``repro.lid``,
  ``repro.skeleton`` or ``repro.cli`` — lowerings reach backends only
  through the string-keyed :mod:`repro._registry` service locator;
* ``repro.exec`` must not import ``repro.cli`` — workers materialize
  :class:`~repro.exec.graphs.GraphRef` via ``repro.graph.specs``;
* ``repro.serve`` must not import ``repro.cli`` — the CLI calls into
  the service's ``execute_manifest``, never the other way round, so the
  argparse frontend stays a thin layer over the one execution path;
* ``repro.skeleton.codegen`` consumes only ``repro.ir`` (its input is
  a :class:`~repro.ir.LoweredSystem`) and ``repro.exec.cache`` (the
  optional compile-cache disk layer, duck-typed) besides its own
  package — not ``repro.lid`` (the variant is duck-typed), not the
  rest of ``repro.exec``, and nothing above.

A rule may carve out *allowed* sub-prefixes of a forbidden prefix
(e.g. ``repro.exec.cache`` inside a forbidden ``repro.exec``).

The walk covers *every* ``import``/``from ... import`` statement in the
AST — module level, function level, ``TYPE_CHECKING`` blocks — because
lazy imports are exactly how layering violations sneak in.  Relative
imports are resolved against the module's package before matching.

Exit status 0 when clean; 1 with one line per violation otherwise.
Run from anywhere: ``python tools/check_layering.py``.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: (source module prefix, forbidden module prefixes, allowed
#: sub-prefixes that override a forbidden match)
RULES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("repro.graph", ("repro.lid", "repro.skeleton", "repro.cli"), ()),
    ("repro.ir", ("repro.lid", "repro.skeleton", "repro.cli"), ()),
    ("repro.exec", ("repro.cli",), ()),
    ("repro.serve", ("repro.cli",), ()),
    ("repro.skeleton.codegen",
     ("repro.lid", "repro.exec", "repro.inject", "repro.obs",
      "repro.analysis", "repro.bench", "repro.cli"),
     ("repro.exec.cache",)),
)


def _module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC_ROOT)
    parts = rel[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(module: str, level: int, target: str) -> str:
    """Absolute module named by ``from <level dots><target> import ...``."""
    parts = module.split(".")
    # A module's imports resolve against its package: repro.graph.model
    # with level=1 means repro.graph; level=2 means repro.
    base = parts[:len(parts) - level]
    return ".".join(base + ([target] if target else []))


def _imports(path: str, module: str) -> Iterator[Tuple[int, str]]:
    """Every module imported anywhere in *path*, with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level,
                                         node.module or "")
                yield node.lineno, base
                # "from . import skeleton" imports the submodule too.
                for alias in node.names:
                    yield node.lineno, f"{base}.{alias.name}"
            elif node.module:
                yield node.lineno, node.module
                for alias in node.names:
                    yield node.lineno, f"{node.module}.{alias.name}"


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def check_file(path: str, module: str) -> List[str]:
    """Violations in one module (empty when no rule matches it)."""
    violations: List[str] = []
    active = [(forbidden, allowed)
              for source, forbidden, allowed in RULES
              if _matches(module, source)]
    if not active:
        return violations
    for lineno, imported in _imports(path, module):
        for forbidden, allowed in active:
            if any(_matches(imported, p) for p in allowed):
                continue
            hits = [p for p in forbidden if _matches(imported, p)]
            for prefix in hits:
                rel = os.path.relpath(path, REPO_ROOT)
                violations.append(
                    f"{rel}:{lineno}: {module} imports "
                    f"{imported} (layer {prefix} is above it; "
                    f"use repro._registry)")
    return violations


def check() -> List[str]:
    violations: List[str] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(SRC_ROOT)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            violations.extend(check_file(path, _module_name(path)))
    return sorted(set(violations))


def main() -> int:
    violations = check()
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
