"""Every exported name has a caller in the program or the benchmark.

Code with no caller gets deleted.  A name in ``conifold_spectra.__all__``
or ``conifold_spectra.flatcone.__all__`` must be used somewhere in
``src/`` other than its definition and the package ``__init__`` files that
export it, or be named in ``perfbench/*.py`` (read as text, so the
benchmark's ``(module, attribute)`` trace targets count), or be kept on
purpose below.  Module metadata such as ``__version__`` is for tools, not
callers, and is not checked.
"""

import ast
import os
import re

import conifold_spectra
import conifold_spectra.flatcone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the paper's named maps that acceptance criteria 5 and 11 check directly
KEEP = {"weight_pair_sum", "weight_pair_product", "bootstrap_decay"}


def _program_uses():
    """Names the modules of ``src/`` read, ``__init__`` files aside."""
    used = set()
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if not name.endswith(".py") or name == "__init__.py":
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
    return used


def _benchmark_text():
    folder = os.path.join(ROOT, "perfbench")
    parts = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                parts.append(handle.read())
    return "\n".join(parts)


def test_every_export_has_a_caller():
    used = _program_uses()
    bench = _benchmark_text()
    exported = set(conifold_spectra.__all__) | set(conifold_spectra.flatcone.__all__)
    uncalled = sorted(
        name
        for name in exported - KEEP - used
        if not name.startswith("__") and not re.search(rf"\b{re.escape(name)}\b", bench)
    )
    assert uncalled == []
