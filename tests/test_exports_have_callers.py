"""Every exported name has a caller in the program or the benchmark.

Code with no caller gets deleted.  A name in ``conifold_spectra.__all__``
or ``conifold_spectra.flatcone.__all__`` must be used somewhere in
``src/`` other than its definition and the package ``__init__`` files that
export it, or be used in the code of ``perfbench/*.py`` (its identifiers
and non-docstring strings, so the benchmark's ``(module, attribute)``
trace targets count and a docstring's mention does not), or be kept on
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


def _benchmark_uses():
    """Identifiers in ``perfbench/*.py`` code and its non-docstring strings.

    String constants count word by word, so the ``(module, attribute)``
    trace targets and the code strings a probe runs are callers; a name
    that only prose (a docstring) mentions is not.
    """
    folder = os.path.join(ROOT, "perfbench")
    used = set()
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        prose = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in prose:
                used.update(re.findall(r"\w+", node.value))
    return used


def test_every_export_has_a_caller():
    used = _program_uses() | _benchmark_uses()
    exported = set(conifold_spectra.__all__) | set(conifold_spectra.flatcone.__all__)
    uncalled = sorted(name for name in exported - KEEP - used if not name.startswith("__"))
    assert uncalled == []
