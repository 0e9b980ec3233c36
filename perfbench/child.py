"""Traced stand-in for ``python -m conifold_spectra.cli`` (cli-mix, --trace 1).

Usage: ``python perfbench/child.py SPANS_FILE CLI_ARGS...`` with the package
on ``PYTHONPATH``.  Imports the CLI, wraps the layers, runs ``main`` and
writes the spans and counts to SPANS_FILE as JSON before exiting with
``main``'s code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

import conifold_spectra.cli as cli  # noqa: E402


def run(spans_file: str, argv) -> int:
    recorder = tracing.Recorder()
    recorder.install()
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    return code


if __name__ == "__main__":
    sys.stdout.flush()
    sys.exit(run(sys.argv[1], sys.argv[2:]))
