"""Child-process entry points of the benchmark.

``launcher.py probe MODULE STORE BACKEND...``
    Import ``MODULE`` (the layer the workload drives) and build the
    prediction service a workload's first operation needs (``STORE`` is a
    fresh store directory, or ``-`` for none), then print ``ready``.  The
    parent times this from process start: it is the workload's set-up time.

``launcher.py serve TRACE_OUT ARG...``
    Run the ``repro`` command line with ``ARG...`` (the daemon).  With a
    non-empty ``TRACE_OUT`` the span wrappers are installed first, and once
    the daemon has drained the per-span summary is written to that file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def probe(module: str, store: str, backends: list[str]) -> int:
    import importlib

    importlib.import_module(module)
    from repro.api.service import PredictionService

    PredictionService(backends=backends, store=None if store == "-" else store)
    print("ready", flush=True)
    return 0


def serve(trace_out: str, cli_args: list[str]) -> int:
    recorder = None
    if trace_out:
        from tracing import SpanRecorder, all_targets, install

        recorder = SpanRecorder()
        install(recorder, all_targets())
    from repro.cli import main

    code = main(cli_args)
    if recorder is not None:
        from tracing import summarize

        summary = {
            "spans": summarize(recorder.spans),
            "distinct": {name: len(keys) for name, keys in recorder.distinct.items()},
        }
        Path(trace_out).write_text(json.dumps(summary))
    return code


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "probe":
        return probe(argv[1], argv[2], argv[3:])
    if len(argv) >= 2 and argv[0] == "serve":
        return serve(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
