"""One qaplan CLI call in a fresh interpreter, as a user runs it.

Usage: python3 perfbench/child.py MODE REPORT CLI_ARG...

MODE is ``timed`` or ``traced``. The child imports ``qaplan.cli``, runs
``cli.main(CLI_ARG...)`` and exits with its return code. Before exiting it
writes REPORT, a json object of CLOCK_MONOTONIC marks in nanoseconds
(comparable with the parent's), and in traced mode the aggregated spans.
Timed mode adds one wrapper only, around ``cli.load_config``, to mark the
end of set-up.
"""

import time

_clock = time.clock_gettime_ns
_MONO = time.CLOCK_MONOTONIC
started_ns = _clock(_MONO)

import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import qaplan.cli as cli  # noqa: E402

marks = {"started_ns": started_ns, "imported_ns": _clock(_MONO)}


def main() -> int:
    mode, report_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = installed = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        installed = spans.install(tracer)
    loader = cli.load_config

    def load_config(path):
        cfg = loader(path)
        marks["config_ns"] = _clock(_MONO)
        return cfg

    cli.load_config = load_config
    marks["main_enter_ns"] = _clock(_MONO)
    code = cli.main(argv)
    marks["main_exit_ns"] = _clock(_MONO)
    cli.load_config = loader
    if tracer is not None:
        spans.restore(installed)
        marks["trace"] = tracer.summary()
    import json

    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
