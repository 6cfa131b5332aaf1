"""Run one avfrk command with tracing on, and save its spans.

    python3 perfbench/cli_child.py SPANS_FILE ARG...

Does what `python -m avfrk.cli ARG...` does, in this process: times the
import of the command-line module, runs the command with every public
function of the package traced, writes the spans as JSON to SPANS_FILE and
exits with the command's exit code.  `src/` must be on PYTHONPATH.
"""

import sys
from time import perf_counter


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import avfrk.cli

    t1 = perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.phase = "pass"
    tracer.spans.append(["cli.import", "cli", t0, t1, -1, -1, "pass", None])
    with tracer.installed():
        code = avfrk.cli.main(argv)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
