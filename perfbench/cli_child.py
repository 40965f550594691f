"""Run one kinclust CLI command with the benchmark's tracer installed.

    python3 perfbench/cli_child.py STATS_JSON CLI_ARG...

Used by the traced run of the cli workload in place of
``python -m kinclust.cli``; writes the tracer's stats to STATS_JSON and
exits with the CLI's own exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer
from worker import import_kinclust


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    kinclust = import_kinclust()
    import kinclust.cli

    tracer = Tracer()
    tracer.install(kinclust)
    tracer.enabled = True
    try:
        code = kinclust.cli.main(argv)
    finally:
        tracer.remove()
    stats_path.write_text(json.dumps(tracer.stats()))
    return code


if __name__ == "__main__":
    sys.exit(main())
