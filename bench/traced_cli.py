"""Run one fracpois CLI command with the benchmark's tracer installed.

    python bench/traced_cli.py STATS_DIR CLI_ARGS...

fracpois must be importable (PYTHONPATH=src).  Writes the call statistics
and spans to STATS_DIR/<pid>.json and exits with the CLI's exit code.
"""

import json
import os
import sys
from pathlib import Path

from tracer import Tracer, install


def main() -> int:
    stats_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import fracpois.cli

    try:
        return fracpois.cli.main(argv)
    finally:
        (stats_dir / f"{os.getpid()}.json").write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
