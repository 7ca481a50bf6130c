"""`python -m modchar.cli` with timing spans installed (traced cli runs).

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/traced_cli.py ARGS...

Runs modchar's CLI on ARGS in this interpreter with every span of
spans.py installed, writes the span totals to PERFBENCH_TRACE_OUT, and
exits with the CLI's own exit code.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def main() -> int:
    spans.install()
    from modchar.cli import main as cli_main

    sys.argv[0] = "modchar"
    try:
        code = cli_main(sys.argv[1:])
    except SystemExit as exc:  # argparse: --version, usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps(spans.REC.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
