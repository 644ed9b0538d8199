"""One traced motsign CLI invocation, for the traced run of the cli workload.

    python3 bench/cli_child.py OUT.json ARG...

Runs motsign.cli.main(ARGS) with the benchmark's tracer installed, writes
the tracer's statistics and spans to OUT.json, and exits with main's code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import motsign.cli  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tr = tracer.Tracer()
    tr.op_id = 0
    tr.install()
    try:
        return motsign.cli.main(argv)
    finally:
        sys.stdout.flush()
        doc = tr.snapshot()
        doc["spans"] = tr.spans
        out.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
