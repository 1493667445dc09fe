"""One traced CLI call: ``python -X importtime perfbench/cli_child.py ARGS``.

Runs ``modext.cli.main(ARGS)`` with the benchmark's wrappers installed.
Stdout is exactly the CLI's; the per-layer totals of this call go to
stderr on one line that starts with ``PERFBENCH-TRACE``, after the
import-time lines.
"""

import sys

import tracer as tr

t = tr.Tracer()
import modext.cli  # noqa: E402  (timed by -X importtime)

tr.install(t)
code = modext.cli.main(sys.argv[1:])
sys.stdout.flush()
layers = tr.layer_values(t)
import json  # noqa: E402

sys.stderr.write("PERFBENCH-TRACE " + json.dumps(layers) + "\n")
sys.exit(code)
