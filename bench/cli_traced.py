"""Run ``meterfill`` like its console script, with the benchmark's tracer.

Usage: python3 bench/cli_traced.py LAYERS_JSON meterfill-arguments...

Times ``import meterfill.cli`` (the process's import cost, interpreter start
excluded), runs ``cli.main`` under a ``cli.impute`` span with the public
functions wrapped, and writes the per-layer metrics to LAYERS_JSON.
"""

import json
import sys
from time import perf_counter

from tracing import Tracer

started = perf_counter()
import meterfill.cli  # noqa: E402

import_s = perf_counter() - started

tracer = Tracer()
tracer.install()
try:
    with tracer.span("cli.impute"):
        code = meterfill.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
layers = tracer.layer_metrics()
layers["cli.import_s"] = import_s
with open(sys.argv[1], "w", encoding="utf-8") as f:
    json.dump(layers, f)
sys.exit(code)
