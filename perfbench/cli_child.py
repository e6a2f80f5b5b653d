"""`lapdeconv deconvolve` in a fresh interpreter with the benchmark's spans.

Usage: cli_child.py SPANS_JSON CLI_ARGS...

Runs lapdeconv.cli.main(CLI_ARGS) like `python -m lapdeconv.cli`, inside a
"cli" span and with every crossing point wrapped, then writes the spans,
the import time and the number of kernels built to SPANS_JSON.
"""

import json
import sys
import time

from spans import Tracer, kernel_misses

t0 = time.perf_counter()
import lapdeconv.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    before = kernel_misses()
    try:
        return tracer.call("cli", cli.main, argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "import_s": import_s,
                "kernels_built": None if before is None else kernel_misses() - before,
                "spans": tracer.export(),
                "missing": tracer.missing + tracer.broken,
            }, fh)


if __name__ == "__main__":
    sys.exit(main())
