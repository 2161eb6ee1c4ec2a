"""Run the weavelane CLI in-process with a span around each layer call.

Usage: python3 cli_runner.py SPANS_JSON ARG...

Imports ``weavelane.cli``, wraps every function that ``cli`` imported from
another weavelane module, calls ``cli.main(ARG...)`` inside a ``cli.main``
span and exits with its return code. An exception escapes exactly as it
would from ``python -m weavelane``. The import time, the time spent inside
this process and the folded spans are written to SPANS_JSON in any case.
"""

import time

T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t = time.perf_counter()
    import weavelane.cli as cli

    import_s = time.perf_counter() - t
    for attr, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("weavelane.") and module != "weavelane.cli":
            tracer.rebind(cli, attr, tracer.span_wrapper(f"{module.split('.')[-1]}.{attr}", value))
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.fold()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"import_s": import_s, "inside_s": time.perf_counter() - T0, "totals": tracer.totals},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
