"""``wmxml serve`` with the span wrappers installed.

Usage: ``python -m wmbench.serve_traced SPANS.json serve [serve args]``.
Spans are on from boot; the benchmark keeps those of the requests it
measured by their request IDs.  They are written to ``SPANS.json``
when the daemon shuts down.
"""

import sys

from wmbench import spans


def main() -> int:
    path = sys.argv[1]
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro import cli

    tracer.enabled = True
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.enabled = False
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
