"""Run distnull's command line the way its console script does (import
``distnull.cli`` and call ``main``), then report this process's peak RSS.

    python perfbench/cli_child.py [--spans SPANS_JSON] ARG...

The last line written to stderr is ``perfbench-peak-rss-mb <value>``.
With ``--spans`` every layer runs under the span tracer and the spans are
saved to SPANS_JSON.  Imports stay minimal, since they count in the wall
time of the call.
"""

import sys

from rss import peak_rss_mb

RSS_TAG = "perfbench-peak-rss-mb"


def main() -> int:
    argv = sys.argv[1:]
    tracer = spans = None
    if argv[:1] == ["--spans"]:
        from tracer import Tracer

        spans, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    import distnull.cli

    try:
        return distnull.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans)
        sys.stderr.write(f"\n{RSS_TAG} {peak_rss_mb():.3f}\n")


if __name__ == "__main__":
    sys.exit(main())
