"""``python -m tracerange`` and the ``tracerange`` console script.

Both end through ``launch``: once ``cli.main`` has written and flushed the
answer, ``gc.freeze`` puts every object out of the collector's reach, so
the full collections of interpreter shutdown traverse none of them. The
process still exits by ``SystemExit``, so atexit handlers run and streams
flush. In-process callers use ``cli.main``, which freezes nothing.
"""

import gc

from .cli import main


def launch():
    """Run ``cli.main`` on the process's command line and exit with its code."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    launch()
