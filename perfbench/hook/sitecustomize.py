"""Load the benchmark's span hooks into a child interpreter.

The traced run puts this directory on ``PYTHONPATH`` (with
``PERFBENCH_SPAN_DIR`` set) for the ``repro serve`` and ``repro worker``
processes it starts, so their calls into the program record spans exactly as
the benchmark's own process does.  Without ``PERFBENCH_SPAN_DIR`` this file
does nothing.
"""

import os

if os.environ.get("PERFBENCH_SPAN_DIR"):
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.Hooks(spans.Recorder(os.environ["PERFBENCH_SPAN_DIR"])).install()
