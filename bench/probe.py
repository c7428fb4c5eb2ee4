"""Cold-start probe for ``setup_s``, started by run.py in a fresh interpreter.

Reads one pickled ``(function, args, kwargs)`` call from stdin (written by
run.py), makes it, and prints the system-wide monotonic clock, so the parent
can time interpreter start, ``mesq`` imports and first-call work together.
It inherits run.py's one-thread BLAS settings.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import importlib  # noqa: E402
import pickle  # noqa: E402
import time  # noqa: E402

func, args, kwargs = pickle.loads(sys.stdin.buffer.read())
module, name = func.split(".")
getattr(importlib.import_module(f"mesq.{module}"), name)(*args, **kwargs)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
