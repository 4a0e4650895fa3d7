"""Call tracer for the reachability sweep (see ``run.py`` beside it).

Copied into the ``src`` directory of a traced tree, it makes every
interpreter with that ``src`` on its path record the code objects it
calls: CLI children, ``repro-eval worker`` processes, perfbench phase
children and ``repro-serve``. It is inert unless ``TRACE_OUT`` names a
directory; each process then writes one ``<pid>-<n>.txt`` file of
``filename<TAB>first line<TAB>name`` rows there when it exits.
"""

import atexit
import os
import signal
import sys
import threading

if os.environ.get("TRACE_OUT"):
    seen = set()

    def prof(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        out = os.environ["TRACE_OUT"]
        name = f"{out}/{os.getpid()}-{len(os.listdir(out))}.txt"
        with open(name, "w") as fh:
            fh.writelines(
                f"{c.co_filename}\t{c.co_firstlineno}\t{c.co_name}\n"
                for c in list(seen)
                if "/repro/" in c.co_filename
            )

    real_exit = os._exit  # forked SpMU shares leave this way
    os._exit = lambda code: (dump(), real_exit(code))
    signal.signal(signal.SIGTERM, lambda n, f: (dump(), real_exit(143)))  # serve
    atexit.register(dump)
    sys.setprofile(prof)
    threading.setprofile(prof)
