"""Set-up of one workload in a fresh process, as a command-line run pays it.

Imports plasthom, builds the first input set of ``<workload>`` for ``<seed>`` and
prints ``ready``.  ``run.py`` times this process from its launch to that
line to measure ``setup_s``:

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

from checkout import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's plasthom on sys.path)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print("ready", flush=True)
