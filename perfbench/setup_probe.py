"""One set-up of a workload in a fresh interpreter, for the setup_s metric.

    python3 setup_probe.py SRC (--preset NAME | --config FILE) [--sweep FILE]

Imports xlma from SRC, loads the workload's scenario document(s) (one per
sweep value) and validates each with ``xlma.scenario.load_scenario``, then
prints ``time.monotonic()``. The parent subtracts the monotonic time it took
just before starting this process.
"""

import json
import sys
import time


def main(argv):
    src, kind, source = argv[:3]
    sys.path.insert(0, src)
    from xlma.presets import PRESETS
    from xlma.scenario import load_scenario

    if kind == "--preset":
        doc = PRESETS[source]()
    else:
        with open(source) as fh:
            doc = json.load(fh)
    docs = [doc]
    if argv[3:5] and argv[3] == "--sweep":
        with open(argv[4]) as fh:
            spec = json.load(fh)
        docs = [dict(doc, **{spec["parameter"]: value}) for value in spec["values"]]
    for d in docs:
        load_scenario(d)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
