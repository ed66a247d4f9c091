"""Cold-start probe, run in a fresh interpreter by run.py: import the CLI,
then build and validate the problem registry, under a host-speed probe
that uses no numpy.  Prints one JSON line."""

import json
import time

from speed import SpeedProbe

with SpeedProbe("python") as probe:
    t0 = time.perf_counter()
    import epflab.cli  # noqa: F401

    t1 = time.perf_counter()
    from epflab.problems import registry

    registry(validate=True)
    t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "registry_s": t2 - t1, "begin": t0, "end": t2,
                  "probe": probe.record()}))
