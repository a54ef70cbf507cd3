"""One fresh process of the benchmark: set up, run one pass, or describe the machine.

    child.py setup WORKLOAD INPUTS
        import newsmkl, get the workload's inputs ready, print the monotonic
        clock at that moment as JSON;
    child.py run WORKLOAD INPUTS OUT RECORD [--trace]
        run one pass, writing the program's artifacts to OUT and the pass
        record (set-up and finish times, outcomes, spans when traced) to RECORD;
    child.py env
        print the environment record as JSON.

The harness starts it with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from probe import Probe


def _setup(workload, inputs: Path) -> None:
    Probe(timing=False).install()  # the same imports and wrappers as a pass
    workload.setup(inputs)
    print(json.dumps({"ready": time.monotonic()}))


def _run(workload, inputs: Path, out: Path, record_path: Path, trace: bool) -> int:
    probe = Probe(timing=trace)
    probe.install()
    rc, state = workload.run(inputs, out)
    done = time.monotonic()
    probe.uninstall()  # after_run's own library calls are not part of the pass
    record = probe.record()
    record.update(rc=rc, done=done, ready=state.get("ready", probe.ready),
                  after_run=workload.after_run(state) if rc == 0 else {})
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


def _env() -> None:
    import numpy
    from newsmkl import _smo

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = l3 = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            l3 = fh.read().strip()
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    print(json.dumps({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "smo_engine": _smo.active_engine(),
        "numba_installed": has_numba,
    }))


def main(argv: list[str]) -> int:
    if argv[0] == "env":
        _env()
        return 0
    from workloads import WORKLOADS

    workload = WORKLOADS[argv[1]]
    inputs = Path(argv[2])
    if argv[0] == "setup":
        _setup(workload, inputs)
        return 0
    return _run(workload, inputs, Path(argv[3]), Path(argv[4]), trace="--trace" in argv[5:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
