"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOBS.json [--trace]``

Imports ``kummer`` from the checkout's ``src``, reads the ops that
``run.py`` wrote to ``JOBS.json``, and runs them one at a time: ``kummer``
command lines through ``kummer.cli.main`` in this process, library calls
directly.  Writes one JSON object per line to stdout:

* ``{"ready": t}`` -- ``time.monotonic()`` just before the first op, so the
  parent can time set-up from the moment it spawned this process;
* ``{"op": i, "s": ..., "summary": ..., "error": ...}`` per op, as it ends;
* ``{"pass_s": ..., "ref_s": [...], "maxrss_kb": ..., "layers": ...}`` at the
  end: ``pass_s`` sums the ops' wall times, ``ref_s`` lists the times of
  the reference loop (see ``reference.py``) run while the ops ran, and
  ``layers`` holds the per-layer metrics when ``--trace`` is given.

The process pins itself to one CPU first.  While the ops run, a timer signal
runs the short reference loop every ``REF_PERIOD_S`` of wall time, on the
same CPU, so the loop samples the CPU's speed throughout the pass; the time
the loops take is left out of the op times.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import kummer  # noqa: E402  (needs the path above)
import kummer.cli  # noqa: E402

import reference  # noqa: E402
from workloads import summarize  # noqa: E402

REF_PERIOD_S = 0.1  # wall time between reference loops while the ops run
REF_WARMUP = 5  # untimed loops before the first op


class SpeedProbe:
    """Times the reference loop from a timer signal while the ops run.

    ``times`` lists the loop times; ``spent`` adds them up, for the caller
    to leave out of the op times.  The garbage collector is off during a
    loop, so the loop's time does not grow with the program's heap.
    """

    def __init__(self):
        self.times = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference.reference_once()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.times.append(dt)
        self.spent += dt

    def __enter__(self):
        reference.sample(REF_WARMUP)
        self._tick(None, None)  # one sample even if the ops end at once
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_library(op: dict) -> dict:
    group = kummer.groupcore.generate_group(op["matrices"], d=op["d"])
    call = op["call"]
    if call == "torsion_oracle":
        return {"total": sum(kummer.toruslat.torsion_oracle(group, op["n"]).values())}
    if call == "orbifold_euler":
        return {"euler": kummer.toruslat.orbifold_euler(group)}
    if call == "subgroup_class_poset":
        return {"classes": len(kummer.groupcore.subgroup_class_poset(group))}
    if call == "quotient_poincare":
        return {"quotient": list(kummer.repring.quotient_poincare(group).coeffs)}
    raise ValueError(f"unknown library call {call!r}")


def run_cli(op: dict):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kummer.cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    if not out.getvalue():
        raise RuntimeError(f"exit {code}, no report: {err.getvalue().strip()}")
    return summarize(op, code, json.loads(out.getvalue()))


def run_op(op: dict):
    """(summary, error): the op's summary, or why it produced none."""
    try:
        if op["kind"] == "library":
            return run_library(op), None
        return run_cli(op), None
    except Exception:  # one op's failure must not end the pass
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def emit(stream, record):
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def main(argv) -> int:
    jobs_path = argv[0]
    ops = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    tracer = None
    if "--trace" in argv:
        from layertrace import Tracer

        tracer = Tracer().install()
    stream = sys.stdout
    emit(stream, {"ready": time.monotonic()})
    pass_s = 0.0
    with SpeedProbe() as probe:
        for i, op in enumerate(ops):
            t0, spent0 = time.perf_counter(), probe.spent
            summary, error = run_op(op)
            op_s = time.perf_counter() - t0 - (probe.spent - spent0)
            pass_s += op_s
            emit(stream, {"op": i, "s": op_s, "summary": summary, "error": error})
    emit(stream, {
        "pass_s": pass_s,
        "ref_s": probe.times,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
