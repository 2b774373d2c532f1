"""One workload run in a fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py --mode run --workload quartic-2adic --seed 0 --seconds 15

``--mode setup`` times only the set-up (importing ``etmass.cli`` and
building the seeded inputs).  ``--mode run`` also repeats passes over
the inputs until ``--seconds`` have elapsed (at least one pass), checks
every output, and with ``--trace 1`` records spans around the library
calls.  The last line of standard output is one JSON object.

After every unit a fixed calibration kernel is timed, repeatedly for
long units, so that ``run.py`` can rescale each pass to a reference
speed: the machines this runs on share their cores, and their speed
drifts by tens of percent over seconds to minutes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
# Peak RSS is read after this many passes, not at the end: fields leak
# with every pass, so at the end it would count how many passes the
# machine's speed allowed.  Two passes still show growth across repeats.
RSS_PASSES = 2
# After a unit, the calibration kernel runs until it has taken this
# share of the unit's time, and at least once.
CAL_SHARE = 0.02


def _calibrate():
    """Time a fixed pure-Python kernel: Fraction arithmetic and a dict.

    The collector is off, so the heap the library leaves behind does
    not enter the time.
    """
    gc_on = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    s, d = Fraction(0), {}
    for i in range(1, 1500):
        s += Fraction(1, i * i)
        d[i % 97] = d.get(i % 97, 0) + i * i % 7
    c = time.perf_counter() - t
    if gc_on:
        gc.enable()
    return c


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # imports etmass.cli and the layer modules

    units = workloads.make_units(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - t0
    if not Path(workloads.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"etmass was imported from outside {ROOT / 'src'}")
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()

    errors = []
    attempted = failed = 0

    def fail(msg):
        nonlocal failed
        failed += 1
        if len(errors) < 10:
            errors.append(msg)

    first = None  # outputs of pass 0
    first_enc = None
    unit_s = []  # unit_s[k][i]: time of unit i in pass k
    cal_s = []  # cal_s[k]: the calibration times taken during pass k
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while not unit_s or time.perf_counter() < deadline:
        outs, times, cals = [], [], []
        for unit in units:
            attempted += 1
            t = time.perf_counter()
            try:
                outs.append(wl.run(unit))
            except Exception:  # a failed unit is counted, the run goes on
                fail(f"{unit}: {traceback.format_exc(limit=3)}")
                outs.append(None)
            times.append(time.perf_counter() - t)
            spent = 0.0
            while not spent or spent < CAL_SHARE * times[-1]:
                cals.append(_calibrate())
                spent += cals[-1]
        unit_s.append(times)
        cal_s.append(cals)
        if len(unit_s) == RSS_PASSES:
            peak_rss_mb = _peak_rss_mb()
        enc = [None if o is None else workloads.encode(o) for o in outs]
        if first is None:
            first, first_enc = outs, enc
        else:
            for unit, a, b in zip(units, first_enc, enc):
                if b is not None and a is not None and a != b:
                    fail(f"{unit}: output differs between passes")
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()
    trace = tracer.snapshot() if tracer else None

    # output checks, outside the timed passes
    for unit, out in zip(units, first):
        if out is None:
            continue
        msg = wl.check(unit, out)
        if msg:
            fail(f"{unit}: {msg}")
    for label, ok in wl.extra_checks(units, first):
        attempted += 1
        if not ok:
            fail(f"{label}: failed")
    digest = hashlib.sha256("\n".join(map(str, first_enc)).encode()).hexdigest()
    if args.seed == DEFAULT_SEED:
        attempted += 1
        recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text()).get(args.size, {}).get(args.workload)
        if recorded != digest:
            fail(f"digest {digest} != recorded {recorded}")
    width_rel = max(
        (float((o.coeff_hi - o.coeff_lo) / o.coeff_lo) for o in first if hasattr(o, "coeff_lo")),
        default=None,
    )

    from etmass import fplinalg

    print(json.dumps({
        "setup_s": setup_s,
        "unit_s": unit_s,
        "cal_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digest,
        "width_rel": width_rel,
        "trace": trace,
        "env": {
            "python": platform.python_version(),
            "fplinalg_backend": fplinalg.backend_name(),
            "nproc": os.cpu_count(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
