"""The etmass benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload quartic-2adic --seed 1 --seconds 15 --trace 0

Run from anywhere; the library is taken from ``src/`` next to this
directory.  Every measurement happens in a fresh interpreter started
from here (``worker.py``), so no workload inherits another's caches or
fields:

* ``--trace 0`` starts three set-up probes and one worker that repeats
  passes over the seeded inputs for ``--seconds``; ``setup_s`` is the
  fastest of the four set-up times, ``wall_s`` the median pass time
  rescaled to a reference speed (see ``_ref_pass_s``; the raw pass
  times are on the info line), and ``peak_rss_mb`` the worker's peak
  resident set.  The set-up, mostly imports, does not slow in step with
  the calibration kernel, so it is not rescaled.
* ``--trace 1`` starts an untraced and a traced worker, each for half
  of ``--seconds``, and reports the per-layer metrics per pass, plus
  ``trace.overhead_s`` (traced minus untraced median rescaled pass
  time).  The span table, by (name, parent), goes to
  ``perfbench/out/trace-<workload>-<seed>.json``.

Every output is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
1 when a check failed.  An earlier line records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (metric names only; imports no etmass code)

WORKLOADS = ("quartic-2adic", "density-local", "density-product", "check-oracle")
SETUP_PROBES = 3  # the measuring worker's own set-up is a fourth sample
RUN_LIMIT_S = 170  # every worker must end before this, counted from start
# The calibration kernel's time (``worker._calibrate``) on the reference
# machine, an Intel Xeon vCPU of a 2-vCPU virtual machine with Python
# 3.11, in its fast phases.
REF_CAL_S = 0.0063


def _commit():
    """The checkout's commit, when it is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "etmass").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _ref_pass_s(run):
    """Each pass's time rescaled to the reference speed: multiplied by
    ``REF_CAL_S`` over the median calibration taken during the pass."""
    return [sum(t) * REF_CAL_S / statistics.median(c) for t, c in zip(run["unit_s"], run["cal_s"])]


def _median_pass_s(run):
    return statistics.median(_ref_pass_s(run))


def _worker(args, mode, seconds, trace, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--size", args.size, "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next worker")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "etmass" / "__init__.py").is_file():
        print(f"error: no etmass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if args.trace:
            plain = _worker(args, "run", args.seconds / 2, 0, deadline)
            traced = _worker(args, "run", args.seconds / 2, 1, deadline)
            runs = [plain, traced]
            overhead = _median_pass_s(traced) - _median_pass_s(plain)
            metrics = tracer.layer_metrics(traced["trace"], len(traced["unit_s"]), overhead)
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(dict(traced["trace"], passes=len(traced["unit_s"])), indent=1))
        else:
            probes = [_worker(args, "setup", 0, 0, deadline) for _ in range(SETUP_PROBES)]
            run = _worker(args, "run", args.seconds, 0, deadline)
            runs = [run]
            metrics = {
                "wall_s": {"value": _median_pass_s(run), "unit": "s"},
                "setup_s": {"value": min(w["setup_s"] for w in probes + runs), "unit": "s"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for msg in r["errors"]:
            print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "pass_s": [[sum(p) for p in r["unit_s"]] for r in runs],
        "unit_s": [r["unit_s"] for r in runs],
        "ref_pass_s": [_ref_pass_s(r) for r in runs],
        "digest": runs[0]["digest"],
        "width_rel": runs[0]["width_rel"],
        "fail_ratio": failed / attempted,
        "env": dict(runs[0]["env"], commit=_commit(), src_sha256=_src_sha256()),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
