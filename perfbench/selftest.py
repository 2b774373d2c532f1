"""Self-test of the benchmark harness at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, passes its output
checks and emits exactly the metrics ``BENCHMARK.json`` names, with
their units; that a copy of the benchmark and the library with a
corrupted recorded digest exits nonzero; and that a copy of the
benchmark without the library sources exits nonzero without printing a
result.  Scratch files go to ``perfbench/out/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _run(*extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "0", "--seconds", "1", "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def _copy(name, with_sources):
    """Copy ``BENCHMARK.json`` and this directory, and optionally the
    library sources, to ``out/<name>``; return the copy's root."""
    dest = OUT / name
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src" / "etmass", dest / "src" / "etmass", ignore=skip)
    return dest


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            proc = _run("--workload", w, "--trace", str(trace))
            label = f"{w} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"]:
                problems.append(f"{label}: bad result {res}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want[trace])}")
            if any(not isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
            print(f"ok  {label}", flush=True)

    # a copy of the benchmark and the library whose recorded digest is wrong
    copy = _copy("corrupt", with_sources=True)
    digests_file = copy / "perfbench" / "digests.json"
    digests = json.loads(digests_file.read_text())
    digests["tiny"]["quartic-2adic"] = digests["tiny"]["quartic-2adic"][::-1]
    digests_file.write_text(json.dumps(digests))
    proc = _run("--workload", "quartic-2adic", cwd=copy, script=copy / "perfbench" / "run.py")
    res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode == 0 or res.get("correct") is not False:
        problems.append(f"corrupted digest: exit {proc.returncode}, result {res}")
    else:
        print("ok  corrupted digest exits nonzero", flush=True)
    shutil.rmtree(copy)

    # a copy of the benchmark alone, without the library sources
    bare = _copy("bare", with_sources=False)
    proc = _run("--workload", "quartic-2adic", cwd=bare, script=bare / "perfbench" / "run.py")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    else:
        print("ok  without sources exits nonzero, no result", flush=True)
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
