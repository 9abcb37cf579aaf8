"""etkit benchmark: one seeded closed-loop workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``etkit`` is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A line before it gives the human-readable summary,
including ``failed_frac``, the tail percentile with its sample count,
and the raw wall-clock item times beside the reported ones, which are
scaled to a reference machine speed (see ``refclock.py``).

Set-up time is measured here, in fresh interpreters; the workload itself
runs in a child process (``worker.py``) whose thread pools are pinned to
one thread, so the single client is the only busy thread.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SPAWNS = 15
IMPORTTIME_SPAWNS = 5
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(env: dict) -> float:
    """Median wall time from spawning an interpreter to ``import etkit``
    complete (the interpreter exits right after).  Not scaled to the
    reference speed: a spawn's time does not follow the probe's."""
    times = []
    for _ in range(SETUP_SPAWNS):
        # no timeout: with one, wait() polls in steps of up to 50 ms
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import etkit"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_times(env: dict) -> dict:
    """Medians from ``python -X importtime``: numpy's cumulative import
    time, and the self time of etkit's own modules."""
    numpy_s, etkit_s = [], []
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import etkit"],
                              cwd=ROOT, env=env, check=True, timeout=60,
                              capture_output=True, text=True)
        own, np_cum = 0, 0
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if not m:
                continue
            self_us, cum_us, _, name = m.groups()
            if name == "numpy":
                np_cum = int(cum_us)
            if name == "etkit" or name.startswith("etkit."):
                own += int(self_us)
        numpy_s.append(np_cum / 1e6)
        etkit_s.append(own / 1e6)
    return {"setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_etkit_self_s": statistics.median(etkit_s)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "etkit" / "__init__.py").is_file():
        print("error: src/etkit not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = import_times(env) if args.trace else {"setup_s": setup_seconds(env)}
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = dict(res["metrics"], **setup)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": res["rounds"], "failed_frac": res["failed"] / res["attempted"],
        "errors": res["errors"],
    }
    if not args.trace:
        summary.update({k: v for k, v in raw.items()
                        if k.startswith(("raw.", "tail_"))})
    print(json.dumps(summary))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
