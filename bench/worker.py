"""One workload process: a closed loop of one client on one thread.

Run by ``run.py`` with the BLAS and OpenMP pools pinned to one thread.
Prints one JSON object on stdout: the end-to-end metrics, timed at the
reference speed of ``refclock``, or with ``--trace 1`` the per-layer
metrics of a traced pass plus the tracing overhead against an untraced
pass over the same rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)
from refclock import ReferenceClock  # noqa: E402
from tracing import Tracer  # noqa: E402

# Fixed per workload so that runs of any length compare the same order
# statistic.  Each is chosen so that a run of the length BENCHMARK.json
# sets leaves at least 10 samples beyond it at the machine's usual speed
# (the count is reported with each run), and so that it falls inside one
# group of strata of like cost rather than on the edge between two.
TAIL_PERCENTILE = {"ring-sweep": 99.0, "rigidity-scan": 95.0,
                   "equivalence": 94.0, "cli-session": 98.5}


class Loop:
    """Runs whole rounds until ``seconds`` of wall time are used, or a
    fixed number of rounds.  Only the etkit calls are timed; drawing
    inputs and checking outputs happen outside the per-item clock."""

    def __init__(self, workload, seed: int, tracer: Tracer | None = None,
                 clock: ReferenceClock | None = None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.clock = clock
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list = []
        self.rounds = 0

    def run_round(self, keep_digests: bool = False) -> None:
        for item in self.w.round(self.seed, self.rounds):
            if self.clock is not None:
                self.clock.tick()
            t = self.tracer
            if t is not None:
                t.item = len(self.latencies)
                t.enter("item")
            start = time.perf_counter()
            try:
                out = self.w.run(item)
                error = None
            except Exception as exc:  # an item that raises counts as failed
                out, error = None, exc
            lat = time.perf_counter() - start
            if t is not None:
                t.exit()
            self.latencies.append(lat)
            self.starts.append(start)
            if error is None:
                try:
                    if not self.w.check(item, out):
                        error = "output check failed"
                except Exception as exc:  # a malformed output fails its check
                    error = exc
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{item['stratum']}: {error!r}")
            elif keep_digests:
                self.digests.append(self.w.digest(out))
        self.rounds += 1

    def for_seconds(self, seconds: float) -> "Loop":
        # stop where the next round would end nearer past the deadline
        # than before it, so a run ends close to ``seconds``
        start = time.perf_counter()
        while True:
            self.run_round()
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / self.rounds >= seconds:
                if self.clock is not None:
                    self.clock.close()
                return self

    def for_rounds(self, rounds: int, keep_digests: bool = False) -> "Loop":
        while self.rounds < rounds:
            self.run_round(keep_digests)
        return self


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def latency_metrics(latencies: list[float], q: float) -> dict:
    lat = sorted(latencies)
    tail = percentile(lat, q)
    return {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": 1e3 * percentile(lat, 50.0),
        "item_tail_ms": 1e3 * tail,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
    }


def end_to_end(name: str, loop: Loop) -> dict:
    """Latency metrics at the reference speed, and the raw ones."""
    q = TAIL_PERCENTILE[name]
    scaled = [loop.clock.scale(s, x) for s, x in zip(loop.starts, loop.latencies)]
    out = latency_metrics(scaled, q)
    out.update({f"raw.{k}": v for k, v in latency_metrics(loop.latencies, q).items()
                if k != "tail_samples_beyond"})
    out["tail_percentile"] = q
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(tracer: Tracer, items: int) -> dict:
    s, n, c = tracer.self_s, tracer.calls, tracer.counts

    def per(value):
        return value / items

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "pairs.parse.self_s": per(s["pairs.parse"]),
        "pairs.normalize.self_s": per(s["pairs.normalize"]),
        "pairs.normalize.per_item": per(n["pairs.normalize"]),
        "pairs.theta_image.self_s": per(s["pairs.theta_image"]),
        "units.subgroup_invariants.calls": per(n["units.subgroup_invariants"]),
        "units.subgroup_invariants.self_s": per(s["units.subgroup_invariants"]),
        "cohomology.build_cohomology.per_item": per(n["cohomology.build_cohomology"]),
        "cohomology.build_cohomology.self_s": per(s["cohomology.build_cohomology"]),
        "cohomology.product.calls": per(n["cohomology.product"]),
        "cohomology.product.hit_ratio": ratio(c["cohomology.product.hits"],
                                              n["cohomology.product"]),
        "cohomology.gram.self_s": per(s["cohomology.gram"]),
        "cohomology.is_demuskin.self_s": per(s["cohomology.is_demuskin"]),
        "cohomology.log_level_direct.self_s": per(s["cohomology.log_level_direct"]),
        "rigidity.scan.self_s": per(s["rigidity.scan"]),
        "rigidity.scan.per_map": ratio(c["rigidity.scan.scans"], len(tracer.maps)),
        "rigidity.scan.pairs_tested": per(c["rigidity.scan.pairs_tested"]),
        "rigidity.find_equivalence.calls": per(n["rigidity.find_equivalence"]),
        "rigidity.find_equivalence.self_s": per(s["rigidity.find_equivalence"]),
        "rigidity.find_equivalence.search_space":
            per(c["rigidity.find_equivalence.search_space"]),
        "fplinear.rref.calls": per(n["fplinear.rref"]),
        "fplinear.rref.self_s": per(s["fplinear.rref"]),
        "fplinear.rref.cells": per(c["fplinear.rref.cells"]),
        "field_models.symbol_vector.calls": per(n["field_models.symbol_vector"]),
        "field_models.symbol_vector.self_s": per(s["field_models.symbol_vector"]),
        "field_models.symbol_vector.precision_exhausted":
            per(c["field_models.symbol_vector.precision_exhausted"]),
        "field_models.class_of.calls": per(n["field_models.class_of"]),
        "field_models.trichotomic_search.searched":
            per(c["field_models.trichotomic_search.searched"]),
        "field_models.is_totally_rigid_bounded.decided_ratio":
            ratio(c["field_models.is_totally_rigid_bounded.decided"],
                  c["field_models.is_totally_rigid_bounded.total"]),
        "field_models.check_pairing_match.self_s":
            per(s["field_models.check_pairing_match"]),
        "laurent.LaurentRing.calls": per(n["laurent.LaurentRing"]),
        "laurent.LaurentRing.self_s": per(s["laurent.LaurentRing"]),
        "smallfields.gf.calls": per(n["smallfields.gf"]),
        "smallfields.GF.mul.calls": per(n["smallfields.GF.mul"]),
        "cocycles.h2_dim.self_s": per(s["cocycles.h2_dim"]),
        "cocycles.H2Space.self_s": per(s["cocycles.H2Space"]),
        "cocycles.cup_h1_h1.self_s": per(s["cocycles.cup_h1_h1"]),
        "cocycles.extension_class.self_s": per(s["cocycles.extension_class"]),
        "cocycles.h2.cells": per(c["cocycles.h2.cells"]),
        "cli.main.calls": per(n["cli.main"]),
        "cli.main.self_s": per(s["cli.main"]),
        "trace.item_s": per(sum(s.values())),
    }


def traced_run(workload, seed: int, seconds: float, out_dir: Path):
    """Each round runs twice, traced and untraced, in alternating order so
    that warm-up and drift fall on both sides; returns (traced loop,
    untraced loop, tracer)."""
    tracer = Tracer()
    traced = Loop(workload, seed, tracer)
    plain = Loop(workload, seed)

    def traced_round():
        tracer.install()
        try:
            traced.run_round()
        finally:
            tracer.restore()

    start = time.perf_counter()
    while True:
        first, second = ((traced_round, plain.run_round) if traced.rounds % 2 == 0
                         else (plain.run_round, traced_round))
        first()
        second()
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / traced.rounds >= seconds:
            break
    tracer.write(out_dir / f"spans-{workload.name}-{seed}.tsv.gz")
    return traced, plain, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    if args.trace:
        traced, plain, tracer = traced_run(w, args.seed, args.seconds,
                                           ROOT / "bench" / ".out")
        metrics = per_layer(tracer, len(traced.latencies))
        speed_traced = len(traced.latencies) / sum(traced.latencies)
        speed_plain = len(plain.latencies) / sum(plain.latencies)
        metrics["trace.overhead"] = 1.0 - speed_traced / speed_plain
        loops = (traced, plain)
    else:
        loop = Loop(w, args.seed, clock=ReferenceClock()).for_seconds(args.seconds)
        metrics = end_to_end(w.name, loop)
        loops = (loop,)
    result = {
        "attempted": sum(len(lp.latencies) for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "rounds": loops[0].rounds,
        "errors": [e for lp in loops for e in lp.errors][:5],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
