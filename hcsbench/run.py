"""Benchmark of hcskit: one named workload per process, seeded inputs.

    python3 hcsbench/run.py --workload build-verify --seed 1 --seconds 20 --trace 0
    python3 hcsbench/run.py --workload ser-sweep --seed 1 --seconds 20 --repeat 10
    python3 hcsbench/run.py --compare A.json B.json
    python3 hcsbench/run.py --selftest

A run imports hcskit from ``src/`` of the checkout this file sits in, sets
its workload up several times, then repeats the workload's op for
``--seconds`` and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--repeat N`` runs N processes on seeds seed .. seed+N-1
and prints the median and quartiles of every end-to-end metric.  See
README.md next to this file.
"""
from __future__ import annotations

import os

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".hcsbench"
# set-ups per run: SETUP_BEFORE before the first op, the rest spread evenly
# over the timed span, so their median sees the same machine as the ops do
SETUP_REPS = 9
SETUP_BEFORE = 3
MIN_OPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> (module, attribute) of the public function it wraps
LAYER_FUNCTIONS = {
    "construction1.construct1": ("construction1", "construct1"),
    "construction2.construct2": ("construction2", "construct2"),
    "verification.verify": ("verification", "verify"),
    "core.to_document": ("core", "to_document"),
    "core.dumps_document": ("core", "dumps_document"),
    "core.save_set": ("core", "save_set"),
    "core.load_set": ("core", "load_set"),
    "core.from_document": ("core", "from_document"),
    "bound.enumerate": ("bound", "enumerate_user_counts"),
    "sac.init": ("sac", "init"),
    "sac.run_script": ("sac", "run_script"),
    "simulator.simulate_ser": ("simulator", "simulate_ser"),
}
MODULES = ("core", "bound", "construction1", "construction2", "verification", "sac",
           "simulator", "cli")
CLI_STAGES = ("gen1", "gen2", "verify", "bound", "enumerate", "sac-trace")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, ops: list[str]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as {name: (value, unit)}."""
    ms = tracer.median_ms
    count = tracer.median_count
    out = {
        "construction1.construct1_ms": (ms("construction1.construct1", ops), "ms"),
        "construction2.construct2_ms": (ms("construction2.construct2", ops), "ms"),
        "verification.verify_ms": (ms("verification.verify", ops), "ms"),
        "verification.claims_per_s": (_ratio(
            tracer.total_count("verification.claims", ops),
            tracer.total_ms("verification.verify", ops) / 1e3), "1/s"),
    }
    for name in ("to_document", "dumps_document", "save_set", "load_set", "from_document"):
        out[f"core.{name}_ms"] = (ms(f"core.{name}", ops), "ms")
    out["core.set_file_mb"] = (count("core.set_file_bytes", ops) / 1e6, "MB")
    out["bound.enumerate_ms"] = (ms("bound.enumerate", ops), "ms")
    out["bound.rosters"] = (count("bound.rosters", ops), "count")
    out["sac.init_ms"] = (ms("sac.init", ops), "ms")
    for phase in ("churn", "quiet"):
        out[f"sac.run_script_ms.{phase}"] = (count(f"sac.run_script_s.{phase}", ops) * 1e3, "ms")
    for name in ("events", "audit_rows", "queued", "max_queue_depth"):
        out[f"sac.{name}"] = (count(f"sac.{name}", ops), "count")
    out["sac.mean_queue_wait_frames"] = (count("sac.mean_queue_wait_frames", ops), "frames")
    out["simulator.frame_slots_ms"] = (ms("simulator.frame_slots", ops), "ms")
    out["simulator.simulate_ser_ms"] = (ms("simulator.simulate_ser", ops), "ms")
    out["simulator.symbols"] = (count("simulator.symbols", ops), "count")
    out["simulator.symbols_per_s"] = (_ratio(
        tracer.total_count("simulator.symbols", ops),
        tracer.total_ms("simulator.simulate_ser", ops) / 1e3), "1/s")
    for stage in CLI_STAGES:
        out[f"cli.stage_ms.{stage}"] = (ms(f"cli.stage.{stage}", ops), "ms")
    out["cli.output_mb"] = (count("cli.output_bytes", ops) / 1e6, "MB")
    return out


# ---------------------------------------------------------------------------
# one run


def fresh_import():
    """Import hcskit and its CLI anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hcskit" or n.startswith("hcskit.")]:
        del sys.modules[name]
    importlib.import_module("hcskit")
    return argparse.Namespace(
        **{name: importlib.import_module(f"hcskit.{name}") for name in MODULES}
    )


def instrument(tracer, hcs) -> None:
    """Wrap every binding of the layers' public functions in every hcskit module."""
    modules = [sys.modules["hcskit"]] + [getattr(hcs, name) for name in MODULES]
    counters = {
        "verification.verify": lambda tr, args, kw, res: tr.count(
            "verification.claims", args[0].length * args[0].config.load),
        "bound.enumerate": lambda tr, args, kw, res: tr.count("bound.rosters", len(res)),
        "simulator.simulate_ser": lambda tr, args, kw, res: tr.count(
            "simulator.symbols", sum(p.symbols_total for p in res.points)),
    }
    for span, (module, attr) in LAYER_FUNCTIONS.items():
        original = getattr(getattr(hcs, module), attr)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    tracer.wrap(mod, name, span, counters.get(span))
    for cls in (hcs.simulator.FixedScheme, hcs.simulator.HcsScheme):
        tracer.wrap(cls, "frame_slots", "simulator.frame_slots")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # numpy loads with these imports, so set-up times hcskit's import alone
    from checks import CheckFailed
    from spans import Tracer
    from workloads import WORKLOADS

    factory = WORKLOADS[workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    tracer = Tracer() if trace else None
    attempted = failed = 0
    correct = True
    setup: list[float] = []

    def set_up():
        gc.collect()
        start = time.perf_counter()
        hcs = fresh_import()
        if tracer:
            tracer.restore()
            tracer.unit = f"setup{len(setup)}"
            instrument(tracer, hcs)
        built = factory(hcs, seed, tmp)
        setup.append(time.perf_counter() - start)
        return built

    def set_up_again(elapsed: float) -> None:
        """A timed repeat of the set-up, once the run has reached its next slot.

        Its workload is dropped: the ops keep the one built before them.
        """
        slots = SETUP_REPS - SETUP_BEFORE + 1
        if len(setup) < SETUP_REPS and (
                elapsed >= (len(setup) - SETUP_BEFORE + 1) * seconds / slots):
            set_up()

    try:
        # a traced run sets up only before its ops: a later re-import would
        # leave the modules the ops use unwrapped
        for _ in range(SETUP_REPS if tracer else SETUP_BEFORE):
            wl = set_up()
        op = wl.traced_op if tracer and hasattr(wl, "traced_op") else None

        durations: list[float] = []
        ops: list[str] = []
        began = None
        while began is None or time.perf_counter() - began < seconds or len(durations) < MIN_OPS:
            unit = "warmup" if began is None else f"op{len(ops)}"
            if tracer:
                tracer.unit = unit
            out = None  # each op starts without the previous op's outputs alive
            gc.collect()
            attempted += 1
            start = time.perf_counter()
            try:
                out = op(tracer) if op else wl.op()
            except Exception as exc:  # a failed op is counted, and the run goes on
                failed += 1
                print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            if out is not None:
                try:
                    wl.check(out)
                    if tracer and hasattr(wl, "count"):
                        wl.count(tracer, out)
                except CheckFailed as exc:
                    correct = False
                    print(f"check failed: {exc}", file=sys.stderr)
            if began is None:
                began = time.perf_counter()
                continue
            durations.append(elapsed)
            ops.append(unit)
            set_up_again(time.perf_counter() - began)
        while len(setup) < SETUP_REPS:
            set_up()
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            (OUT / "tmp").rmdir()

    ms = sorted(d * 1e3 for d in durations)
    print(f"{workload}: {len(ms)} {'traced ' if tracer else ''}ops, ms min {ms[0]:.1f} "
          f"median {statistics.median(ms):.1f} max {ms[-1]:.1f}", flush=True)
    if tracer:
        tracer.write(OUT / "traces" / f"{workload}-seed{seed}-{os.getpid()}.json")
        metrics = per_layer(tracer, ops)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_ms.p50": (statistics.median(durations) * 1e3, "ms"),
            "work_per_s": (wl.work * len(durations) / sum(durations), "1/s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# repeatability


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def repeat(workload: str, seed: int, seconds: float, count: int) -> dict:
    runs = []
    for index in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed + index), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"run {index} exited {proc.returncode}: {proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed + index}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
    summary = {
        "workload": workload,
        "seeds": [seed, seed + count - 1],
        "seconds": seconds,
        "correct": all(r["correct"] for r in runs),
        "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
        "metrics": {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in END_TO_END
        },
    }
    target = OUT / "results" / f"{workload}-seed{seed}-n{count}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for name, s in summary["metrics"].items():
        print(f"{workload:17s} {name:12s} median {s['median']:.6g}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    print(f"wrote {target}")
    return summary


def compare(first: Path, second: Path) -> None:
    """Median shift and spreads of two repeat summaries of one workload."""
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (first, second))
    for name in END_TO_END:
        ma, mb = a["metrics"][name], b["metrics"][name]
        shift = (mb["median"] - ma["median"]) / ma["median"]
        print(f"{a['workload']:17s} {name:12s} shift {shift:+.4f}  "
              f"spreads {ma['spread']:.4f} {mb['spread']:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs, one process each")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="SUMMARY")
    parser.add_argument("--selftest", action="store_true", help="plant faults in the checkers")
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory and its child runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hcskit" / "__init__.py").is_file():
        print(f"no hcskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.compare:
        compare(*args.compare)
        return 0
    if args.selftest:
        from selftest import main as selftest
        return selftest()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.repeat:
        repeat(args.workload, args.seed, args.seconds, args.repeat)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
