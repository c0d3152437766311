"""The four workloads: inputs from a seed, one op, and the checks of its outputs.

A workload is built once per setup repetition from ``(hcs, seed, tmp)``:
``hcs`` holds freshly imported hcskit modules, ``seed`` the workload seed,
``tmp`` this run's scratch directory.  ``op()`` is the timed cycle of work,
``check(out)`` compares its outputs with expectations computed apart from
the program, and ``work`` is the units of work one op does.  A workload may
give ``traced_op(tracer)`` where the traced run times finer steps than the
op, and ``count(tracer, out)`` for counts read off the op's outputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    allocator_script,
    check_audit,
    check_c2_runs,
    check_claims,
    check_ser_point,
    count_rosters,
    hit_slots,
)

# units of multiplicative order 4 modulo 16 and of order 16 modulo 64
ORDER4_MOD16 = (3, 5, 11, 13)
ORDER16_MOD64 = (3, 5, 11, 13, 19, 21, 27, 29, 35, 37, 43, 45, 51, 53, 59, 61)

# permutation-table rosters on a 240-slot frame (largest demand 12, 2880 frames)
C1_SATURATED = ((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (12, 10))
C1_PARTIAL = ((1, 12), (2, 6), (3, 4), (4, 6), (6, 4), (12, 8))


def _load(levels) -> int:
    return sum(r * u for r, u in levels)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _pick(rng: np.random.Generator, values):
    return values[int(rng.integers(len(values)))]


class BuildVerify:
    """construct1 / construct2 then verify, in memory, over four rosters."""

    def __init__(self, hcs, seed: int, tmp: Path):
        self.hcs = hcs
        rng = np.random.default_rng(seed)
        # (kind, t, levels, construction arguments, runs' slot visits or None)
        self.rosters = [
            ("c2", 16, ((1, 2), (2, 3), (4, 2)), {"n": 7, "g": _pick(rng, ORDER4_MOD16)}, 4**7),
            ("c2", 64, ((1, 4), (2, 6), (4, 3), (8, 1)), {"n": 2, "g": _pick(rng, ORDER16_MOD64)}, 16**2),
            ("c1", 240, C1_SATURATED, {"seed": _seed(rng)}, None),
            ("c1", 240, C1_PARTIAL, {"seed": _seed(rng)}, None),
        ]
        # a c1 set has t * R frames (R the largest demand), a c2 set d^n * t
        self.work = sum(
            (t * levels[-1][0] if kind == "c1" else visits * t) * _load(levels)
            for kind, t, levels, _, visits in self.rosters
        )

    def op(self):
        hcs = self.hcs
        out = []
        for kind, t, levels, kw, _ in self.rosters:
            if kind == "c1":
                cfg = hcs.core.SystemConfig(t=t, levels=levels, seed=kw["seed"])
                hcs_set = hcs.construction1.construct1(cfg)
            else:
                cfg = hcs.core.SystemConfig(t=t, levels=levels)
                hcs_set = hcs.construction2.construct2(cfg, n=kw["n"], g=kw["g"])
            out.append((hcs_set, hcs.verification.verify(hcs_set)))
        return out

    def check(self, out) -> None:
        for (kind, t, levels, _, visits), (hcs_set, report) in zip(self.rosters, out):
            if not report.passed:
                raise CheckFailed(f"{kind} t={t}: verify failed")
            tables = [s.frames for s in hcs_set.sequences]
            if len(tables) != sum(u for _, u in levels):
                raise CheckFailed(f"{kind} t={t}: {len(tables)} sequences")
            check_claims(t, tables, saturated=_load(levels) == t)
            if visits is not None:
                check_c2_runs(t, tables, visits)


class CliPipeline:
    """``hcs pipeline`` on a plan that writes, verifies and traces set files."""

    GEN1 = ("120", "1:6,2:6,3:4,6:13")  # 720 frames, load 108
    GEN2 = ("64", "1:2,2:3,4:1,8:1")  # 16384 frames, load 20
    ENUMERATE = (48, (1, 2, 3, 6))

    def __init__(self, hcs, seed: int, tmp: Path):
        self.hcs = hcs
        rng = np.random.default_rng(seed)
        out = tmp / "pipeline"
        self.out = out
        self.set1, self.set2 = out / "set1.json", out / "set2.json"
        script = tmp / "script.json"
        levels1, levels2 = (
            [tuple(int(x) for x in p.split(":")) for p in levels.split(",")]
            for _, levels in (self.GEN1, self.GEN2)
        )
        seq_levels = [i for i, (_, u) in enumerate(levels1) for _ in range(u)]
        events, _, _, _ = allocator_script(
            rng, seq_levels, tuple(r for r, _ in levels1), cycles=2, burst=12, quiet=40
        )
        t_enum, r_enum = self.ENUMERATE
        self.stages = [
            ["gen1", "--t", self.GEN1[0], "--levels", self.GEN1[1], "--seed", str(_seed(rng)),
             "--out", str(self.set1)],
            ["gen2", "--t", self.GEN2[0], "--levels", self.GEN2[1], "--rounds", "2",
             "--g", str(_pick(rng, ORDER16_MOD64)), "--out", str(self.set2)],
            ["verify", str(self.set1), "--out", str(out / "set1.report.json")],
            ["verify", str(self.set2), "--out", str(out / "set2.report.json")],
            ["bound", "--t", self.GEN1[0], "--levels", self.GEN1[1], "--out", str(out / "bound.json")],
            ["enumerate", "--t", str(t_enum), "--r", ",".join(map(str, r_enum)),
             "--out", str(out / "lattice.csv")],
            ["sac-trace", "--set", str(self.set1), "--script", str(script),
             "--out", str(out / "trace.json")],
        ]
        out.mkdir(parents=True, exist_ok=True)
        script.write_text(json.dumps(events), encoding="utf-8")
        self.plan = tmp / "plan.json"
        self.plan.write_text(json.dumps({"stages": self.stages}), encoding="utf-8")
        self.rosters = count_rosters(t_enum, r_enum)
        # claims written by gen1 and gen2, read back by both verifies and sac-trace;
        # c1 sets have t * R frames, this c2 set (d = 16, n = 2) 16^2 * t
        claims1 = int(self.GEN1[0]) * levels1[-1][0] * _load(levels1)
        claims2 = 16**2 * int(self.GEN2[0]) * _load(levels2)
        self.work = 3 * claims1 + 2 * claims2
        self.digests: dict[str, str] | None = None
        self._sink = io.StringIO()

    def _quiet(self):
        self._sink.seek(0)
        self._sink.truncate()
        return contextlib.redirect_stdout(self._sink)

    def op(self):
        with self._quiet():
            code = self.hcs.cli.dispatch(["pipeline", str(self.plan)])
        if code:
            raise RuntimeError(f"pipeline exited {code}")
        return code

    def traced_op(self, tracer):
        with self._quiet():
            for stage in self.stages:
                with tracer.span(f"cli.stage.{stage[0]}"):
                    code = self.hcs.cli.dispatch(stage)
                if code:
                    raise RuntimeError(f"{stage[0]} exited {code}")
                if stage[0] in ("gen1", "gen2"):
                    tracer.count("core.set_file_bytes", Path(stage[-1]).stat().st_size)
        return code

    def count(self, tracer, code) -> None:
        """Output sizes, then a library round trip of the gen2 set.

        The CLI writes sets inline rather than through ``save_set``, so the
        traced run also saves a loaded copy, as a unit of its own after the op.
        """
        tracer.count("cli.output_bytes", sum(p.stat().st_size for p in self.out.iterdir()))
        core = self.hcs.core
        copy = self.out.parent / "set2.copy.json"
        unit, tracer.unit = tracer.unit, f"{tracer.unit}.library"
        try:
            core.save_set(core.load_set(self.set2), copy)
        finally:
            tracer.unit = unit
        if copy.read_bytes() != self.set2.read_bytes():
            raise CheckFailed("save_set of a loaded set differs from the gen2 output")

    def check(self, code) -> None:
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.out.iterdir())
            if not p.name.endswith(".manifest.json")
        }
        if self.digests is not None:
            if digests != self.digests:
                raise CheckFailed("a rerun wrote different bytes")
            return
        for path in (self.set1, self.set2):
            doc = json.loads(path.read_text(encoding="utf-8"))
            tables = [np.array(s["frames"], dtype=np.int64) for s in doc["sequences"]]
            load = sum(lv["r"] * lv["u"] for lv in doc["levels"])
            check_claims(doc["t"], tables, saturated=load == doc["t"])
        rows = (self.out / "lattice.csv").read_text(encoding="utf-8").count("\n") - 1
        if rows != self.rosters:
            raise CheckFailed(f"enumerate wrote {rows} rosters, expected {self.rosters}")
        trace = json.loads((self.out / "trace.json").read_text(encoding="utf-8"))
        if trace["collision_count"] != 0:
            raise CheckFailed(f"sac-trace reports {trace['collision_count']} collisions")
        self.digests = digests


class AllocatorReplay:
    """run_script on a permutation-table set with a churn/quiet script."""

    CYCLES, BURST, QUIET = 8, 40, 360

    def __init__(self, hcs, seed: int, tmp: Path):
        self.hcs = hcs
        rng = np.random.default_rng(seed)
        cfg = hcs.core.SystemConfig(t=240, levels=C1_SATURATED, seed=_seed(rng))
        self.set = hcs.construction1.construct1(cfg)
        self.t = 240
        seq_levels = [i for i, (_, u) in enumerate(C1_SATURATED) for _ in range(u)]
        demands = tuple(r for r, _ in C1_SATURATED)
        self.script, self.shadow, self.work, phases = allocator_script(
            rng, seq_levels, demands, self.CYCLES, self.BURST, self.QUIET
        )
        self.phase_of = [kind for start, end, kind in phases for _ in range(start, end)]

    def op(self):
        return self.hcs.sac.run_script(self.set, self.script)

    def traced_op(self, tracer):
        """run_script with its audit time split by the phase of each frame.

        A frame's time runs from its first slot lookup to the next frame's
        first one, so it holds that frame's audit and the next frame's events.
        """
        cls = self.hcs.sac.SacState
        lookup = cls.slots_for
        phase_of = self.phase_of
        clock = {"frame": None, "since": 0.0}

        def close(now):
            frame = clock["frame"]
            if frame is not None:
                tracer.count(f"sac.run_script_s.{phase_of[frame]}", now - clock["since"])

        def slots_for(state, user, frame):
            if frame != clock["frame"]:
                now = time.perf_counter()
                close(now)
                clock["frame"], clock["since"] = frame, now
            return lookup(state, user, frame)

        cls.slots_for = slots_for
        try:
            out = self.op()
            close(time.perf_counter())
        finally:
            cls.slots_for = lookup
        return out

    def count(self, tracer, out) -> None:
        state, audit, _ = out
        depth = [0] * len(C1_SATURATED)
        deepest = 0
        queued_at: dict[str, int] = {}
        waits = []
        for event in state.events:
            if event.kind == "queued":
                depth[event.level] += 1
                deepest = max(deepest, depth[event.level])
                queued_at[event.user] = event.frame
            elif event.kind == "granted-from-queue":
                depth[event.level] -= 1
                waits.append(event.frame - queued_at.pop(event.user))
        tracer.count("sac.events", len(state.events))
        tracer.count("sac.audit_rows", len(audit))
        tracer.count("sac.queued", len(waits) + len(queued_at))
        tracer.count("sac.max_queue_depth", deepest)
        tracer.count("sac.mean_queue_wait_frames", statistics.fmean(waits) if waits else 0.0)

    def check(self, out) -> None:
        state, audit, collisions = out
        shadow = self.shadow
        if collisions:
            raise CheckFailed(f"{len(collisions)} collisions, first {collisions[0]}")
        check_audit(self.t, audit)
        if len(audit) != self.work:
            raise CheckFailed(f"{len(audit)} audit rows, shadow expects {self.work}")
        held = {user: a.sequence for user, a in state.assignments.items()}
        if held != {user: sid for user, (_, sid) in shadow.holders.items()}:
            raise CheckFailed("final assignments differ from the shadow allocator")
        grants = [(e.frame, e.user, e.sequence) for e in state.events if e.kind == "granted-from-queue"]
        if grants != shadow.grants:
            raise CheckFailed("grants from the queues differ from the shadow allocator")
        if sum(e.kind == "queued" for e in state.events) != shadow.queued:
            raise CheckFailed("queued requests differ from the shadow allocator")


class SerSweep:
    """compare_schemes, fixed slots against a c2 hopping user, two interferers."""

    T, LEVELS, ROUNDS = 16, ((1, 2), (2, 3), (4, 2)), 3  # 1024 frames
    FIXED = (0, 4, 8, 12)
    SCENARIOS = (((4,), 10.0), ((4, 8, 13), 15.0))
    SNR_DB = (0.0, 3.0, 6.0, 9.0)
    FRAMES, SYMBOLS_PER_SLOT = 9_000, 32

    def __init__(self, hcs, seed: int, tmp: Path):
        self.hcs = hcs
        rng = np.random.default_rng(seed)
        cfg = hcs.core.SystemConfig(t=self.T, levels=self.LEVELS)
        self.set = hcs.construction2.construct2(cfg, n=self.ROUNDS, g=_pick(rng, ORDER4_MOD16))
        self.user = int(rng.integers(self.LEVELS[-1][1]))
        self.sim_seed = _seed(rng)
        table = self.set.sequence(len(self.LEVELS) - 1, self.user).frames
        spl = self.SYMBOLS_PER_SLOT
        self.total = self.FRAMES * len(self.FIXED) * spl
        # interfered symbols per scenario: (fixed scheme, hopping scheme)
        self.n_hit = [
            (self.FRAMES * len(set(self.FIXED) & set(slots)) * spl,
             hit_slots(table, self.FRAMES, slots) * spl)
            for slots, _ in self.SCENARIOS
        ]
        self.work = len(self.SCENARIOS) * 2 * len(self.SNR_DB) * self.total
        self.first = None

    def op(self):
        sim = self.hcs.simulator
        fixed = sim.FixedScheme(self.FIXED)
        hopping = sim.HcsScheme(self.set, level=len(self.LEVELS) - 1, user=self.user)
        reports = []
        for slots, power in self.SCENARIOS:
            common = dict(
                t=self.T, snr_db=self.SNR_DB, interference_slots=slots,
                interference_power_db=power, symbols_per_slot=self.SYMBOLS_PER_SLOT,
                frames=self.FRAMES, seed=self.sim_seed,
            )
            reports.append(sim.compare_schemes(
                sim.SimConfig(scheme=fixed, **common), sim.SimConfig(scheme=hopping, **common)
            ))
        return reports

    def check(self, out) -> None:
        errors = []
        for report, (_, power), (hit_a, hit_b) in zip(out, self.SCENARIOS, self.n_hit):
            for row in report.rows:
                for ser, n_hit in ((row.ser_a, hit_a), (row.ser_b, hit_b)):
                    count = round(ser * self.total)
                    if not math.isclose(count / self.total, ser, rel_tol=0, abs_tol=1e-15):
                        raise CheckFailed(f"SER {ser} is not a count over {self.total} symbols")
                    check_ser_point(count, self.total, n_hit, row.snr_db, power)
                    errors.append(count)
        if self.first is None:
            self.first = errors
        elif errors != self.first:
            raise CheckFailed("a rerun with the same seed drew different errors")


WORKLOADS = {
    "build-verify": BuildVerify,
    "cli-pipeline": CliPipeline,
    "allocator-replay": AllocatorReplay,
    "ser-sweep": SerSweep,
}
