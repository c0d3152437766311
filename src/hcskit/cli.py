"""Command-line front end.

Every generation, check, trace, and simulation step is exposed as a
subcommand that reads and writes plain files, echoes its parameters into a
run manifest next to each output, and uses recorded seeds so re-runs are
byte-identical on the primary outputs (manifests differ only in timestamp
and duration).

Exit codes: 0 success, 2 usage error, 3 invalid configuration or
parameters, 4 verification gate failed, 5 file or schema error.  Failures
print a single JSON object on stderr.

Usage examples:
    hcs gen1 --t 24 --levels 2:3,3:4,6:1 --seed 7 --out set1.json
    hcs gen2 --t 8 --levels 1:1,3:1,4:1 --rounds 2 --order-mode compat \
        --g 3 --d 4 --out set2.json
    hcs bound --t 24 --levels 2:3,3:4,6:1
    hcs enumerate --t 24 --r 1,2,6 --out lattice.csv
    hcs verify set1.json
    hcs sac-trace --set set1.json --script events.json --out trace.json
    hcs simulate --set set2.json --interference 2 --ipower-db 10 \
        --snr 0:14:1 --frames 20000 --out curve.csv
    hcs compare --set set2.json --fixed 0,2,4,5 --interference 2 \
        --ipower-db 10 --snr 0:14:1 --frames 20000 --out cmp.csv
    hcs pipeline demos/full-run.json
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, bound, construction1, construction2, sac, simulator, verification
from .core import (
    ConfigError,
    HcsError,
    SchemaError,
    SystemConfig,
    dumps_document,
    load_set,
    to_document,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4
EXIT_IO = 5


# ---------------------------------------------------------------------------
# argument helpers


def _parse_levels(text: str) -> tuple[tuple[int, int], ...]:
    """'2:3,3:4,6:1' -> ((2,3),(3,4),(6,1)) as (demand, users) pairs."""
    levels = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise argparse.ArgumentTypeError(
                f"level spec {part!r} must look like r:u (slots:users)"
            )
        try:
            levels.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"level spec {part!r} is not numeric")
    return tuple(levels)


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_snr(text: str) -> tuple[float, ...]:
    """Either 'start:stop:step' (stop inclusive) or a comma list of dB values."""
    try:
        if ":" in text:
            bits = text.split(":")
            if len(bits) != 3:
                raise ValueError
            start, stop, step = (float(b) for b in bits)
            if step <= 0 or stop < start:
                raise ValueError
            out = []
            value = start
            while value <= stop + 1e-9:
                out.append(round(value, 9))
                value += step
            return tuple(out)
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:step or a comma list of dB values, got {text!r}"
        )


def _draw_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    subcommand: str,
    params: dict,
    seeds: list[int],
    inputs: list[Path],
    outputs: list[Path],
    started: float,
) -> None:
    """One manifest next to the first output, digesting all inputs/outputs."""
    if not outputs:
        return
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "seeds": seeds,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "tool_version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    target = Path(str(outputs[0]) + ".manifest.json")
    target.write_text(dumps_document(manifest), encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Path):
            value = str(value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen1(args: argparse.Namespace) -> int:
    started = time.monotonic()
    seed = args.seed if args.seed is not None else _draw_seed()
    config = SystemConfig(t=args.t, levels=args.levels, seed=seed)
    drivers = None
    inputs = []
    if args.drivers:
        drivers = _load_drivers(Path(args.drivers))
        inputs.append(Path(args.drivers))
    hcs_set = construction1.construct1(config, drivers=drivers)
    out = Path(args.out)
    _write_text(out, dumps_document(to_document(hcs_set)))
    _write_manifest("gen1", _echo(args) | {"seed": seed}, [seed], inputs, [out], started)
    print(
        f"wrote {out}: length {hcs_set.length}, {hcs_set.config.num_users} sequences, "
        f"{hcs_set.t} slots"
    )
    return EXIT_OK


def _load_drivers(path: Path) -> construction1.DriverSequences:
    import numpy as np

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "selector" not in doc or "level_base" not in doc:
        raise SchemaError(f"{path}: driver file needs 'selector' and 'level_base' arrays")
    return construction1.DriverSequences(
        selector=np.asarray(doc["selector"], dtype=np.uint64),
        level_base=tuple(np.asarray(b, dtype=np.int64) for b in doc["level_base"]),
    )


def _cmd_gen2(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config = SystemConfig(t=args.t, levels=args.levels)
    mode = {"true": "true-order", "compat": "compat"}[args.order_mode]
    hcs_set = construction2.construct2(
        config, n=args.rounds, g=args.g, d=args.d, mode=mode
    )
    out = Path(args.out)
    _write_text(out, dumps_document(to_document(hcs_set)))
    _write_manifest("gen2", _echo(args), [], [], [out], started)
    params = hcs_set.provenance["params"]
    print(
        f"wrote {out}: length {hcs_set.length}, g={params['g']} d={params['d']} "
        f"n={params['n']} ({params['mode']})"
    )
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config = SystemConfig(t=args.t, levels=args.levels)
    report = bound.check_bound(config)
    text = dumps_document(report.to_dict())
    if args.out:
        out = Path(args.out)
        _write_text(out, text)
        _write_manifest("bound", _echo(args), [], [], [out], started)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    tuples = bound.enumerate_user_counts(args.t, args.r, cap=args.max_tuples)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"u_{i}" for i in range(len(args.r))] + ["load", "optimal"])
    for entry in tuples:
        writer.writerow(list(entry.counts) + [entry.load, int(entry.optimal)])
    if args.out:
        out = Path(args.out)
        _write_text(out, buf.getvalue())
        _write_manifest("enumerate", _echo(args), [], [], [out], started)
        print(f"wrote {out}: {len(tuples)} rosters")
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    hcs_set = load_set(args.set)
    report = verification.verify(hcs_set)
    doc = report.to_dict()
    if args.json:
        sys.stdout.write(dumps_document(doc))
    else:
        for name, check in report.gates():
            mark = "pass" if check.passed else "FAIL"
            print(f"{mark:4s}  {name}: {check.detail}")
        for warning in doc["warnings"]:
            print(f"note  {warning}")
        print(("PASS" if report.passed else "FAIL") + f"  {args.set}")
    if args.out:
        out = Path(args.out)
        _write_text(out, dumps_document(doc))
        _write_manifest("verify", _echo(args), [], [Path(args.set)], [out], started)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_sac_trace(args: argparse.Namespace) -> int:
    started = time.monotonic()
    hcs_set = load_set(args.set)
    script_path = Path(args.script)
    try:
        script = json.loads(script_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{script_path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(script, list):
        raise SchemaError(f"{script_path}: expected an array of events")
    state, audit, collisions = sac.run_script(
        hcs_set,
        script,
        alignment=args.alignment,
        sync_delay=args.sync_delay,
        assign_seed=args.assign_seed,
    )
    out = Path(args.out)
    trace = {
        "format_version": 1,
        "alignment": state.alignment,
        "policy": state.policy,
        "sync_delay": state.sync_delay,
        "events": [e.to_dict() for e in state.events],
        "collision_count": len(collisions),
    }
    _write_text(out, dumps_document(trace))
    audit_path = Path(args.audit) if args.audit else Path(str(out) + ".audit.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame", "slot", "user", "level", "sequence"])
    for row in audit:
        writer.writerow(row)
    _write_text(audit_path, buf.getvalue())
    _write_manifest(
        "sac-trace",
        _echo(args),
        [args.assign_seed] if args.assign_seed is not None else [],
        [Path(args.set), script_path],
        [out, audit_path],
        started,
    )
    print(
        f"wrote {out} and {audit_path}: {len(state.events)} events, "
        f"{len(collisions)} collisions"
    )
    return EXIT_OK


def _build_scheme(args: argparse.Namespace) -> tuple[simulator.Scheme, int, list[Path]]:
    inputs: list[Path] = []
    if args.set:
        hcs_set = load_set(args.set)
        inputs.append(Path(args.set))
        scheme = simulator.HcsScheme(hcs_set, level=args.level, user=args.user)
        t = args.t if args.t is not None else hcs_set.t
    else:
        if args.t is None:
            raise ConfigError("--t is required with --fixed")
        scheme = simulator.FixedScheme(args.fixed)
        t = args.t
    return scheme, t, inputs


def _curve_rows(curve: simulator.SerCurve) -> list[list]:
    return [
        [p.snr_db, repr(p.ser), p.symbols_total, p.symbols_error, curve.scheme, curve.scenario]
        for p in curve.points
    ]


def _cmd_simulate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    seed = args.seed if args.seed is not None else _draw_seed()
    scheme, t, inputs = _build_scheme(args)
    config = simulator.SimConfig(
        t=t,
        scheme=scheme,
        snr_db=args.snr,
        interference_slots=args.interference,
        interference_power_db=args.ipower_db,
        symbols_per_slot=args.symbols_per_slot,
        frames=args.frames,
        seed=seed,
    )
    curve = simulator.simulate_ser(config)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["snr_db", "ser", "symbols_total", "symbols_error", "scheme", "scenario"])
    for row in _curve_rows(curve):
        writer.writerow(row)
    out = Path(args.out)
    _write_text(out, buf.getvalue())
    _write_manifest("simulate", _echo(args) | {"seed": seed}, [seed], inputs, [out], started)
    print(f"wrote {out}: {len(curve.points)} SNR points, scheme {curve.scheme}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    started = time.monotonic()
    seed = args.seed if args.seed is not None else _draw_seed()
    hcs_set = load_set(args.set)
    hcs_scheme = simulator.HcsScheme(hcs_set, level=args.level, user=args.user)
    fixed_scheme = simulator.FixedScheme(args.fixed)
    t = args.t if args.t is not None else hcs_set.t
    common = dict(
        t=t,
        snr_db=args.snr,
        interference_slots=args.interference,
        interference_power_db=args.ipower_db,
        symbols_per_slot=args.symbols_per_slot,
        frames=args.frames,
        seed=seed,
    )
    report = simulator.compare_schemes(
        simulator.SimConfig(scheme=fixed_scheme, **common),
        simulator.SimConfig(scheme=hcs_scheme, **common),
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["snr_db", "ser_fixed", "ser_hcs", "delta", "sigma", "hcs_worse"])
    for row in report.rows:
        writer.writerow(
            [row.snr_db, repr(row.ser_a), repr(row.ser_b), repr(row.delta), repr(row.sigma), int(row.b_exceeds_a)]
        )
    out = Path(args.out)
    _write_text(out, buf.getvalue())
    _write_manifest(
        "compare", _echo(args) | {"seed": seed}, [seed], [Path(args.set)], [out], started
    )
    flagged = len(report.flagged)
    print(
        f"wrote {out}: max fixed-minus-hcs delta {report.max_delta:.6f}, "
        f"{flagged} flagged points"
    )
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    stages = doc.get("stages") if isinstance(doc, dict) else doc
    if not isinstance(stages, list) or any(
        not isinstance(s, list) or any(not isinstance(a, str) for a in s) for s in stages
    ):
        raise SchemaError(f"{path}: expected {{'stages': [[arg, ...], ...]}}")
    for number, stage in enumerate(stages):
        print(f"[stage {number}] " + " ".join(stage))
        code = dispatch(stage)
        if code != EXIT_OK:
            print(f"[stage {number}] failed with exit code {code}", file=sys.stderr)
            return code
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcs",
        description="Generate, check, trace, and simulate multi-level slot access sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen1", help="permutation-table construction")
    p.add_argument("--t", type=int, required=True, help="slots per frame")
    p.add_argument("--levels", type=_parse_levels, required=True, help="r:u,r:u,...")
    p.add_argument("--seed", type=int, default=None, help="driver seed (default: entropy)")
    p.add_argument("--drivers", default=None, help="JSON file with injected driver streams")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen1)

    p = sub.add_parser("gen2", help="iterated modular-affine construction")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--levels", type=_parse_levels, required=True)
    p.add_argument("--rounds", type=int, required=True, help="extension rounds n")
    p.add_argument("--g", type=int, default=None, help="unit modulo t (default: derived)")
    p.add_argument("--d", type=int, default=None, help="exponent modulus (compat mode)")
    p.add_argument(
        "--order-mode",
        choices=("true", "compat"),
        default="true",
        help="true: d is g's multiplicative order; compat: take --d as given",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen2)

    p = sub.add_parser("bound", help="slot-load bound report")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--levels", type=_parse_levels, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("enumerate", help="all feasible user-count rosters")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=_parse_int_list, required=True, help="level demands, e.g. 1,2,6")
    p.add_argument("--max-tuples", type=int, default=10_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check a sequence-set file")
    p.add_argument("set")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sac-trace", help="run a join/leave script through the allocator")
    p.add_argument("--set", required=True)
    p.add_argument("--script", required=True, help="JSON array of join/leave events")
    p.add_argument("--out", required=True, help="trace JSON path")
    p.add_argument("--audit", default=None, help="audit CSV path (default: <out>.audit.csv)")
    p.add_argument("--alignment", choices=sac.ALIGNMENTS, default="global")
    p.add_argument("--sync-delay", type=int, default=0)
    p.add_argument("--assign-seed", type=int, default=None, help="seeded-random assignment")
    p.set_defaults(func=_cmd_sac_trace)

    p = sub.add_parser("simulate", help="SER curve for one scheme")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", default=None, help="sequence-set file (hopping scheme)")
    group.add_argument("--fixed", type=_parse_int_list, default=None, help="fixed slots, e.g. 0,2,4,5")
    p.add_argument("--level", type=int, default=None, help="level of the simulated user")
    p.add_argument("--user", type=int, default=0)
    p.add_argument("--t", type=int, default=None, help="slots per frame (required with --fixed)")
    p.add_argument("--interference", type=_parse_int_list, default=())
    p.add_argument("--ipower-db", type=float, default=10.0)
    p.add_argument("--snr", type=_parse_snr, default=_parse_snr("0:14:1"))
    p.add_argument("--frames", type=int, default=100_000)
    p.add_argument("--symbols-per-slot", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="fixed-slot baseline vs hopping scheme")
    p.add_argument("--set", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--user", type=int, default=0)
    p.add_argument("--fixed", type=_parse_int_list, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--interference", type=_parse_int_list, default=())
    p.add_argument("--ipower-db", type=float, default=10.0)
    p.add_argument("--snr", type=_parse_snr, default=_parse_snr("0:14:1"))
    p.add_argument("--frames", type=int, default=100_000)
    p.add_argument("--symbols-per-slot", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("pipeline", help="run an ordered list of subcommand invocations")
    p.add_argument("file", help="JSON: {'stages': [[subcommand, flag, ...], ...]}")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def _fail(code: int, kind: str, exc: BaseException) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    return code


def dispatch(argv: list[str]) -> int:
    """Parse and run one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage/help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except SchemaError as exc:
        return _fail(EXIT_IO, "schema-error", exc)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config-error", exc)
    except bound.EnumerationCapError as exc:
        return _fail(EXIT_CONFIG, "enumeration-cap", exc)
    except HcsError as exc:
        return _fail(EXIT_CONFIG, "error", exc)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "value-error", exc)
    except FileNotFoundError as exc:
        return _fail(EXIT_IO, "file-not-found", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io-error", exc)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
