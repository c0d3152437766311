"""Command-line front end.

Every generation, check, trace, and simulation step is exposed as a
subcommand that reads and writes plain files, echoes its parameters into a
run manifest next to each output, and uses recorded seeds so re-runs are
byte-identical on the primary outputs (manifests differ only in timestamp
and duration).

Exit codes: 0 success, 2 usage error, 3 invalid configuration or
parameters, 4 verification gate failed, 5 file or schema error.  Every
failure, a usage error or a failed pipeline stage included, prints a single
JSON object on stderr.  Every JSON input (set file, sac script, pipeline
plan) is read by ``core.read_json``, so one that is not UTF-8 JSON exits 5;
each plan stage starts with a subcommand other than pipeline.

Each run keeps one record of the files it reads and writes (see
``core._recording``): its manifests take their digests from it, and a
pipeline plan's stages record into the plan's record, so a stage that loads
a set an earlier stage saved gets that set back.

Usage examples:
    hcs gen1 --t 24 --levels 2:3,3:4,6:1 --seed 7 --out set1.json
    hcs gen2 --t 8 --levels 1:1,3:1,4:1 --rounds 2 --g 3 --d 4 \
        --out set2.json
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
import functools
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bound, construction1, construction2, sac, simulator, verification
from .core import (
    _CSV_ROWS,
    ConfigError,
    SchemaError,
    SystemConfig,
    _recording,
    _tables_bytes,
    dumps_document,
    load_set,
    read_json,
    save_set,
    write_text,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4
EXIT_IO = 5

# most points a --snr start:stop:step range may expand to
MAX_SNR_POINTS = 10_000


class _Failure(Exception):
    """A failed invocation: its exit code, error kind, message and the files it wrote."""

    def __init__(self, code: int, kind: str, message, outputs=()) -> None:
        super().__init__(str(message))
        self.code, self.kind, self.outputs = code, kind, list(outputs)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are failures, not usage text."""

    def error(self, message: str):
        raise _Failure(EXIT_USAGE, "usage", f"{self.prog}: {message}")


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
    """Either 'start:stop:step' (stop inclusive, finite, at most MAX_SNR_POINTS
    points) or a comma list of dB values."""
    try:
        if ":" in text:
            bits = text.split(":")
            if len(bits) != 3:
                raise ValueError
            start, stop, step = (float(b) for b in bits)
            if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
                raise ValueError
            too_many = argparse.ArgumentTypeError(
                f"SNR range {text!r} has more than {MAX_SNR_POINTS} points"
            )
            if (stop - start) / step + 1 > MAX_SNR_POINTS:
                raise too_many
            out = []
            value = start
            while value <= stop + 1e-9:
                if len(out) == MAX_SNR_POINTS:  # a step too small to move a large start
                    raise too_many
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


def _write_manifest(
    args: argparse.Namespace, outputs: list[Path], started: float, record: dict
) -> None:
    """One manifest next to the first output, with the digests ``record``
    holds of the bytes the stage read from its input files and last wrote to
    its outputs.  None when the first output is not a regular file (a
    device or a FIFO), whose directory is no place for a manifest."""
    if not outputs[0].is_file():
        return
    params = _echo(args)
    inputs = [Path(params[key]) for key in ("set", "script") if params.get(key)]
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "seeds": [params[key] for key in ("seed", "assign_seed") if params.get(key) is not None],
        "inputs": {str(p): record[p.resolve()]["read"].hex() for p in inputs},
        "outputs": {str(p): record[p.resolve()]["written"][0].hex() for p in outputs},
        "tool_version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_text(str(outputs[0]) + ".manifest.json", dumps_document(manifest))


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _audit_csv(audit: sac.Audit) -> str:
    """The audit CSV written from its columns: ``_csv_text`` over its rows, byte for byte.

    Each holding's ``user,level,sequence`` ending is formatted once by the csv
    module, so a name that needs quoting is quoted as it would be in a row.
    """
    endings = [_csv_text(list(h[2:]), ()) for h in audit.holdings]
    parts = ["frame,slot,user,level,sequence\n"]
    for lo in range(0, len(audit), sac.AUDIT_BLOCK_ROWS):
        block = slice(lo, lo + sac.AUDIT_BLOCK_ROWS)
        parts.append("".join(map(
            "{},{},{}".format,
            audit.frame[block].tolist(),
            audit.slot[block].tolist(),
            map(endings.__getitem__, audit.holding[block].tolist()),
        )))
    return "".join(parts)


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen1(args: argparse.Namespace) -> list[Path]:
    config = SystemConfig(t=args.t, levels=args.levels, seed=args.seed)
    hcs_set = construction1.construct1(config)
    out = Path(args.out)
    save_set(hcs_set, out)
    print(
        f"wrote {out}: length {hcs_set.length}, {hcs_set.config.num_users} sequences, "
        f"{hcs_set.t} slots"
    )
    return [out]


def _cmd_gen2(args: argparse.Namespace) -> list[Path]:
    config = SystemConfig(t=args.t, levels=args.levels)
    hcs_set = construction2.construct2(config, n=args.rounds, g=args.g, d=args.d)
    out = Path(args.out)
    save_set(hcs_set, out)
    params = hcs_set.provenance["params"]
    print(
        f"wrote {out}: length {hcs_set.length}, g={params['g']} d={params['d']} "
        f"n={params['n']} ({params['mode']})"
    )
    return [out]


def _cmd_bound(args: argparse.Namespace) -> list[Path]:
    config = SystemConfig(t=args.t, levels=args.levels)
    report = bound.check_bound(config)
    text = dumps_document(report.to_dict())
    outputs = [Path(args.out)] if args.out else []
    for out in outputs:
        write_text(out, text)
    sys.stdout.write(text)
    return outputs


def _rosters_csv(rosters: bound.Rosters) -> str:
    """``_csv_text`` over the rows (counts..., load, optimal as 0/1), byte for byte."""
    header = [f"u_{i}" for i in range(rosters.counts.shape[1])] + ["load", "optimal"]
    table = np.column_stack((rosters.counts, rosters.load, rosters.optimal.view(np.uint8)))
    if table.dtype == object:
        # loads of a frame of 2**63 - 1 slots or more are Python ints
        return _csv_text(header, table.tolist())
    return _tables_bytes([table], [",".join(header) + "\n", ""], _CSV_ROWS).decode("ascii")


def _cmd_enumerate(args: argparse.Namespace) -> list[Path]:
    rosters = bound.enumerate_user_counts(args.t, args.r, cap=args.max_tuples)
    text = _rosters_csv(rosters)
    if not args.out:
        sys.stdout.write(text)
        return []
    out = Path(args.out)
    write_text(out, text)
    print(f"wrote {out}: {len(rosters)} rosters")
    return [out]


def _cmd_verify(args: argparse.Namespace) -> list[Path]:
    hcs_set = load_set(args.set)
    # in a pipeline plan, a later sac-trace of the same set reuses this proof
    report = verification._proof(hcs_set)
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
    outputs = [Path(args.out)] if args.out else []
    for out in outputs:
        write_text(out, dumps_document(doc))
    if not report.passed:
        failed = ", ".join(name for name, check in report.gates() if not check.passed)
        raise _Failure(
            EXIT_VERIFY, "verification-failed", f"{args.set} failed verification: {failed}",
            outputs,
        )
    return outputs


def _cmd_sac_trace(args: argparse.Namespace) -> list[Path]:
    hcs_set = load_set(args.set)
    script_path = Path(args.script)
    script = read_json(script_path)
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
    write_text(out, dumps_document(trace))
    audit_path = Path(args.audit) if args.audit else Path(str(out) + ".audit.csv")
    write_text(audit_path, _audit_csv(audit))
    print(
        f"wrote {out} and {audit_path}: {len(state.events)} events, "
        f"{len(collisions)} collisions"
    )
    return [out, audit_path]


def _sim_configs(args: argparse.Namespace) -> list[simulator.SimConfig]:
    """One SimConfig per scheme the options name: --set's user, then --fixed."""
    schemes, t = [], args.t
    if args.set:
        hcs_set = load_set(args.set)
        schemes.append(simulator.HcsScheme(hcs_set, level=args.level, user=args.user))
        t = hcs_set.t if t is None else t
    if t is None:
        raise ConfigError("--t is required with --fixed")
    if args.fixed is not None:
        schemes.append(simulator.FixedScheme(args.fixed))
    return [
        simulator.SimConfig(
            t=t,
            scheme=scheme,
            snr_db=args.snr,
            interference_slots=args.interference,
            interference_power_db=args.ipower_db,
            symbols_per_slot=args.symbols_per_slot,
            frames=args.frames,
            seed=args.seed,
        )
        for scheme in schemes
    ]


def _cmd_simulate(args: argparse.Namespace) -> list[Path]:
    (config,) = _sim_configs(args)
    curve = simulator.simulate_ser(config)
    text = _csv_text(
        ["snr_db", "ser", "symbols_total", "symbols_error", "scheme", "scenario"],
        (
            [p.snr_db, repr(p.ser), p.symbols_total, p.symbols_error, curve.scheme, curve.scenario]
            for p in curve.points
        ),
    )
    out = Path(args.out)
    write_text(out, text)
    print(f"wrote {out}: {len(curve.points)} SNR points, scheme {curve.scheme}")
    return [out]


def _cmd_compare(args: argparse.Namespace) -> list[Path]:
    hcs_config, fixed_config = _sim_configs(args)
    report = simulator.compare_schemes(fixed_config, hcs_config)
    text = _csv_text(
        ["snr_db", "ser_fixed", "ser_hcs", "delta", "sigma", "hcs_worse"],
        (
            [row.snr_db, repr(row.ser_a), repr(row.ser_b), repr(row.delta), repr(row.sigma), int(row.b_exceeds_a)]
            for row in report.rows
        ),
    )
    out = Path(args.out)
    write_text(out, text)
    flagged = len(report.flagged)
    print(
        f"wrote {out}: max fixed-minus-hcs delta {report.max_delta:.6f}, "
        f"{flagged} flagged points"
    )
    return [out]


def _cmd_pipeline(args: argparse.Namespace) -> list[Path]:
    path = Path(args.file)
    doc = read_json(path)
    stages = doc.get("stages") if isinstance(doc, dict) else None
    if not isinstance(stages, list) or any(
        not isinstance(s, list) or any(not isinstance(a, str) for a in s) for s in stages
    ):
        raise SchemaError(f"{path}: expected {{'stages': [[arg, ...], ...]}}")
    # every stage is checked before any runs, so a refused plan writes nothing
    for number, stage in enumerate(stages):
        if stage[:1] == ["pipeline"]:
            raise SchemaError(f"{path}: a plan cannot run a pipeline stage")
        if not stage or stage[0] not in _parser()._subcommands:
            raise SchemaError(f"{path}: [stage {number}] does not start with a subcommand")
    # each stage records into this run's record, so a stage that loads a set
    # an earlier stage saved gets that set back
    for number, stage in enumerate(stages):
        print(f"[stage {number}] " + " ".join(stage))
        try:
            _run(stage)
        except _Failure as failure:
            raise _Failure(
                failure.code,
                failure.kind,
                f"[stage {number}] failed with exit code {failure.code}: {failure}",
            ) from failure
    return []


# ---------------------------------------------------------------------------
# parser


def _add_sim_arguments(p: argparse.ArgumentParser) -> None:
    """The options simulate and compare share, after their --set and --fixed."""
    p.add_argument("--level", type=int, default=None, help="level of the simulated user")
    p.add_argument("--user", type=int, default=0)
    p.add_argument("--t", type=int, default=None, help="slots per frame (default: the set's t)")
    p.add_argument("--interference", type=_parse_int_list, default=())
    p.add_argument("--ipower-db", type=float, default=10.0)
    p.add_argument("--snr", type=_parse_snr, default=_parse_snr("0:14:1"))
    p.add_argument("--frames", type=int, default=100_000)
    p.add_argument("--symbols-per-slot", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the hcs command, built anew."""
    parser = _Parser(
        prog="hcs",
        description="Generate, check, trace, and simulate multi-level slot access sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen1", help="permutation-table construction")
    p.add_argument("--t", type=int, required=True, help="slots per frame")
    p.add_argument("--levels", type=_parse_levels, required=True, help="r:u,r:u,...")
    p.add_argument("--seed", type=int, default=None, help="driver seed (default: entropy)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen1)

    p = sub.add_parser("gen2", help="iterated modular-affine construction")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--levels", type=_parse_levels, required=True)
    p.add_argument("--rounds", type=int, required=True, help="extension rounds n")
    p.add_argument("--g", type=int, default=None, help="unit modulo t (default: derived)")
    p.add_argument("--d", type=int, default=None, help="exponent modulus as given (needs --g)")
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
    _add_sim_arguments(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="fixed-slot baseline vs hopping scheme")
    p.add_argument("--set", required=True)
    p.add_argument("--fixed", type=_parse_int_list, required=True)
    _add_sim_arguments(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("pipeline", help="run an ordered list of subcommand invocations")
    p.add_argument("file", help="JSON: {'stages': [[subcommand, flag, ...], ...]}")
    p.set_defaults(func=_cmd_pipeline)

    # the names a pipeline stage may start with
    parser._subcommands = tuple(sub.choices)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parse_args keeps no state in
    the parser, and a pipeline parses every stage."""
    return build_parser()


def _run(argv: list[str]) -> int:
    """Parse and run one invocation, then write its manifest; raises _Failure if it fails."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit:
        # --help or --version: argparse has printed it
        return EXIT_OK
    if getattr(args, "seed", 0) is None:
        # an unset --seed of gen1, simulate or compare; the manifest records it
        args.seed = _draw_seed()
    started = time.monotonic()
    failure = None
    try:
        with _recording() as record:
            try:
                outputs = args.func(args)
            except _Failure as exc:
                # a failed verify --out has written its report all the same
                outputs, failure = exc.outputs, exc
            if outputs:
                _write_manifest(args, outputs, started, record)
    except SchemaError as exc:
        raise _Failure(EXIT_IO, "schema-error", exc) from exc
    except sac._VerificationFailed as exc:
        # sac-trace on a set that fails a gate
        raise _Failure(EXIT_VERIFY, "verification-failed", exc) from exc
    except ConfigError as exc:
        raise _Failure(EXIT_CONFIG, "config-error", exc) from exc
    except bound.EnumerationCapError as exc:
        raise _Failure(EXIT_CONFIG, "enumeration-cap", exc) from exc
    except ValueError as exc:
        raise _Failure(EXIT_CONFIG, "value-error", exc) from exc
    except FileNotFoundError as exc:
        raise _Failure(EXIT_IO, "file-not-found", exc) from exc
    except OSError as exc:
        raise _Failure(EXIT_IO, "io-error", exc) from exc
    except MemoryError as exc:
        raise _Failure(EXIT_CONFIG, "out-of-memory", str(exc) or "not enough memory") from exc
    if failure is not None:
        raise failure
    return EXIT_OK


def dispatch(argv: list[str]) -> int:
    """Run one invocation; returns the process exit code.

    A failure prints one JSON line, {"error": kind, "message": text}, on stderr.
    """
    try:
        return _run(argv)
    except _Failure as failure:
        sys.stderr.write(json.dumps({"error": failure.kind, "message": str(failure)}) + "\n")
        return failure.code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
