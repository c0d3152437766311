import csv
import gc
import hashlib
import json
import os
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from hcskit import SchemaError, check_bound, enumerate_user_counts, load_set, run_script, SystemConfig
from hcskit import cli, construction2, core, verification
from hcskit.cli import MAX_SNR_POINTS, _csv_text, _parse_snr, dispatch
from hcskit.construction2 import multiplicative_order

from conftest import remake_set, views

DEMOS = Path(__file__).resolve().parent.parent / "demos"
LEVELS24 = "2:3,3:4,6:1"
LEVELS8 = "1:1,3:1,4:1"


def gen2_args(out):
    return [
        "gen2",
        "--t",
        "8",
        "--levels",
        LEVELS8,
        "--rounds",
        "2",
        "--g",
        "3",
        "--d",
        "4",
        "--out",
        str(out),
    ]


def read_manifest(out):
    return json.loads((out.parent / (out.name + ".manifest.json")).read_text())


def assert_schema_error(capsys, argv):
    """Exit 5 with exactly one JSON line, a schema-error, on stderr."""
    assert dispatch(argv) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "schema-error"
    return err


def assert_usage_error(capsys, argv):
    """Exit 2 with exactly one JSON line, a usage error, on stderr and no usage text."""
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage"
    return err


def assert_config_error(capsys, argv):
    """Exit 3 with exactly one JSON line, a config-error, on stderr."""
    assert dispatch(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config-error"
    return err


class TestUsage:
    def test_no_arguments(self, capsys):
        err = assert_usage_error(capsys, [])
        assert err["message"] == "hcs: the following arguments are required: subcommand"

    def test_unknown_subcommand(self, capsys):
        err = assert_usage_error(capsys, ["frobnicate"])
        assert "invalid choice: 'frobnicate'" in err["message"]

    def test_missing_required_flag(self, capsys):
        err = assert_usage_error(capsys, ["gen1", "--t", "24"])
        assert err["message"] == "hcs gen1: the following arguments are required: --levels, --out"

    def test_malformed_levels(self, capsys):
        err = assert_usage_error(capsys, ["bound", "--t", "8", "--levels", "2:3:4"])
        assert err["message"].startswith("hcs bound: argument --levels: level spec '2:3:4'")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--t", "8", "--levels", "2:x"],
             "hcs bound: argument --levels: level spec '2:x' is not numeric"),
            (["enumerate", "--t", "8", "--r", "1,x"],
             "hcs enumerate: argument --r: expected comma-separated integers, got '1,x'"),
        ],
        ids=["levels-not-numeric", "r-not-numeric"],
    )
    def test_malformed_list_values(self, capsys, argv, message):
        assert assert_usage_error(capsys, argv)["message"] == message

    def test_version_exits_clean(self, capsys):
        assert dispatch(["--version"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.1.0\n" and captured.err == ""

    def test_help_prints_usage(self, capsys):
        assert dispatch(["gen1", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: hcs gen1") and captured.err == ""

    def test_consecutive_invocations_parse_independently(self, tmp_path, capsys):
        # the parser is built once per process; no option of one invocation,
        # refused or not, shows up in the next
        assert cli._parser() is cli._parser()
        bound8, bound24, lattice = tmp_path / "b8.json", tmp_path / "b24.json", tmp_path / "l.csv"
        assert dispatch(["bound", "--t", "8", "--levels", LEVELS8, "--out", str(bound8)]) == 0
        capsys.readouterr()
        assert_usage_error(capsys, ["enumerate", "--t", "8", "--r", "1,x"])
        assert dispatch(["enumerate", "--t", "8", "--r", "1,3,4", "--out", str(lattice)]) == 0
        assert dispatch(["bound", "--t", "24", "--levels", LEVELS24, "--out", str(bound24)]) == 0
        assert read_manifest(bound8)["parameters"] == {
            "levels": [[1, 1], [3, 1], [4, 1]], "out": str(bound8), "subcommand": "bound", "t": 8,
        }
        assert read_manifest(lattice)["parameters"] == {
            "max_tuples": 10_000_000, "out": str(lattice), "r": [1, 3, 4],
            "subcommand": "enumerate", "t": 8,
        }
        assert read_manifest(bound24)["parameters"] == {
            "levels": [[2, 3], [3, 4], [6, 1]], "out": str(bound24), "subcommand": "bound", "t": 24,
        }

    def test_simulate_scheme_flags_exclusive(self, capsys, tmp_path):
        code = dispatch(
            [
                "simulate",
                "--set",
                "x.json",
                "--fixed",
                "0,1",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "usage",
            "message": "hcs simulate: argument --fixed: not allowed with argument --set",
        }


class TestGen1:
    def test_writes_loadable_set(self, tmp_path, capsys):
        out = tmp_path / "set1.json"
        code = dispatch(
            ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        built = load_set(out)
        assert built.length == 144
        assert built.config == SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1)), seed=7)
        assert built.provenance["params"]["seed"] == 7

    def test_manifest_records_digest_and_seed(self, tmp_path):
        out = tmp_path / "set1.json"
        dispatch(["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "gen1"
        assert manifest["seeds"] == [7]
        assert manifest["parameters"]["seed"] == 7
        assert manifest["outputs"][str(out)] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            dispatch(
                ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(out)]
            )
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_entropy_seed_is_recorded(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        assert dispatch(["gen1", "--t", "24", "--levels", LEVELS24, "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = read_manifest(out)
        assert len(manifest["seeds"]) == 1
        assert manifest["parameters"]["seed"] == manifest["seeds"][0]
        assert load_set(out).config.seed == manifest["seeds"][0]

    def test_driver_file_is_not_an_option(self, tmp_path, capsys):
        argv = ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "0",
                "--drivers", str(tmp_path / "d.json"), "--out", str(tmp_path / "set.json")]
        err = assert_usage_error(capsys, argv)
        assert "--drivers" in err["message"]

    def test_invalid_config_exits_3(self, tmp_path, capsys):
        code = dispatch(
            ["gen1", "--t", "10", "--levels", "4:1", "--seed", "1", "--out", str(tmp_path / "x.json")]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "divide the frame size" in err["message"]


    @pytest.mark.parametrize(
        "args",
        [
            ["gen1", "--t", "24", "--levels", LEVELS24],
            ["simulate", "--fixed", "0,2", "--t", "8", "--snr", "5"],
        ],
        ids=["gen1", "simulate"],
    )
    def test_seed_past_64_bits_exits_3(self, tmp_path, capsys, args):
        out = tmp_path / "x.out"
        err = assert_config_error(
            capsys, [*args, "--seed", "18446744073709551616", "--out", str(out)]
        )
        assert err["message"] == "seed must fit in 64 unsigned bits, got 18446744073709551616"
        assert not out.exists()


class TestGen2:
    def test_matches_library_output(self, tmp_path, capsys, set128):
        from hcskit import dumps_document, to_document

        out = tmp_path / "set2.json"
        assert dispatch(gen2_args(out)) == 0
        capsys.readouterr()
        assert out.read_text() == dumps_document(to_document(set128))

    def test_modulus_without_unit_exits_3(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        args = ["gen2", "--t", "8", "--levels", LEVELS8, "--rounds", "2", "--d", "4", "--out", out]
        assert dispatch(args) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "config-error",
            "message": "an explicit exponent modulus d needs an explicit unit g",
        }

    def test_guard_refuses_many_rounds_at_once(self, tmp_path, capsys):
        # 3**4000000 is never built, nor printed past the int digit limit
        args = ["gen2", "--t", "8", "--levels", "1:1", "--rounds", "4000000", "--g", "3",
                "--d", "3", "--out", str(tmp_path / "x.json")]
        assert dispatch(args) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "d^n*t = 3^4000000*8 exceeds" in err["message"]

    @pytest.mark.parametrize("g", [[], ["--g", "2"]], ids=["derived", "explicit"])
    def test_guard_refuses_a_long_frame_before_searching_its_units(
        self, tmp_path, capsys, monkeypatch, g
    ):
        # a derived g's order is lambda(100003) = 100002, so no unit's order is
        # computed; an explicit g's is computed once
        searched = []

        def order(unit, t):
            searched.append(unit)
            return multiplicative_order(unit, t)

        monkeypatch.setattr(construction2, "multiplicative_order", order)
        args = ["gen2", "--t", "100003", "--levels", "1:1", "--rounds", "1", *g,
                "--out", str(tmp_path / "x.json")]
        err = assert_config_error(capsys, args)
        assert err["message"].startswith("sequence length d^n*t = 100002^1*100003 exceeds")
        assert searched == ([2] if g else [])


class TestSizeBudget:
    @pytest.mark.parametrize(
        "args",
        [
            # 32^3 * 128 frames of 128 slots: 2^29 claim cells
            ["gen2", "--t", "128", "--levels", "1:1", "--rounds", "3"],
            # 2000 * 100 frames of 2000 slots: 4 * 10^8 claim cells
            ["gen1", "--t", "2000", "--levels", "100:1", "--seed", "1"],
        ],
        ids=["gen2", "gen1"],
    )
    def test_set_too_large_to_verify_is_not_written(self, tmp_path, capsys, args):
        out = tmp_path / "big.json"
        err = assert_config_error(capsys, [*args, "--out", str(out)])
        assert "-frame guard" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestBoundAndEnumerate:
    def test_bound_stdout_matches_library(self, capsys):
        assert dispatch(["bound", "--t", "24", "--levels", LEVELS24]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == check_bound(SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1)))).to_dict()

    def test_bound_writes_file(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert dispatch(["bound", "--t", "8", "--levels", "4:3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["slack"] == -4

    def test_device_output_gets_no_manifest(self, tmp_path, capsys):
        # the manifest of --out /dev/null would be /dev/null.manifest.json;
        # through a link the name it would take is inside tmp_path
        out = tmp_path / "null"
        out.symlink_to(os.devnull)
        assert dispatch(["bound", "--t", "8", "--levels", "1:1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["null"]

    def test_out_path_that_is_a_directory_exits_5(self, tmp_path, capsys):
        code = dispatch(["bound", "--t", "8", "--levels", LEVELS8, "--out", str(tmp_path)])
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "io-error"

    def test_enumerate_csv_matches_library(self, tmp_path, capsys):
        out = tmp_path / "lattice.csv"
        assert dispatch(["enumerate", "--t", "24", "--r", "1,2,6", "--out", str(out)]) == 0
        capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u_0", "u_1", "u_2", "load", "optimal"]
        want = enumerate_user_counts(24, (1, 2, 6))
        assert len(rows) - 1 == len(want)
        for row, entry in zip(rows[1:], want):
            assert tuple(int(x) for x in row[:3]) == entry.counts
            assert int(row[3]) == entry.load
            assert bool(int(row[4])) == entry.optimal

    def test_enumerate_stdout_without_out(self, capsys):
        assert dispatch(["enumerate", "--t", "6", "--r", "2,3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u_0,u_1,load,optimal"
        assert len(lines) - 1 == len(enumerate_user_counts(6, (2, 3)))

    def test_enumeration_cap_exits_3(self, capsys):
        code = dispatch(["enumerate", "--t", "100", "--r", "1,2", "--max-tuples", "5"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "enumeration-cap"

    def test_enumeration_beyond_int64_exits_3(self, capsys):
        code = dispatch(["enumerate", "--t", str(2**64), "--r", "1", "--max-tuples", str(2**70)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "enumeration-cap"

    def test_out_of_memory_exits_3(self, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli.bound, "enumerate_user_counts", no_memory)
        assert dispatch(["enumerate", "--t", "8", "--r", "1"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "out-of-memory", "message": "not enough memory"}
        ]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--t", "0", "--r", "1"], "frame size must be a positive int, got 0"),
            (["--t", "24", "--r", ""], "at least one level value is required"),
        ],
        ids=["zero-t", "no-levels"],
    )
    def test_enumerate_bad_input_is_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "lattice.csv"
        err = assert_config_error(capsys, ["enumerate", *args, "--out", str(out)])
        assert err["message"] == message
        assert not out.exists()


class TestVerify:
    def make_set(self, tmp_path, capsys):
        out = tmp_path / "set2.json"
        dispatch(gen2_args(out))
        capsys.readouterr()
        return out

    def test_pass_lines_and_exit_0(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        assert dispatch(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert sum(line.startswith("pass ") for line in out.splitlines()) == 5
        assert out.strip().endswith(f"PASS  {path}")

    def test_json_report(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        assert dispatch(["verify", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["occupancy"]["expected"] == 128

    def test_corrupted_set_exits_4(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["sequences"][0]["frames"][0][0] = 1
        path.write_text(json.dumps(doc))
        assert dispatch(["verify", str(path)]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "verification-failed",
            "message": f"{path} failed verification: zero_correlation, occupancy, slot_coverage",
        }

    def test_report_file_written_on_failure(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["sequences"][0]["frames"][0][0] = 1
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert dispatch(["verify", str(path), "--out", str(report)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["error"] for line in lines] == ["verification-failed"]
        assert json.loads(report.read_text())["passed"] is False
        manifest = read_manifest(report)
        assert manifest["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
        assert list(manifest["outputs"]) == [str(report)]

    def test_report_over_its_own_input_records_the_bytes_read(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        read = hashlib.sha256(path.read_bytes()).hexdigest()
        assert dispatch(["verify", str(path), "--out", str(path)]) == 0
        capsys.readouterr()
        # the report, shorter than the set, is all the file holds
        assert json.loads(path.read_text())["passed"] is True
        manifest = read_manifest(path)
        assert manifest["inputs"] == {str(path): read}
        assert manifest["outputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
        assert manifest["outputs"][str(path)] != read

    def test_warnings_print_as_note_lines(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["construction"]["kind"] = "mystery"
        path.write_text(json.dumps(doc))
        assert dispatch(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "note  unknown construction kind 'mystery': occupancy downgraded to within-set "
            "uniformity",
            f"PASS  {path}",
        ]

    def test_missing_file_exits_5(self, capsys):
        assert dispatch(["verify", "/nonexistent/set.json"]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "file-not-found"

    def test_invalid_json_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert dispatch(["verify", str(bad)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "schema-error"

    def test_schema_violation_exits_5(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        del doc["sequences"][0]["frames"]
        path.write_text(json.dumps(doc))
        assert dispatch(["verify", str(path)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert "sequences[0]" in err["message"]

    def test_slot_beyond_int64_exits_5(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["sequences"][2]["frames"][0][0] = 10**30
        path.write_text(json.dumps(doc))
        assert dispatch(["verify", str(path)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "schema-error",
            "message": "sequences[2].frames: slots must fit in int64",
        }

    @pytest.mark.parametrize("key, value", [("d", "x"), ("n", -2), ("seed", "x")])
    def test_malformed_c2_params_exit_5(self, tmp_path, capsys, key, value):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["construction"]["params"][key] = value
        path.write_text(json.dumps(doc))
        assert dispatch(["verify", str(path)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-error"
        assert f"construction.params.{key}" in err["message"]

    def test_unattainable_c2_visits_exit_4(self, tmp_path, capsys):
        # d**n with n = 10**6 is never built: no run of 128 frames can meet it
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["construction"]["params"]["n"] = 10**6
        path.write_text(json.dumps(doc))
        assert dispatch(["verify", str(path), "--json"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["occupancy"]["detail"].endswith("expected 4**1000000")


class TestSacTrace:
    def test_trace_and_audit(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps(
                [
                    {"frame": 0, "action": "join", "user": "A", "level": 0},
                    {"frame": 1, "action": "join", "user": "B", "level": 2},
                    {"frame": 3, "action": "leave", "user": "A"},
                ]
            )
        )
        out = tmp_path / "trace.json"
        code = dispatch(
            ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
        )
        assert code == 0
        assert "0 collisions" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        assert trace["collision_count"] == 0
        assert [e["kind"] for e in trace["events"]] == [
            "join-request",
            "assigned",
            "join-request",
            "assigned",
            "released",
        ]
        audit = tmp_path / "trace.json.audit.csv"
        with audit.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frame", "slot", "user", "level", "sequence"]
        frame0 = [r for r in rows[1:] if r[0] == "0"]
        assert [r[2] for r in frame0] == ["A"]
        manifest = read_manifest(out)
        assert list(manifest["outputs"]) == [str(out), str(audit)]
        assert sorted(manifest["inputs"]) == sorted([str(set_path), str(script)])

    @pytest.mark.parametrize(
        "names, alignment",
        [
            (["a,b", 'say "hi"', "two\nlines", "Zoë"], "global"),
            (["A", "B", "C"], "per-user"),
            ([], "global"),
        ],
        ids=["quoted-names", "per-user-collisions", "empty"],
    )
    def test_audit_csv_is_the_rows_through_csv(self, tmp_path, capsys, names, alignment):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        # one sequence per level, so a fourth user waits for the first to leave
        script = [
            {"frame": i, "action": "join", "user": name, "level": i % 3}
            for i, name in enumerate(names)
        ]
        if names:
            script += [
                {"frame": 5, "action": "leave", "user": names[0]},
                {"frame": 40, "action": "leave", "user": names[1]},
            ]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script))
        out = tmp_path / "trace.json"
        argv = ["sac-trace", "--set", str(set_path), "--script", str(script_path)]
        assert dispatch(argv + ["--out", str(out), "--alignment", alignment]) == 0
        capsys.readouterr()
        _, audit, collisions = run_script(load_set(set_path), script, alignment=alignment)
        assert (len(audit) > 0, len(collisions) > 0) == (bool(names), alignment == "per-user")
        header = ["frame", "slot", "user", "level", "sequence"]
        want = _csv_text(header, list(audit)).encode("utf-8")
        assert (tmp_path / "trace.json.audit.csv").read_bytes() == want

    def test_rerun_byte_identical(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps([{"frame": 0, "action": "join", "user": "A", "level": 1}])
        )
        blobs = []
        for name in ("t1.json", "t2.json"):
            out = tmp_path / name
            dispatch(
                ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
            )
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_bad_script_exits_5(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        script = tmp_path / "script.json"
        script.write_text("{\"not\": \"a list\"}")
        out = tmp_path / "trace.json"
        code = dispatch(
            ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
        )
        assert code == 5
        assert "array of events" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"action": "join", "user": "B", "level": 0}, "frame must be a non-negative int"),
            ({"frame": -1, "action": "leave", "user": "A"}, "frame must be a non-negative int"),
            ({"frame": "2", "action": "leave", "user": "A"}, "frame must be a non-negative int"),
            ({"frame": 2.5, "action": "leave", "user": "A"}, "frame must be a non-negative int"),
            ({"frame": 2, "action": "leave"}, "user must be a name"),
            ({"frame": 2, "action": "join", "user": ["B"], "level": 0}, "user must be a name"),
            # the trace JSON could escape a lone surrogate, the audit CSV could not encode it
            ({"frame": 2, "action": "join", "user": "\ud800", "level": 0}, "user must be UTF-8 text"),
            ({"frame": 2, "action": "join", "user": "B"}, "level must be a non-negative int"),
            ({"frame": 2, "action": "join", "user": "B", "level": None}, "level must be a non-negative int"),
            ([2, "join", "B"], "expected an object"),
        ],
    )
    def test_malformed_entry_exits_3(self, tmp_path, capsys, entry, reason):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps([{"frame": 0, "action": "join", "user": "A", "level": 0}, entry])
        )
        out = tmp_path / "trace.json"
        capsys.readouterr()
        code = dispatch(
            ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "value-error"
        assert err["message"].startswith("script entry 1: " + reason)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "script.json", "set2.json", "set2.json.manifest.json"
        ]

    def test_far_frame_exits_3(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"frame": 2**31, "action": "leave", "user": "A"}]))
        out = tmp_path / "trace.json"
        capsys.readouterr()
        code = dispatch(
            ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "value-error",
            "message": "script reaches frame 2147483648: an audit of 2147483649 frames "
            "at load 8 exceeds 4194304 rows",
        }
        assert not out.exists()

    def test_set_failing_a_gate_exits_4(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        doc = json.loads(set_path.read_text())
        # sequence 0 claims sequence 1's first slot in frame 0
        doc["sequences"][0]["frames"][0][0] = doc["sequences"][1]["frames"][0][0]
        set_path.write_text(json.dumps(doc))
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"frame": 0, "action": "join", "user": "A", "level": 0}]))
        out = tmp_path / "trace.json"
        capsys.readouterr()
        code = dispatch(
            ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
        )
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "verification-failed"
        assert err["message"].startswith("set failed verification (zero_correlation): ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "script.json", "set2.json", "set2.json.manifest.json"
        ]

    def test_waiting_user_leaves(self, tmp_path, capsys):
        set_path = tmp_path / "set1.json"
        dispatch(["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "1", "--out", str(set_path)])
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps(
                [
                    {"frame": 0, "action": "join", "user": "a", "level": 2},
                    {"frame": 1, "action": "join", "user": "b", "level": 2},
                    {"frame": 2, "action": "leave", "user": "b"},
                ]
            )
        )
        out = tmp_path / "trace.json"
        code = dispatch(
            ["sac-trace", "--set", str(set_path), "--script", str(script), "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        events = json.loads(out.read_text())["events"]
        assert events[-2]["kind"] == "queued"
        assert events[-1] == {
            "frame": 2, "kind": "released", "user": "b", "level": 2, "sequence": None
        }


class TestSimulateAndCompare:
    def test_simulate_fixed_scheme(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = dispatch(
            [
                "simulate",
                "--fixed",
                "0,2",
                "--t",
                "8",
                "--snr",
                "0,10",
                "--frames",
                "2000",
                "--symbols-per-slot",
                "4",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["snr_db", "ser"]
        assert len(rows) == 3
        assert rows[1][4] == "fixed[0-2]"
        assert rows[1][5] == "clean"

    def test_simulate_from_set_rerun_identical(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        args = [
            "simulate",
            "--set",
            str(set_path),
            "--interference",
            "2",
            "--snr",
            "10",
            "--frames",
            "1024",
            "--symbols-per-slot",
            "4",
            "--seed",
            "3",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        dispatch(args + ["--out", str(a)])
        dispatch(args + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_fixed_needs_t(self, tmp_path, capsys):
        code = dispatch(
            ["simulate", "--fixed", "0,2", "--snr", "5", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 3
        assert "--t is required" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--fixed", "0", "--t", "0"], "frame size must be a positive int, got 0"),
            (["--fixed", "", "--t", "8"], "a scheme must use at least one slot per frame"),
            (["--fixed", "0", "--t", "8", "--frames", "0"],
             "frame count must be a positive int, got 0"),
        ],
        ids=["zero-t", "no-slots", "zero-frames"],
    )
    def test_simulate_bad_input_is_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "curve.csv"
        err = assert_config_error(capsys, ["simulate", *args, "--snr", "5", "--out", str(out)])
        assert err["message"] == message
        assert not out.exists()

    def test_simulate_beyond_int64_symbols_is_config_error(self, tmp_path, capsys):
        set_path, out = tmp_path / "s2.json", tmp_path / "c.csv"
        dispatch(["gen2", "--t", "8", "--levels", LEVELS8, "--rounds", "2", "--g", "3",
                  "--out", str(set_path)])
        capsys.readouterr()
        err = assert_config_error(
            capsys,
            ["simulate", "--set", str(set_path), "--snr", "1", "--frames", str(10**18),
             "--symbols-per-slot", "100", "--out", str(out)],
        )
        assert err["message"] == (
            "frames x symbols per slot x slots per frame must be at most 2**63 - 1, "
            f"got {10**18} x 100 x 4"
        )
        assert not out.exists()

    def test_simulate_missing_sequence_message(self, tmp_path, capsys):
        set_path, out = tmp_path / "s2.json", tmp_path / "c.csv"
        dispatch(gen2_args(set_path))
        capsys.readouterr()
        err = assert_config_error(
            capsys,
            ["simulate", "--set", str(set_path), "--level", "7", "--snr", "1", "--out", str(out)],
        )
        assert err["message"] == "no sequence for level 7, user 0"

    @pytest.mark.parametrize(
        "option, value, what",
        [
            ("--ipower-db", "1e308", "interference power"),
            ("--snr", "1e400", "SNR point"),
            ("--snr", "nan", "SNR point"),
            ("--ipower-db", "nan", "interference power"),
        ],
        ids=["ipower-overflow", "snr-inf", "snr-nan", "ipower-nan"],
    )
    def test_simulate_db_beyond_float_is_config_error(self, tmp_path, capsys, option, value, what):
        out = tmp_path / "o.csv"
        err = assert_config_error(
            capsys,
            ["simulate", "--fixed", "0,2", "--t", "8", "--frames", "10", "--seed", "1",
             "--out", str(out), "--interference", "0", option, value],
        )
        assert err["message"] == (
            f"{what} must be a finite dB value whose power ratio fits a float, got {float(value)!r}"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:inf:1", "expected start:stop:step or a comma list of dB values, got '0:inf:1'"),
            ("0:1e400:1", "expected start:stop:step or a comma list of dB values, got '0:1e400:1'"),
            ("nan:1:1", "expected start:stop:step or a comma list of dB values, got 'nan:1:1'"),
            ("0:1e6:1e-9", "SNR range '0:1e6:1e-9' has more than 10000 points"),
            ("0:10000:1", "SNR range '0:10000:1' has more than 10000 points"),
            ("1e300:1e300:1", "SNR range '1e300:1e300:1' has more than 10000 points"),
            ("1:2", "expected start:stop:step or a comma list of dB values, got '1:2'"),
        ],
        ids=["inf-stop", "overflow-stop", "nan-start", "tiny-step", "one-too-many", "stalled-step",
             "two-part-range"],
    )
    def test_snr_range_is_bounded(self, tmp_path, capsys, text, message):
        out = tmp_path / "o.csv"
        err = assert_usage_error(
            capsys, ["simulate", "--fixed", "0,2", "--t", "8", "--snr", text, "--out", str(out)]
        )
        assert err["message"] == f"hcs simulate: argument --snr: {message}"
        assert not out.exists()

    def test_snr_range_points(self):
        assert _parse_snr("0:14:1") == tuple(float(x) for x in range(15))
        assert _parse_snr("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert len(_parse_snr("0:9999:1")) == MAX_SNR_POINTS

    def test_compare_writes_rows(self, tmp_path, capsys):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        out = tmp_path / "cmp.csv"
        code = dispatch(
            [
                "compare",
                "--set",
                str(set_path),
                "--fixed",
                "0,2,4,5",
                "--interference",
                "2",
                "--snr",
                "10",
                "--frames",
                "4096",
                "--symbols-per-slot",
                "4",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "max fixed-minus-hcs delta" in capsys.readouterr().out
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "ser_fixed", "ser_hcs", "delta", "sigma", "hcs_worse"]
        assert len(rows) == 2
        assert float(rows[1][3]) > 0.0  # pinned slots lose at 10 dB


class TestPipeline:
    def test_happy_path(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        set_path = tmp_path / "set.json"
        plan.write_text(
            json.dumps(
                {
                    "stages": [
                        ["bound", "--t", "8", "--levels", LEVELS8],
                        gen2_args(set_path),
                        ["verify", str(set_path)],
                    ]
                }
            )
        )
        assert dispatch(["pipeline", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "[stage 0]" in out and "[stage 2]" in out
        assert set_path.exists()

    def test_empty_stage_list(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"stages": []}))
        assert dispatch(["pipeline", str(plan)]) == 0
        capsys.readouterr()

    def test_failing_stage_propagates(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"stages": [["gen1", "--t", "10", "--levels", "4:1", "--out", "x"]]})
        )
        assert dispatch(["pipeline", str(plan)]) == 3
        assert "failed with exit code 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, code, kind, message",
        [
            (["gen1", "--t", "10", "--levels", "4:1", "--out", "x"], 3, "config-error",
             "largest per-frame demand 4 must divide the frame size 10"),
            (["bound", "--t", "x"], 2, "usage", "hcs bound: argument --t: invalid int value: 'x'"),
            (["verify", "{set}"], 4, "verification-failed",
             "{set} failed verification: zero_correlation, occupancy, slot_coverage"),
        ],
        ids=["config", "usage", "verification"],
    )
    def test_failed_stage_is_one_json_line(self, tmp_path, capsys, stage, code, kind, message):
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        doc = json.loads(set_path.read_text())
        doc["sequences"][0]["frames"][0][0] = 1
        set_path.write_text(json.dumps(doc))
        plan = tmp_path / "plan.json"
        stages = [["bound", "--t", "8", "--levels", LEVELS8], [a.format(set=set_path) for a in stage]]
        plan.write_text(json.dumps({"stages": stages}))
        capsys.readouterr()
        assert dispatch(["pipeline", str(plan)]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": kind,
            "message": f"[stage 1] failed with exit code {code}: " + message.format(set=set_path),
        }

    def test_bare_stage_list_exits_5(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([["bound", "--t", "8", "--levels", LEVELS8]]))
        err = assert_schema_error(capsys, ["pipeline", str(plan)])
        assert err["message"] == f"{plan}: expected {{'stages': [[arg, ...], ...]}}"

    def test_malformed_plan_exits_5(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"stages": [["bound"], [1, 2]]}))
        assert dispatch(["pipeline", str(plan)]) == 5
        capsys.readouterr()

    def test_nested_pipeline_refused(self, tmp_path, capsys):
        # a plan that runs itself once recursed until Python's stack ran out
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"stages": [["bound", "--t", "8", "--levels", LEVELS8], ["pipeline", str(plan)]]})
        )
        err = assert_schema_error(capsys, ["pipeline", str(plan)])
        assert err["message"] == f"{plan}: a plan cannot run a pipeline stage"

    def test_stage_without_subcommand_refused(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"stages": [["bound", "--t", "8", "--levels", LEVELS8], []]}))
        assert_schema_error(capsys, ["pipeline", str(plan)])

    def test_demo_manifests_digest_the_files_on_disk(self, tmp_path, monkeypatch, capsys):
        shutil.copytree(DEMOS, tmp_path / "demos")
        monkeypatch.chdir(tmp_path)
        plan = json.loads((DEMOS / "full-run.json").read_text())["stages"]
        for run in range(2):
            # the second run rewrites every output in place
            assert dispatch(["pipeline", "demos/full-run.json"]) == 0
            capsys.readouterr()
            for stage in plan:
                manifest = read_manifest(Path(stage[stage.index("--out") + 1]))
                assert manifest["subcommand"] == stage[0]
                files = {**manifest["inputs"], **manifest["outputs"]}
                assert files, stage
                for name, digest in files.items():
                    assert digest == hashlib.sha256(Path(name).read_bytes()).hexdigest(), name

    def test_each_set_file_is_hashed_once_per_write_and_read(self, tmp_path, capsys, monkeypatch):
        set1 = tmp_path / "set1.json"
        gen1 = ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(set1)]
        dispatch(gen1)
        size = set1.stat().st_size
        hashed = []
        sha256 = hashlib.sha256

        def counting(data=b""):
            hashed.append(len(data))
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"stages": [gen1, ["verify", str(set1), "--out", str(tmp_path / "r.json")]]}))
        assert dispatch(["pipeline", str(plan)]) == 0
        capsys.readouterr()
        # gen1's write and verify's read; the manifests and the plan's kept
        # set reuse those digests
        assert hashed.count(size) == 2

    def test_rerun_byte_identical_outputs(self, tmp_path, capsys):
        digests = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            base.mkdir()
            set_path = base / "set.json"
            curve = base / "curve.csv"
            plan = base / "plan.json"
            plan.write_text(
                json.dumps(
                    {
                        "stages": [
                            gen2_args(set_path),
                            [
                                "simulate",
                                "--set",
                                str(set_path),
                                "--interference",
                                "2",
                                "--snr",
                                "10",
                                "--frames",
                                "512",
                                "--symbols-per-slot",
                                "4",
                                "--seed",
                                "1",
                                "--out",
                                str(curve),
                            ],
                        ]
                    }
                )
            )
            assert dispatch(["pipeline", str(plan)]) == 0
            digests.append(
                (
                    hashlib.sha256(set_path.read_bytes()).hexdigest(),
                    hashlib.sha256(curve.read_bytes()).hexdigest(),
                )
            )
        capsys.readouterr()
        assert digests[0] == digests[1]


class TestUnreadableJson:
    """Every JSON input fails the same way when it cannot be parsed."""

    PAYLOADS = {
        "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
        "int-beyond-digit-limit": b'{"stages": [' + b"1" * 5000 + b"]}",
        "not-utf8": b'{"stages": [["bound", "\xff"]]}',
    }

    @staticmethod
    def argv(kind, path, tmp_path):
        if kind == "set":
            return ["verify", str(path)]
        if kind == "plan":
            return ["pipeline", str(path)]
        out = str(tmp_path / "out.json")
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        return ["sac-trace", "--set", str(set_path), "--script", str(path), "--out", out]

    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    @pytest.mark.parametrize("kind", ["set", "script", "plan"])
    def test_exits_5_naming_the_file(self, tmp_path, capsys, kind, payload):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(self.PAYLOADS[payload])
        err = assert_schema_error(capsys, self.argv(kind, path, tmp_path))
        assert err["message"].startswith(f"{path}: ")
        assert not (tmp_path / "out.json").exists()


def _typed(value):
    """``value`` with the type of every part spelled out, so two values are
    equal only if their types are too; an array by dtype, shape, flag and values."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.flags.writeable, value.tolist())
    if isinstance(value, dict):
        return ("dict", sorted(((k, _typed(v)) for k, v in value.items()), key=lambda kv: kv[0]))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    return (type(value).__name__, value)


def _set_parts(hcs_set):
    """Every part of a set, typed: config, length, provenance and sequences."""
    cfg = hcs_set.config
    return _typed([
        type(hcs_set).__name__, type(cfg).__name__, cfg.t, cfg.seed,
        [(type(lv).__name__, lv.r, lv.u) for lv in cfg.levels],
        hcs_set.length, hcs_set.provenance,
        [(type(s).__name__, s.level, s.user, s.frames) for s in hcs_set.sequences],
    ])


class TestPipelineKeepsWrittenSets:
    """Within a plan, load_set gives back the set save_set wrote while the
    file still holds its bytes; the outputs stay those of separate runs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The sets cli's save_set and load_set saw, and verify's call count."""
        seen = {"saved": [], "loaded": [], "verify": 0}
        save, load, verify = core.save_set, core.load_set, verification.verify

        def saving(hcs_set, path):
            seen["saved"].append(hcs_set)
            save(hcs_set, path)

        def loading(path):
            seen["loaded"].append(load(path))
            return seen["loaded"][-1]

        def verifying(hcs_set):
            seen["verify"] += 1
            return verify(hcs_set)

        monkeypatch.setattr(cli, "save_set", saving)
        monkeypatch.setattr(cli, "load_set", loading)
        monkeypatch.setattr(verification, "verify", verifying)
        return seen

    @staticmethod
    def plan(tmp_path, stages):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"stages": stages}))
        return ["pipeline", str(path)]

    def test_loaded_sets_are_those_a_fresh_load_gives(self, tmp_path, capsys, calls):
        set1, set2 = tmp_path / "set1.json", tmp_path / "set2.json"
        stages = [
            ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(set1)],
            gen2_args(set2),
            ["verify", str(set1)],
            ["verify", str(set2)],
        ]
        assert dispatch(self.plan(tmp_path, stages)) == 0
        capsys.readouterr()
        # the plan handed back the very sets it saved, and they are the sets
        # a load outside any plan reads from the files
        assert [id(s) for s in calls["loaded"]] == [id(s) for s in calls["saved"]]
        for kept, path in zip(calls["loaded"], (set1, set2)):
            fresh = core.load_set(path)
            assert fresh is not kept
            assert _set_parts(kept) == _set_parts(fresh)

    def test_sac_trace_reuses_the_verify_stage_proof(self, tmp_path, capsys, calls):
        set1, script = tmp_path / "set1.json", tmp_path / "script.json"
        script.write_text(json.dumps([{"frame": 0, "action": "join", "user": "a", "level": 0}]))
        gen1 = ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(set1)]
        stages = [gen1, ["verify", str(set1)],
                  ["sac-trace", "--set", str(set1), "--script", str(script),
                   "--out", str(tmp_path / "trace.json")]]
        assert dispatch(self.plan(tmp_path, stages)) == 0
        assert calls["verify"] == 1
        # run one by one, each stage reads and proves the set afresh
        for stage in stages:
            assert dispatch(stage) == 0
        capsys.readouterr()
        assert calls["verify"] == 3

    def test_bytes_another_stage_wrote_are_parsed(self, tmp_path, capsys, calls):
        set2 = tmp_path / "set2.json"
        overwrite = ["bound", "--t", "8", "--levels", LEVELS8, "--out", str(set2)]
        stages = [gen2_args(set2), overwrite, ["verify", str(set2)]]
        assert dispatch(self.plan(tmp_path, stages)) == 5
        err = json.loads(capsys.readouterr().err)
        assert dispatch(["verify", str(set2)]) == 5
        alone = json.loads(capsys.readouterr().err)
        assert err["message"] == "[stage 2] failed with exit code 5: " + alone["message"]

    @pytest.mark.parametrize("edit", ["indent", "slot", "truncate"])
    def test_changed_bytes_are_parsed_as_outside_a_plan(self, tmp_path, set24, edit):
        path = tmp_path / "set.json"

        def outcome():
            try:
                return _set_parts(core.load_set(path))
            except SchemaError as exc:
                return str(exc)

        with core._keeping_written():
            core.save_set(set24, path)
            data = path.read_bytes()
            if edit == "indent":
                path.write_text(json.dumps(json.loads(data), indent=2))
            elif edit == "slot":
                # a digit before the first slot: another set, still canonical
                path.write_bytes(data.replace(b'{"frames":[[', b'{"frames":[[1', 1))
            else:
                path.write_bytes(data[:-10])
            inside = outcome()
        assert outcome() == inside
        if edit == "indent":
            assert inside == _set_parts(set24)

    def test_kept_set_refuses_to_be_made_writable(self, tmp_path, set128):
        path = tmp_path / "set.json"
        hcs_set = remake_set(set128, lambda i, frames: None)
        with core._keeping_written():
            core.save_set(hcs_set, path)
            assert core.load_set(path) is hcs_set
            # the kept set's tables cannot be written, so it stays the set
            # the file holds
            for frames in views(hcs_set.sequences[-1].frames):
                with pytest.raises(ValueError):
                    frames.setflags(write=True)
            assert core.load_set(path) is hcs_set
        assert _set_parts(hcs_set) == _set_parts(core.load_set(path))

    def test_outside_a_plan_nothing_is_kept(self, tmp_path, set24):
        path = tmp_path / "set.json"
        core.save_set(set24, path)
        assert core._written is None
        assert core.load_set(path) is not set24

    @pytest.mark.parametrize("last", ["verify", "missing"])
    def test_no_written_set_outlives_the_plan(self, tmp_path, capsys, calls, last):
        set1, set2 = tmp_path / "set1.json", tmp_path / "set2.json"
        stages = [
            ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "7", "--out", str(set1)],
            gen2_args(set2),
            ["verify", str(set2 if last == "verify" else tmp_path / "missing.json")],
        ]
        assert dispatch(self.plan(tmp_path, stages)) == (0 if last == "verify" else 5)
        capsys.readouterr()
        refs = [weakref.ref(s) for s in calls["saved"]]
        calls["saved"].clear()
        calls["loaded"].clear()
        gc.collect()
        assert len(refs) == 2
        assert [r() for r in refs] == [None, None]
        assert core._written is None
