import csv
import hashlib
import json

import pytest

from hcskit import check_bound, enumerate_user_counts, load_set, SystemConfig
from hcskit.cli import dispatch

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
        "--order-mode",
        "compat",
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


class TestUsage:
    def test_no_arguments(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert dispatch(["gen1", "--t", "24"]) == 2
        capsys.readouterr()

    def test_malformed_levels(self, capsys):
        assert dispatch(["bound", "--t", "8", "--levels", "2:3:4"]) == 2
        capsys.readouterr()

    def test_version_exits_clean(self, capsys):
        assert dispatch(["--version"]) == 0
        capsys.readouterr()

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
        capsys.readouterr()


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

    def test_injected_drivers(self, tmp_path, capsys):
        drivers = tmp_path / "drivers.json"
        drivers.write_text(
            json.dumps({"selector": [0] * 144, "level_base": [[0] * 144] * 3})
        )
        out = tmp_path / "set.json"
        code = dispatch(
            [
                "gen1",
                "--t",
                "24",
                "--levels",
                LEVELS24,
                "--seed",
                "0",
                "--drivers",
                str(drivers),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        built = load_set(out)
        assert built.provenance["params"]["drivers"] == "injected"
        assert built.sequence(0, 0).frame(0) == (0, 15)
        assert str(drivers) in read_manifest(out)["inputs"]

    @pytest.mark.parametrize("value", [-1, 10**30, "x"], ids=["negative", "beyond-uint64", "string"])
    def test_selector_not_uint64_exits_5(self, tmp_path, capsys, value):
        drivers = tmp_path / "drivers.json"
        drivers.write_text(
            json.dumps({"selector": [value] + [0] * 143, "level_base": [[0] * 144] * 3})
        )
        out = tmp_path / "set.json"
        argv = ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "0",
                "--drivers", str(drivers), "--out", str(out)]
        err = assert_schema_error(capsys, argv)
        assert err["message"].startswith(f"{drivers}: driver streams")
        assert not out.exists()

    def test_invalid_config_exits_3(self, tmp_path, capsys):
        code = dispatch(
            ["gen1", "--t", "10", "--levels", "4:1", "--seed", "1", "--out", str(tmp_path / "x.json")]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "divide the frame size" in err["message"]


class TestGen2:
    def test_matches_library_output(self, tmp_path, capsys, set128):
        from hcskit import dumps_document, to_document

        out = tmp_path / "set2.json"
        assert dispatch(gen2_args(out)) == 0
        capsys.readouterr()
        assert out.read_text() == dumps_document(to_document(set128))

    def test_true_order_rejects_modulus(self, tmp_path, capsys):
        args = [
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
            str(tmp_path / "x.json"),
        ]
        assert dispatch(args) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "config-error"


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
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_report_file_written_on_failure(self, tmp_path, capsys):
        path = self.make_set(tmp_path, capsys)
        doc = json.loads(path.read_text())
        doc["sequences"][0]["frames"][0][0] = 1
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert dispatch(["verify", str(path), "--out", str(report)]) == 4
        capsys.readouterr()
        assert json.loads(report.read_text())["passed"] is False

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

    @pytest.mark.parametrize("key, value", [("d", "x"), ("n", -2)])
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
        assert str(audit) in manifest["outputs"]

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
            ({"action": "join", "user": "B", "level": 0}, "frame must be an integer >= 0"),
            ({"frame": -1, "action": "leave", "user": "A"}, "frame must be an integer >= 0"),
            ({"frame": "2", "action": "leave", "user": "A"}, "frame must be an integer >= 0"),
            ({"frame": 2.5, "action": "leave", "user": "A"}, "frame must be an integer >= 0"),
            ({"frame": 2, "action": "leave"}, "user must be a name"),
            ({"frame": 2, "action": "join", "user": ["B"], "level": 0}, "user must be a name"),
            ({"frame": 2, "action": "join", "user": "B"}, "a join needs an integer level"),
            ({"frame": 2, "action": "join", "user": "B", "level": None}, "a join needs an integer level"),
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
        assert not out.exists()

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
        if kind == "drivers":
            return ["gen1", "--t", "24", "--levels", LEVELS24, "--seed", "0",
                    "--drivers", str(path), "--out", out]
        set_path = tmp_path / "set2.json"
        dispatch(gen2_args(set_path))
        return ["sac-trace", "--set", str(set_path), "--script", str(path), "--out", out]

    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    @pytest.mark.parametrize("kind", ["set", "script", "plan", "drivers"])
    def test_exits_5_naming_the_file(self, tmp_path, capsys, kind, payload):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(self.PAYLOADS[payload])
        err = assert_schema_error(capsys, self.argv(kind, path, tmp_path))
        assert err["message"].startswith(f"{path}: ")
        assert not (tmp_path / "out.json").exists()
