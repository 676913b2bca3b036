import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import halfline_bethe
from halfline_bethe import cli
from halfline_bethe.asep_exact import prob_halfline
from halfline_bethe.bose_exact import images_kernel
from halfline_bethe.contour_quad import QuadOptions
from halfline_bethe.cli import cache_key, export, main
from halfline_bethe.scattering import AsepParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    rec = json.loads(out[-1]) if out else {}
    return code, rec


class TestCommands:
    def test_asep_prob_matches_library(self, capsys):
        code, rec = run_cli(capsys, "asep-prob", "--p", "0.4", "--Y", "0,2",
                            "--X", "1,3", "--t", "1")
        assert code == 0
        direct = prob_halfline((0, 2), (1, 3), 1.0, AsepParams.from_p(0.4))
        assert rec["value"] == direct.value  # bit-for-bit
        assert rec["points_used"] == direct.points_used

    def test_n4_record_is_the_library_default(self, capsys):
        # no --tol or --max-points: both record null, and the value is the
        # library's with no options, the N = 4 budget included
        code, rec = run_cli(capsys, "asep-prob", "--p", "0.4", "--Y", "0,1,2,3",
                            "--X", "0,1,2,4", "--t", "0.5")
        assert code == 0
        assert (rec["tol"], rec["max_points"]) == (None, None)
        direct = prob_halfline((0, 1, 2, 3), (0, 1, 2, 4), 0.5, AsepParams.from_p(0.4))
        assert rec["value"] == direct.value  # bit-for-bit
        assert rec["points_used"] == direct.points_used

    def test_n4_past_the_default_budget_exits_3_quickly(self, capsys):
        # at tol 1e-10 within 4096 points this refines to m = 512, where one
        # K4 tensor takes 2 GiB; the library's N = 4 budget stops at 96
        start = time.perf_counter()
        code, _ = run_cli(capsys, "asep-prob", "--p", "0.5", "--Y", "0,1,2,3",
                          "--X", "2,4,6,8", "--t", "10")
        assert code == 3
        assert time.perf_counter() - start < 5.0

    def test_only_the_given_quadrature_flags_are_passed(self):
        parser, _ = cli._build_parser()
        args = parser.parse_args(["asep-prob", "--max-points", "64"])
        assert cli._quad_opts(args) == QuadOptions(max_points=64)
        args = parser.parse_args(["bose-prop", "--tol", "1e-8"])
        assert cli._quad_opts(args) == QuadOptions(tol=1e-8)
        assert cli._quad_opts(parser.parse_args(["asep-n1"])) is None

    def test_delta_at_t_zero(self, capsys):
        code, rec = run_cli(capsys, "asep-prob", "--p", "0.5", "--Y", "0,2",
                            "--X", "0,2", "--t", "0")
        assert code == 0
        assert rec["value"] == pytest.approx(1.0, abs=1e-10)

    def test_asep_n1(self, capsys):
        code, rec = run_cli(capsys, "asep-n1", "--p", "0.3", "--Y", "2",
                            "--X", "4", "--t", "1.5")
        assert code == 0
        assert rec["term_count"] == 2

    def test_bose_prop(self, capsys):
        code, rec = run_cli(capsys, "bose-prop", "--c", "1.0", "--Y", "1.0",
                            "--X", "2.0", "--tau", "0.5")
        assert code == 0
        assert rec["value"] == pytest.approx(0.2375388761, abs=1e-9)

    def test_bose_prop_with_tol_keeps_grid_resolution(self, capsys):
        code, rec = run_cli(capsys, "bose-prop", "--c", "1", "--Y", "3.0",
                            "--X", "3.5", "--tau", "0.002", "--tol", "1e-9")
        assert code == 0
        assert abs(rec["value"] - images_kernel(3.5, 3.0, 0.002)) < 1e-12

    def test_validate_identities_passes(self, capsys):
        code, rec = run_cli(capsys, "validate-identities", "--N", "2",
                            "--seed", "7")
        assert code == 0
        assert rec["all_passed"] is True
        assert all(line.startswith("PASS") for line in rec["checks"])

    def test_records_name_window_n_and_draws(self, capsys):
        _, rec = run_cli(capsys, "mc-compare", "--p", "0.4", "--Y", "0,2",
                         "--X", "1,3", "--t", "1", "--trials", "200",
                         "--window", "0,12")
        assert rec["window"] == [0, 12]
        _, rec = run_cli(capsys, "validate-identities", "--N", "1",
                         "--draws", "5")
        assert (rec["N"], rec["draws"]) == (1, 5)

    def test_mc_compare(self, capsys):
        code, rec = run_cli(capsys, "mc-compare", "--p", "0.4", "--Y", "0,2",
                            "--X", "1,3", "--t", "1", "--trials", "20000",
                            "--seed", "5")
        assert code == 0
        assert abs(rec["mc_delta"]) <= 4.0 * rec["mc_std_error"]
        assert rec["oracle_delta"] == pytest.approx(0.0, abs=1e-9)


class TestExitCodes:
    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "halfline_bethe.cli", "asep-prob",
             "--p", "0.4", "--Y", "0,2", "--t", "1"],
            capture_output=True)
        assert proc.returncode == 2

    def test_invalid_parameters_is_2(self, capsys):
        code, _ = run_cli(capsys, "asep-prob", "--p", "0.4", "--Y", "2,0",
                          "--X", "1,3", "--t", "1")
        assert code == 2

    @pytest.mark.parametrize("command,y,x,radii", [
        pytest.param("asep-prob", "0,2", "1,3", "3.0", id="3.0"),
        pytest.param("asep-prob", "0,2", "1,3", "3.0,4.0,5.0", id="3.0,4.0,5.0"),
        # an empty list once raised IndexError (exit 1), and the one-circle
        # commands silently used the first of several radii
        pytest.param("asep-prob", "0,2", "1,3", ",", id="asep-prob-none"),
        pytest.param("asep-n1", "0", "2", ",", id="asep-n1-none"),
        pytest.param("asep-n1", "0", "2", "3.0,4.0", id="asep-n1-two"),
        pytest.param("asep-fullline", "0,2", "1,3", ",", id="asep-fullline-none"),
        pytest.param("asep-fullline", "0,2", "1,3", "3.0,4.0", id="asep-fullline-two"),
    ])
    def test_wrong_number_of_radii_is_2(self, capsys, command, y, x, radii):
        code, _ = run_cli(capsys, command, "--p", "0.4", "--Y", y, "--X", x,
                          "--t", "1", "--radii", radii)
        assert code == 2

    @pytest.mark.parametrize("command,y,x,radii", [
        ("asep-n1", "0", "2", "0.5"),
        ("asep-prob", "0,2", "1,3", "0.5,0.8"),
    ])
    def test_radii_leaving_a_pole_outside_are_2(self, capsys, command, y, x, radii):
        # at p = 0.4 the center 1/(2q) sits 5/6 from the pole at 0
        code, _ = run_cli(capsys, command, "--p", "0.4", "--Y", y, "--X", x,
                          "--t", "1", "--radii", radii)
        assert code == 2

    def test_mc_compare_target_outside_the_window_is_2(self, capsys):
        # the oracle once recorded 0.0 against an exact 7.2e-6 and exited 1
        code, rec = run_cli(capsys, "mc-compare", "--p", "0.4", "--Y", "0,2",
                            "--X", "1,7", "--t", "1", "--window", "0,5")
        assert (code, rec) == (2, {})

    @pytest.mark.parametrize("p", ["1.5", "-0.3"])
    @pytest.mark.parametrize("command,y,x", [
        ("asep-prob", "0,2", "1,3"), ("asep-fullline", "0,2", "1,3"),
        ("asep-n1", "0", "2"), ("mc-compare", "0,2", "1,3"),
    ])
    def test_p_outside_the_unit_interval_is_2(self, capsys, command, y, x, p):
        code, _ = run_cli(capsys, command, "--p", p, "--Y", y, "--X", x, "--t", "1")
        assert code == 2

    @pytest.mark.parametrize("t", ["nan", "inf"])
    @pytest.mark.parametrize("command,y,x", [
        ("asep-prob", "0,2", "1,3"), ("asep-fullline", "0,2", "1,3"),
        ("asep-n1", "0", "2"), ("mc-compare", "0,2", "1,3"),
    ])
    def test_non_finite_time_is_2(self, capsys, command, y, x, t):
        code, _ = run_cli(capsys, command, "--p", "0.4", "--Y", y, "--X", x, "--t", t)
        assert code == 2

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("fullline", [False, True])
    def test_non_finite_bose_positions_are_2(self, capsys, bad, fullline):
        for y, x in (("1.0", bad), (bad, "2.0")):
            argv = ["bose-prop", "--c", "1", f"--Y={y}", f"--X={x}", "--tau", "0.5"]
            assert main(argv + (["--fullline"] if fullline else [])) == 2
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [("--N", "5"), ("--N", "8"),
                                      ("--N", "4", "--draws", "10000000")],
                             ids=["N5", "N8", "draws"])
    def test_oversized_identity_suite_is_2(self, capsys, size):
        # N = 5 ran 40 s; N = 8, or 10^7 draws at N = 4, would need tens of GB
        start = time.perf_counter()
        code = main(["validate-identities", *size])
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and "error:" in out.err

    @pytest.mark.parametrize("trials,t", [("1000000000", "1"), ("1", "1000000")],
                             ids=["trials", "time"])
    def test_oversized_monte_carlo_is_2(self, capsys, monkeypatch, trials, t):
        # 10^9 trials would run about 10 minutes, one trial to t = 10^6 about
        # 2 (60 us per lockstep step); the guard refuses both before anything runs
        def never(*args, **kwargs):
            raise AssertionError("the evaluation started")

        for name in ("prob_halfline", "ctmc_prob"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.setattr(halfline_bethe._kernels, "gillespie_hits", never)
        code = main(["mc-compare", "--p", "0.4", "--Y", "0,2", "--X", "1,3",
                     "--t", t, "--trials", trials])
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and "MAX_MC_JUMPS" in out.err

    @pytest.mark.parametrize("argv", [
        ("asep-prob", "--p", "0.4", "--Y", "0,2", "--X", "1,3", "--t", "1",
         "--seed", "3"),
        ("validate-asep", "--draws", "5"),
        ("validate-bose", "--p", "0.3"),
    ])
    def test_removed_flags_are_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_config_key_without_flag_is_2(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 3, "bogus": 1}))
        code = main(["asep-n1", "--p", "0.3", "--Y", "1", "--X", "2", "--t", "1",
                     "--config", str(conf)])
        assert code == 2
        assert "bogus, seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,conf", [
        (("asep-n1", "--p", "0.3", "--Y", "1", "--X", "2", "--t", "1"),
         {"max-points": [1]}),
        (("bose-prop", "--c", "1", "--Y", "1.0", "--X", "2.0", "--tau", "0.5"),
         {"fullline": "false"}),
    ])
    def test_config_value_of_wrong_type_is_2(self, capsys, tmp_path, argv, conf):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        code = main([*argv, "--config", str(path)])
        assert code == 2
        assert "config value" in capsys.readouterr().err

    def test_nonconvergence_is_3(self, capsys):
        code, _ = run_cli(capsys, "asep-prob", "--p", "0.4", "--Y", "0,2",
                          "--X", "1,3", "--t", "1", "--max-points", "16")
        assert code == 3

    def test_a_bose_first_grid_above_max_points_is_3(self, capsys):
        # its first line grid has 116 points; the cap was once raised to 928
        code = main(["bose-prop", "--c", "0.5", "--Y", "0.5,1.3,2.4", "--X", "0.9,1.7,3.0",
                     "--tau", "0.2", "--max-points", "64"])
        assert code == 3
        assert "max_points=64" in capsys.readouterr().err


    @pytest.mark.parametrize("command,y,x", [
        ("asep-prob", "0", "1500"), ("asep-prob", "0,2", "1,1500"),
        ("asep-fullline", "0", "800"), ("asep-fullline", "0,2", "1,900"),
    ])
    def test_an_overflowing_level_is_3(self, capsys, command, y, x):
        # these once escaped as OverflowError, a traceback and exit 1, and
        # then printed numpy's RuntimeWarnings ahead of their error line
        code = main([command, "--p", "0.4", "--Y", y, "--X", x, "--t", "0.5",
                     "--max-points", "64"])
        out = capsys.readouterr()
        assert code == 3 and out.out == "" and "not finite" in out.err
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["asep-prob", "asep-fullline"])
    @pytest.mark.parametrize("x", ["9007199254740993", "1" * 400], ids=["2^53+1", "400-digits"])
    def test_a_site_beyond_double_precision_is_2(self, capsys, command, x):
        code = main([command, "--p", "0.4", "--Y", "0", "--X", x, "--t", "0.5"])
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and "2^53" in out.err

    def test_running_out_of_memory_is_3(self, capsys, monkeypatch):
        # an N = 4 level at m = 512 asks for 2 GiB K4 buffers; a traceback
        # and exit 1 once followed
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array with shape "
                              "(512, 512, 512) and data type complex128")

        monkeypatch.setattr(cli, "prob_halfline", exhausted)
        code = main(["asep-prob", "--p", "0.5", "--Y", "0,1,2,3", "--X", "2,4,6,8",
                     "--t", "10", "--tol", "1e-10"])
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert out.err.count("\n") == 1 and "out of memory" in out.err and "2.00 GiB" in out.err


class TestCacheKey:
    BASE = {"command": "asep-prob", "p": 0.4, "Y": [0, 2], "X": [1, 3], "t": 1.0}

    def test_identical_specs_same_key(self):
        assert cache_key(dict(self.BASE)) == cache_key(dict(self.BASE))

    def test_any_field_change_changes_key(self):
        for field, value in (("t", 2.0), ("p", 0.5), ("X", [1, 4])):
            changed = dict(self.BASE)
            changed[field] = value
            assert cache_key(changed) != cache_key(self.BASE)

    def test_flag_order_irrelevant(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        _, rec1 = run_cli(capsys, "asep-n1", "--p", "0.3", "--Y", "1",
                          "--X", "2", "--t", "1")
        _, rec2 = run_cli(capsys, "asep-n1", "--t", "1", "--X", "2",
                          "--Y", "1", "--p", "0.3")
        assert rec1["spec_key"] == rec2["spec_key"]

    def test_an_entry_from_other_sources_is_a_miss(self, capsys, tmp_path, monkeypatch):
        # the key once held only the arguments, so after a change to the
        # library an entry kept serving the old code's value
        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        args = ("asep-n1", "--p", "0.3", "--Y", "1", "--X", "2", "--t", "1")
        _, first = run_cli(capsys, *args)
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        code, rec = run_cli(capsys, *args)
        assert code == 0 and rec["cached"] is False
        assert rec["spec_key"] != first["spec_key"]
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cache_hit_marks_record(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        code, rec1 = run_cli(capsys, "asep-n1", "--p", "0.3", "--Y", "1",
                             "--X", "2", "--t", "1")
        assert code == 0 and rec1["cached"] is False
        code, rec2 = run_cli(capsys, "asep-n1", "--p", "0.3", "--Y", "1",
                             "--X", "2", "--t", "1")
        assert code == 0 and rec2["cached"] is True
        assert rec2["value"] == rec1["value"]


class TestCacheEntries:
    ARGS = ("asep-prob", "--p", "0.4", "--Y", "0,2", "--X", "1,3", "--t", "1")

    @pytest.mark.parametrize("damage", [
        lambda text: text[:40], lambda text: "[1, 2]", lambda text: "{}",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "value"}),
        lambda text: json.dumps({**json.loads(text), "spec_key": "0" * 64}),
    ], ids=["truncated", "list", "empty", "no-value", "other-key"])
    def test_a_damaged_entry_is_a_miss(self, capsys, tmp_path, monkeypatch, damage):
        # a truncated entry once failed every later run with exit 2, a JSON
        # list with a TypeError traceback; an empty object, or one without a
        # value, was served as a hit with no value and exit 0
        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        _, first = run_cli(capsys, *self.ARGS)
        entry = tmp_path / (first["spec_key"] + ".json")
        entry.write_text(damage(entry.read_text()))
        code, rec = run_cli(capsys, *self.ARGS)
        assert code == 0 and rec["cached"] is False
        assert rec["value"] == first["value"]
        assert json.loads(entry.read_text()) == rec
        code, rec = run_cli(capsys, *self.ARGS)
        assert code == 0 and rec["cached"] is True

    @pytest.mark.parametrize("argv", [
        ("asep-prob", "--p", "0.4", "--Y", "0", "--X", "1", "--t", "1"),
        ("asep-fullline", "--p", "0.4", "--Y", "0", "--X", "1", "--t", "1"),
        ("asep-n1", "--p", "0.4", "--Y", "0", "--X", "1", "--t", "1"),
        ("bose-prop", "--c", "1", "--Y", "1.0", "--X", "2.0", "--tau", "0.5"),
        ("mc-compare", "--p", "0.4", "--Y", "0", "--X", "1", "--t", "1",
         "--trials", "100"),
        ("validate-identities", "--N", "1", "--draws", "5"),
    ], ids=lambda argv: argv[0])
    def test_every_command_record_is_a_hit(self, capsys, tmp_path, monkeypatch, argv):
        # the fields a cached entry must hold are those its command records
        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        _, first = run_cli(capsys, *argv)
        _, again = run_cli(capsys, *argv)
        assert first["cached"] is False and again["cached"] is True

    def test_a_command_without_fields_is_a_miss(self, capsys, tmp_path, monkeypatch):
        # a command missing from RESULT_FIELDS runs uncached instead of
        # ending every cached run in a KeyError
        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        _, first = run_cli(capsys, *self.ARGS)
        entry = str(tmp_path / (first["spec_key"] + ".json"))
        assert cli._read_cached(entry, first["spec_key"], "asep-prob") is not None
        monkeypatch.delitem(cli.RESULT_FIELDS, "asep-prob")
        assert cli._read_cached(entry, first["spec_key"], "asep-prob") is None
        code, rec = run_cli(capsys, *self.ARGS)
        assert code == 0 and rec["cached"] is False

    def test_a_failed_write_leaves_no_entry(self, capsys, tmp_path, monkeypatch):
        # the entry was written in place, so a run stopped mid-write left a
        # partial one at the key
        def dump(obj, fh, **kwargs):
            fh.write('{"value": ')
            raise OSError("no space left on device")

        monkeypatch.setenv("HALFLINE_BETHE_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(json, "dump", dump)
        code, _ = run_cli(capsys, *self.ARGS)
        assert code == 2
        assert list(tmp_path.iterdir()) == []


class TestExport:
    RECORDS = [
        {"command": "asep-prob", "p": 0.4, "Y": [0, 2], "X": [1, 3],
         "t": 1.0, "value": 0.25, "cached": False},
        {"command": "asep-prob", "p": 0.4, "Y": [0, 2], "X": [0, 3],
         "t": 1.0, "value": 0.125, "cached": False},
    ]

    def test_empty_records_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export([], "json", str(path))
        assert path.read_text() == ""
        path = tmp_path / "empty.csv"
        export([], "csv", str(path))
        assert path.read_text() == ""

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        export(self.RECORDS, "json", str(path))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert parsed == self.RECORDS

    def test_csv_columns_fixed(self, tmp_path):
        path = tmp_path / "out.csv"
        export(self.RECORDS, "csv", str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        from halfline_bethe.cli import CSV_COLUMNS
        assert rows[0] == CSV_COLUMNS
        # list fields are ';'-joined
        y_col = CSV_COLUMNS.index("Y")
        assert rows[1][y_col] == "0;2"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export(self.RECORDS, "xml", str(tmp_path / "x"))

    def test_unwritable_out_is_2(self, capsys, tmp_path):
        # the export ran outside main's error handling: a traceback, exit 1
        code = main(["asep-prob", "--p", "0.4", "--Y", "0,2", "--X", "1,3",
                     "--t", "1", "--out", str(tmp_path / "missing" / "x.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_format_without_out_is_2(self, capsys, tmp_path, via):
        # it once did nothing: the record went to stdout alone
        argv = ["asep-n1", "--p", "0.3", "--Y", "0", "--X", "1", "--t", "0.5"]
        if via == "flag":
            argv += ["--format", "csv"]
        else:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"format": "csv"}))
            argv += ["--config", str(conf)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--out" in captured.err
        # with --out it sets the file's format
        out = tmp_path / "run.csv"
        assert main([*argv, "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == cli.CSV_COLUMNS

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        code, rec = run_cli(capsys, "asep-n1", "--p", "0.3", "--Y", "0",
                            "--X", "1", "--t", "0.5", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["value"] == rec["value"]


def test_config_file_merges_under_flags(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"p": 0.3, "t": 1.0, "Y": "1", "X": "2"}))
    code, rec = run_cli(capsys, "asep-n1", "--p", "0.4", "--Y", "1",
                        "--X", "2", "--t", "1", "--config", str(conf))
    # explicit flag --p wins over the config value
    assert code == 0
    assert rec["p"] == 0.4


def test_config_switch_takes_a_boolean(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"fullline": False}))
    code, rec = run_cli(capsys, "bose-prop", "--c", "1.0", "--Y", "1.0",
                        "--X", "2.0", "--tau", "0.5", "--config", str(conf))
    assert code == 0
    assert rec["value"] == pytest.approx(0.2375388761, abs=1e-9)


def test_config_file_supplies_flags(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"p": 0.3, "t": "1.5", "Y": "2", "X": "4",
                                "max-points": 512}))
    code, rec = run_cli(capsys, "asep-n1", "--config", str(conf))
    _, direct = run_cli(capsys, "asep-n1", "--p", "0.3", "--Y", "2", "--X", "4",
                        "--t", "1.5", "--max-points", "512")
    assert code == 0
    assert (rec["t"], rec["max_points"]) == (1.5, 512)
    assert rec["value"] == direct["value"]


def test_runtime_loads_no_scipy():
    # scipy is a test-only dependency: the library and the CLI run on numpy
    script = ("import sys\n"
              "import halfline_bethe\n"
              "from halfline_bethe.cli import main\n"
              "code = main(['asep-n1', '--p', '0.4', '--Y', '0', '--X', '2', '--t', '1'])\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(halfline_bethe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
