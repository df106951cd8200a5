"""Command-line harness: subcommands, exit codes, CSV artifacts."""

import argparse
import csv
import hashlib
import re
from pathlib import Path

import pytest

from descattn.cli import (SWEEP_COLUMNS, EXIT_IO, EXIT_OK, EXIT_USAGE,
                          EXIT_VERIFY, RunSpec, _build_parser, main, run_from_row,
                          sweep)

# histogram reads no compression, stream or layer setting, and flops no seed
TOKENS = ["--frames", "2", "--grid", "4x4", "--channels", "16", "--heads", "2"]
TINY_HISTOGRAM = [*TOKENS, "--seed", "3"]
TINY_FLOPS = [*TOKENS, "--ratio", "2", "--layers", "1"]
TINY = [*TINY_FLOPS, "--seed", "3"]
TINY_OF = {"flops": TINY_FLOPS, "histogram": TINY_HISTOGRAM}


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestVerify:
    def test_passing_checks_exit_ok(self, monkeypatch, capsys):
        from descattn import verify as verify_mod

        monkeypatch.setattr(verify_mod, "CHECKS", [("forced.pass", lambda seed: None)])
        assert main(["verify", "--seed", "7"]) == EXIT_OK
        assert capsys.readouterr().out == "PASS forced.pass\n"


class TestFlops:
    def test_production_configuration_prints_reduction(self, tmp_path, capsys):
        code = main(["flops", "--frames", "1000", "--grid", "37x37", "--ratio", "4",
                     "--aux", "--interval", "200", "--channels", "16", "--heads", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "14.58" in out
        assert "15.76" in out
        rows = read_csv(tmp_path / "flops.csv")
        assert {r["mode"] for r in rows} == {"dense", "descriptor"}

    def test_markdown_table_written(self, tmp_path):
        code = main(["flops", *TINY_FLOPS, "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = (tmp_path / "flops.md").read_text()
        assert text.startswith("| Metric | Mode |")

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_is_usage_error(self, frames, tmp_path, capsys):
        code = main(["flops", "--frames", frames, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "invalid configuration: frames must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "flops.csv").exists()


class TestBench:
    def test_artifacts_and_schema(self, tmp_path):
        code = main(["bench", *TINY, "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["failures.csv", "sweep.csv"]
        assert ",".join(SWEEP_COLUMNS) == (
            "run_id,mode,S,r,p,c,method,selector,interval,aux,layers,channels,heads,"
            "grid,camera,register,seed,precision,tokens,cache_tokens,checksum")
        rows = read_csv(tmp_path / "sweep.csv")
        assert list(rows[0].keys()) == list(SWEEP_COLUMNS)
        assert [r["mode"] for r in rows] == ["dense", "descriptor", "stream"]
        assert read_csv(tmp_path / "failures.csv") == []

    def test_ratio_sweep_produces_a_row_per_value(self, tmp_path):
        code = main(["bench", "--frames", "2", "--grid", "8x8", "--channels", "16",
                     "--heads", "2", "--layers", "1", "--ratio", "1,2,4,8",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert {r["r"] for r in rows} == {"1", "2", "4", "8"}

    def test_v1_layout_and_replay(self):
        # three sweep.csv rows of TINY as the v1 writer left them; v2 dropped
        # the repeat and wall_ms columns, and v1 rows still replay
        text = ("run_id,repeat,mode,S,r,p,c,method,selector,interval,aux,layers,"
                "channels,heads,grid,camera,register,seed,precision,wall_ms,tokens,"
                "cache_tokens,checksum\n"
                "0,0,dense,2,2,5,10,bilinear,cluster,200,True,1,16,2,4x4,1,4,3,f32,"
                "1.631,42,0,99abc73ad103f359\n"
                "0,0,descriptor,2,2,5,10,bilinear,cluster,200,True,1,16,2,4x4,1,4,3,"
                "f32,2.099,42,0,4f53602b0de3d15d\n"
                "0,0,stream,2,2,5,10,bilinear,cluster,200,True,1,16,2,4x4,1,4,3,f32,"
                "2.178,42,25,4f53602b0de3d15d\n")
        v1_columns = text.splitlines()[0].split(",")
        assert [c for c in v1_columns if c not in ("repeat", "wall_ms")] == list(SWEEP_COLUMNS)
        for row in csv.DictReader(text.splitlines()):
            assert run_from_row(row) == row["checksum"]

    def test_empty_spec_writes_header_only(self, tmp_path):
        sweep([], tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == ",".join(SWEEP_COLUMNS)

    def test_failure_manifest_preserves_partial_results(self, tmp_path):
        rows, _ = sweep([RunSpec(frames=2, grid=(4, 4), channels=16, heads=2,
                                 ratio=2, layers=1),
                         RunSpec(frames=2, grid=(4, 4), channels=16, heads=2,
                                 ratio=9, layers=1)], tmp_path)
        assert rows, "the valid run must still produce rows"
        failures = read_csv(tmp_path / "failures.csv")
        assert len(failures) == 1 and failures[0]["run_id"] == "1"

    def test_failed_configuration_exits_nonzero(self, tmp_path, capsys):
        args = ["bench", "--grid", "4x4", "--channels", "16", "--heads", "2",
                "--frames", "2", "--layers", "1", "--out", str(tmp_path)]
        assert main([*args, "--ratio", "2,9"]) == EXIT_USAGE
        assert "1 of 2 configurations failed" in capsys.readouterr().err
        rows = read_csv(tmp_path / "sweep.csv")
        assert [(r["run_id"], r["mode"]) for r in rows] == [
            ("0", "dense"), ("0", "descriptor"), ("0", "stream")]
        assert [r["run_id"] for r in read_csv(tmp_path / "failures.csv")] == ["1"]
        # a clean rerun into the same directory leaves no stale failure
        assert main([*args, "--ratio", "2"]) == EXIT_OK
        assert (tmp_path / "failures.csv").read_text().splitlines() == ["run_id,error"]


class TestStreamAndHistogram:
    def test_stream_writes_cache_report(self, tmp_path, capsys):
        code = main(["stream", "--frames", "6", "--chunk", "2", "--retain", "2",
                     *TINY[2:], "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "cache_report.csv")
        assert len(rows) == 1  # one layer
        assert "ratio_vs_full" in capsys.readouterr().out

    def test_stream_output_is_pinned(self, tmp_path, capsys):
        # S=6, p=2, 4x4 grid at r=2, anchors on: frames 0, 2 and 4 keep
        # 4 descriptors each, plus the 21 verbatim first-frame tokens
        code = main(["stream", "--frames", "6", "--chunk", "2", "--retain", "2",
                     *TINY[2:], "--aux", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "cache_report.csv").read_bytes() == (
            b"layer,total_tokens,compressed_tokens,aux_tokens,bytes,"
            b"ratio_vs_full_token_cache\r\n"
            b"0,33,12,21,2112,0.26190476\r\n")
        assert capsys.readouterr().out == \
            "frames=6 cache_tokens=33 ratio_vs_full=0.261905\n"

    def test_histogram_files(self, tmp_path):
        code = main(["histogram", *TINY_HISTOGRAM, "--out", str(tmp_path)])
        assert code == EXIT_OK
        for mode in ("frame", "global"):
            rows = read_csv(tmp_path / f"histogram_{mode}.csv")
            assert len(rows) == 64
            total = sum(int(r["count"]) for r in rows)
            assert total > 0


class TestOutputPins:
    """sha256 of each report file, and of ``flops``'s standard output, for
    each command's tiny argv: a change to a CSV layout or to the numbers
    behind it shows here."""

    @pytest.mark.parametrize("command,name,digest", [
        ("flops", "flops.csv",
         "2d798f688b1bc59ebfb57eda0ce75da0d9de21c5868aa04be6839a63b40299ac"),
        ("flops", "flops.md",
         "ea480932cdc2b15277907c729dc2879835bb5e1b2646d5b4a69d7b8d953d40d2"),
        ("flops", "stdout",
         "695ef0ff9a82d760457243a0a204ad6ec17837922f35c07339ee7111bfb58f72"),
        ("stream", "cache_report.csv",
         "93021c05b5726742c4ad0a5d207cf73f5d72cf32be795c236baff52d898e71b8"),
        ("histogram", "histogram_frame.csv",
         "773ceceed98149b6dc6d3331a3cddd4dfd2653a343924f69809852dce3b74ccc"),
        ("histogram", "histogram_global.csv",
         "9fc045e6dbd0f6ce4ac1b97c0a1695a8a6c9b48e26805174aa7072aa4f53a157"),
    ], ids=["flops", "flops_md", "flops_stdout", "cache_report", "histogram_frame",
            "histogram_global"])
    def test_report_bytes_are_pinned(self, command, name, digest, tmp_path, capsys):
        tiny = TINY_OF.get(command, TINY)
        assert main([command, *tiny, "--out", str(tmp_path)]) == EXIT_OK
        data = (capsys.readouterr().out.encode() if name == "stdout"
                else (tmp_path / name).read_bytes())
        assert hashlib.sha256(data).hexdigest() == digest


class TestExitCodes:
    @pytest.mark.parametrize("command", ["verify", "bench", "stream", "histogram"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        out = [] if command == "verify" else ["--out", str(tmp_path)]
        assert main([command, "--seed", "-1", *out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "invalid configuration: seed must be >= 0, got -1\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["bench", "--bogus"]) == EXIT_USAGE
        # flops always writes both of its tables, so no subcommand takes --format
        for command in ("bench", "flops", "stream", "histogram"):
            assert main([command, *TINY_OF.get(command, TINY), "--format", "md",
                         "--out", str(tmp_path)]) == EXIT_USAGE, command

    def test_setting_the_command_does_not_read_is_usage_error(self, tmp_path, capsys):
        # flops reads no stream, selector, precision or seed setting,
        # histogram only the token, head, seed and precision settings, and
        # verify only its seed: the others are unknown flags and keys
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        for command, key, value in (("flops", "chunk", "0"), ("flops", "retain", "0"),
                                    ("flops", "precision", "f64"),
                                    ("flops", "selector", "random"),
                                    ("flops", "seed", "-1"),
                                    ("histogram", "ratio", "99"), ("histogram", "layers", "0"),
                                    ("histogram", "interval", "0"),
                                    ("histogram", "method", "topk_norm")):
            cfg.write_text(f"{key}={value}\n")
            for flags in ([f"--{key}", value], ["--config", str(cfg)]):
                assert main([command, *flags, "--out", str(out)]) == EXIT_USAGE
                assert f"--{key}" in capsys.readouterr().err, (command, flags)
        cfg.write_text("seed=1\n")
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("frames", ["", ","], ids=["empty", "comma"])
    def test_empty_list_is_usage_error(self, frames, tmp_path, capsys):
        assert main(["bench", *TINY, "--frames", frames, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "expected at least one integer" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_combination_is_usage_error(self, tmp_path, capsys):
        code = main(["flops", "--grid", "4x4", "--ratio", "9",
                     "--channels", "16", "--heads", "2", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "invalid" in capsys.readouterr().err
        for command in ("flops", "stream", "histogram"):
            for heads in ("0", "-1"):
                code = main([command, "--heads", heads, "--out", str(tmp_path)])
                assert code == EXIT_USAGE, (command, heads)
                assert "invalid configuration: heads must be >= 1" in \
                    capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_dir_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = main(["flops", *TINY_FLOPS, "--out", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK

    def test_verify_failure_exit_code(self, monkeypatch):
        from descattn import verify as verify_mod

        def boom(seed):
            raise AssertionError("forced")

        monkeypatch.setattr(verify_mod, "CHECKS", [("forced.failure", boom)])
        assert main(["verify"]) == EXIT_VERIFY


class TestReadmeFlagTable:
    def test_table_lists_the_flags_each_subcommand_registers(self):
        # README's flag table, cell by cell, against the parser: each
        # subcommand's flags, and the choices the table spells out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("the flags of the settings it reads:\n\n", 1)[1]
        header, _, *rows = text.split("\n\n", 1)[0].splitlines()
        columns = [re.findall(r"`(\w+)`", cell) for cell in header.split("|")[2:-1]]
        documented = {command: {} for names in columns for command in names}
        for row in rows:
            flags, *marks = row.split("|")[1:-1]
            for spec in re.findall(r"`([^`]+)`", flags):
                name, _, arg = spec.partition(" ")
                choices = tuple(arg.strip("{}").split(",")) if arg.startswith("{") else None
                for names, mark in zip(columns, marks):
                    for command in names if mark.strip() == "yes" else ():
                        documented[command].update(dict.fromkeys(name.split("/"), choices))
        [subcommands] = [a for a in _build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        registered = {command: {flag: a.choices and tuple(a.choices)
                                for a in parser._actions for flag in a.option_strings
                                if flag not in ("-h", "--help")}
                      for command, parser in subcommands.choices.items()}
        assert documented == registered


class TestConfigFile:
    def test_file_values_apply_and_cli_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=1000\ngrid=37x37\nratio=4\naux=true\n"
                       "channels=16\nheads=2\ninterval=200\n")
        out = tmp_path / "out"
        code = main(["flops", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert "14.58" in capsys.readouterr().out
        # explicit flag beats the file
        code = main(["flops", "--config", str(cfg), "--ratio", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "14.58" not in text

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("framse=9\n")
        code = main(["flops", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "framse" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["flops", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO
