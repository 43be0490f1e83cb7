"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        for cmd in (["list"], ["config"], ["figure", "table1"],
                    ["run"], ["sidechannel"]):
            assert p.parse_args(cmd).command == cmd[0]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ziv:likelydead" in out
        assert "hawkeye" in out
        assert "fig08_lru_perf" in out

    def test_list_names_exactly_what_builds(self, capsys):
        """Every scheme and policy ``repro list`` names builds, and every
        name the factories build is listed."""
        from repro.cache.replacement import (
            POLICIES,
            BeladyPolicy,
            NextUseOracle,
            make_policy,
        )
        from repro.core.properties import PROPERTY_LADDERS
        from repro.schemes import SCHEMES, make_scheme

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        schemes = (lines[0].split(":", 1)[1] + lines[1]).split()
        policies = lines[2].split(":", 1)[1].split()
        assert sorted(schemes) == sorted(
            [*SCHEMES, "ziv:oracle"]
            + [f"ziv:{p}" for p in PROPERTY_LADDERS])
        assert sorted(policies) == sorted([*POLICIES, "belady"])
        for name in schemes:
            make_scheme(name)
        for name in policies:
            if name == "belady":
                BeladyPolicy(NextUseOracle([]))
            else:
                make_policy(name)

    def test_list_names_every_table(self, capsys):
        from repro.experiments import TABLES

        assert main(["list"]) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("figures:")]
        assert line.split(":", 1)[1].split() == list(TABLES)

    def test_figure_runs_an_ablation_study(self, capsys):
        assert main(["figure", "oracle_gap", "--scale", "smoke"]) == 0
        assert "== Ablation-D: " in capsys.readouterr().out

    def test_config(self, capsys):
        assert main(["config"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_figure_smoke(self, capsys):
        assert main(["figure", "table1", "--scale", "smoke"]) == 0
        assert "scaled" in capsys.readouterr().out

    def test_figure_unknown_name_is_a_usage_error(self, capsys):
        assert main(["figure", "fig99"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("unknown figure 'fig99'; known: ")
        assert "fig08_lru_perf" in captured.err
        assert captured.out == ""

    def test_figure_progress_resolves_its_grid_once(self, capsys):
        from repro.obs.ledger import read_ledger

        args = ["figure", "fig09_permix_lru", "--scale", "smoke"]
        before = len(read_ledger())
        assert main(args + ["--progress"]) == 0
        with_progress = len(read_ledger()) - before
        assert main(args) == 0
        assert len(read_ledger()) - before - with_progress == with_progress

        from repro.experiments.fig09_permix_lru import grid

        recipes = sum(len(cell) for cell in grid("smoke").values())
        assert with_progress == recipes
        captured = capsys.readouterr()
        assert "Fig.9" in captured.out
        assert f"[{recipes}/{recipes}]" in captured.err

    def test_run_reports_stats(self, capsys):
        assert main([
            "run", "--workload", "leela.1", "--scheme", "ziv:notinprc",
            "--accesses", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "incl. victims : 0 (LLC)" in out
        assert "relocations" in out

    def test_run_audited(self, capsys):
        assert main([
            "run", "--workload", "leela.1", "--scheme", "ziv:notinprc",
            "--accesses", "400", "--audit", "50,fail",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out
        assert "0 violations" in out

    def test_run_audit_flag_defaults_to_end(self, capsys):
        assert main([
            "run", "--workload", "leela.1", "--accesses", "300", "--audit",
        ]) == 0
        assert "audit: OK (1 sweep(s), 0 violations)" in \
            capsys.readouterr().out

    def test_run_unaudited_prints_no_audit_line(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert main([
            "run", "--workload", "leela.1", "--accesses", "300",
        ]) == 0
        assert "audit:" not in capsys.readouterr().out

    def test_run_multithreaded(self, capsys):
        assert main([
            "run", "--workload", "mt:vips", "--accesses", "300",
        ]) == 0
        assert "vips" in capsys.readouterr().out

    def test_run_charts_sampled_columns(self, capsys):
        assert main([
            "run", "--workload", "leela.1", "--scheme", "ziv:notinprc",
            "--accesses", "500", "--chart", "relocations", "llc_misses",
        ]) == 0
        out = capsys.readouterr().out
        # 8 cores x 500 accesses, sampled at the default interval of 1000
        assert "telemetry     : 4 sample(s) at interval 1000" in out
        assert "== relocations -- ziv:notinprc/lru on homo-leela.1 ==" in out
        assert "(access index vs. llc_misses, 4 samples)" in out

    def test_run_chart_takes_the_telemetry_spec(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main([
            "run", "--workload", "leela.1", "--accesses", "300",
            "--telemetry=600,events=relocation", "--chart", "llc_misses",
            "--events-out", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "(access index vs. llc_misses, 4 samples)" in out
        assert events.exists()

    def test_run_chart_unknown_column_lists_the_columns(self, capsys):
        assert main([
            "run", "--workload", "leela.1", "--accesses", "300",
            "--chart", "nope",
        ]) == 2
        out = capsys.readouterr().out
        assert "unknown series column 'nope'; available: access_index " \
            in out
        assert " relocations " in out

    def test_sidechannel(self, capsys):
        assert main(["sidechannel", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "inclusive" in out and "noninclusive" in out

    def test_run_with_config_file(self, capsys, tmp_path):
        from repro.config_io import save_config
        from repro.params import scaled_config

        path = tmp_path / "m.json"
        save_config(scaled_config("256KB"), path)
        assert main([
            "run", "--workload", "leela.1", "--accesses", "300",
            "--config", str(path),
        ]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_takes_the_config_files_engine(self, capsys, tmp_path,
                                               monkeypatch):
        """``--engine`` defaults to the engine of the ``--config`` file;
        a flag given on the command line wins."""
        from repro.config_io import save_config
        from repro.params import scaled_config
        from repro.sim.parallel import RunRecipe

        engines = []
        execute = RunRecipe.execute

        def spy(self, **run):
            engines.append(self.config.engine)
            return execute(self, **run)

        monkeypatch.setattr(RunRecipe, "execute", spy)
        path = tmp_path / "m.json"
        save_config(scaled_config("256KB").replace(engine="fast"), path)
        argv = ["run", "--workload", "leela.1", "--accesses", "300",
                "--scheme", "inclusive", "--config", str(path)]
        assert main(argv) == 0
        assert main(argv + ["--engine", "object"]) == 0
        assert engines == ["fast", "object"]


class TestRunRefusesBadInput:
    """``repro run`` checks its input before the run starts, as ``repro
    submit`` does: one line on stderr and exit status 2, no traceback."""

    def refused(self, capsys, *argv) -> str:
        assert main(["run", "--accesses", "300", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        return line

    def test_unknown_workload_app(self, capsys):
        line = self.refused(capsys, "--workload", "nope.1")
        assert "unknown 'profile' app 'nope.1'" in line

    def test_unknown_scheme(self, capsys):
        line = self.refused(capsys, "--scheme", "nope")
        assert "unknown scheme 'nope'" in line

    def test_unknown_policy(self, capsys):
        line = self.refused(capsys, "--policy", "nope")
        assert "unknown replacement policy 'nope'" in line

    def test_config_with_unknown_keys(self, capsys, tmp_path):
        import json

        from repro.config_io import config_to_dict
        from repro.params import scaled_config

        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {**config_to_dict(scaled_config("256KB")), "bogus": 1}))
        line = self.refused(capsys, "--config", str(path))
        assert "unknown configuration keys: ['bogus']" in line

    def test_missing_config_file(self, capsys, tmp_path):
        line = self.refused(capsys, "--config", str(tmp_path / "no.json"))
        assert "No such file or directory" in line

    def test_malformed_trace_file(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"garbage")
        line = self.refused(capsys, "--trace", str(path))
        assert "too short for a tracebin header" in line

    def test_fast_engine_outside_its_envelope(self, capsys):
        # The default scheme, ziv:likelydead, needs CHAR.
        line = self.refused(capsys, "--engine", "fast")
        assert "fast engine does not model scheme='ziv:likelydead'" in line


class TestTraceCommands:
    @pytest.fixture()
    def text_trace(self, tmp_path):
        from repro.sim.tracefile import save_workload
        from repro.workloads import homogeneous_mix

        wl = homogeneous_mix("gcc.1", cores=2, n_accesses=400, seed=2)
        path = tmp_path / "gcc.trace.gz"
        save_workload(wl, path)
        return path

    def test_convert_info_verify(self, capsys, text_trace, tmp_path):
        dst = tmp_path / "gcc.tracebin"
        assert main(["trace", "convert", str(text_trace), str(dst)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out
        assert main(["trace", "info", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "records: 800" in out and "cores: 2" in out
        assert main(["trace", "verify", str(dst)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_convert_needs_destination(self, capsys, text_trace):
        assert main(["trace", "convert", str(text_trace)]) == 2

    def test_verify_reports_corruption(self, capsys, text_trace, tmp_path):
        dst = tmp_path / "gcc.tracebin"
        assert main(["trace", "convert", str(text_trace), str(dst)]) == 0
        capsys.readouterr()
        data = bytearray(dst.read_bytes())
        data[200] ^= 0x01
        dst.write_bytes(bytes(data))
        assert main(["trace", "verify", str(dst)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_run_streams_binary_trace(self, capsys, text_trace, tmp_path,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        dst = tmp_path / "gcc.tracebin"
        assert main(["trace", "convert", str(text_trace), str(dst)]) == 0
        capsys.readouterr()
        assert main([
            "run", "--trace", str(dst), "--scheme", "ziv:notinprc",
        ]) == 0
        out = capsys.readouterr().out
        assert "accesses      : 800" in out

    def test_run_checkpoint_stop_and_resume(self, capsys, text_trace,
                                            tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        dst = tmp_path / "gcc.tracebin"
        assert main(["trace", "convert", str(text_trace), str(dst)]) == 0
        ckpt = tmp_path / "run.ckpt"
        capsys.readouterr()
        assert main([
            "run", "--trace", str(dst), "--scheme", "inclusive",
            "--checkpoint", str(ckpt), "--checkpoint-every", "200",
            "--stop-after", "400",
        ]) == 3
        assert "resume with --resume" in capsys.readouterr().out
        assert ckpt.exists()
        assert main([
            "run", "--trace", str(dst), "--scheme", "inclusive",
            "--checkpoint", str(ckpt), "--resume",
        ]) == 0
        assert "accesses      : 800" in capsys.readouterr().out

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["run", "--resume"]) == 2
