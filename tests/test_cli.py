"""Front-end: flags, config precedence, determinism, golden outputs, exit codes."""

import argparse
import ast
import errno
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from compressed_metrology import adiabatic, circuit, cli, dense, ising, matchgate, metrology
from compressed_metrology.cli import main
from support import parse_program

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
PERFBENCH = ROOT / "perfbench"


def run(tmp_path, *argv, out_name="out"):
    out = tmp_path / out_name
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


# The one schedule check of every command that runs the chain; the message ends "at N, M, T".
PHASE_BOUND = "the phase bound 4*N*M*max(T, 1), M = max(|B|, |J|, 1), is not finite"
# Its second check, on the largest step angle; the message ends "at M, Delta".
STEP_ANGLE = ("the step angle 4*M*Delta, M = max(|B|, |J|, 1), is too large for a float "
              "to resolve its phase (4*M*Delta*eps > 1e-09)")


# Arguments the parser itself rejects, and a part of its one-line message.
PARSER_ERRORS = [
    (["estimate", "--n", "abc"], "argument --n: invalid int list value: 'abc'"),
    (["oracle", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["dump", "--g", "0.5"], "unrecognized arguments: --g 0.5"),
    # compare and estimate run J = 1; a J would only rescale T.
    (["compare", "--j", "1"], "unrecognized arguments: --j 1"),
    (["estimate", "--j", "1"], "unrecognized arguments: --j 1"),
    (["compare", "--analytic-tol", "1e-6"], "unrecognized arguments: --analytic-tol 1e-6"),
    # scaling reports one-shot delta g^2; a shot count only divides them all
    (["scaling", "--shots", "3"], "unrecognized arguments: --shots 3"),
    # scaling runs at the critical point g = 1, where the paper states its checks
    (["scaling", "--g", "1"], "unrecognized arguments: --g 1"),
]


# Sizes past 2**53 and the flag that refuses them.  Unchecked, the first four raise inside
# the closed forms or the default schedule, and the last sums 2**53 modes.
HUGE_SIZES = [
    (["estimate", "--n", str(2**300), "--g", "1", "--seed", "1", "--t-total", "1",
      "--l-steps", "1"], "--n"),  # r_1^4 underflows in ising.qfi
    (["dump", "--n", str(2**512)], "--n"),  # 10 N^2 overflows in build_schedule
    (["sweep", "--n", str(2**1024), "--g", "1"], "--n"),  # 2 pi j / N overflows in mode_xi
    (["scaling", "--n", f"8,{2**1024}"], "--n"),
    (["scaling", "--n-magnetization", f"256,{2**54}"], "--n-magnetization"),
]


def assert_usage_error(capsys, argv, message):
    """Exit 2 with one stderr line that carries ``message``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


class TestSweep:
    def test_matches_csv_golden(self, tmp_path):
        code, data = run(tmp_path, "sweep", "--n", "4,8", "--g", "0.5,1.0", "--format", "csv")
        assert code == 0
        assert data == (GOLDEN / "sweep.csv").read_bytes()

    def test_matches_json_golden(self, tmp_path):
        code, data = run(tmp_path, "sweep", "--n", "4,8", "--g", "0.5,1.0", "--format", "json")
        assert code == 0
        assert data == (GOLDEN / "sweep.json").read_bytes()

    def test_csv_and_json_values_agree(self, tmp_path):
        _, csv_bytes = run(tmp_path, "sweep", "--n", "4", "--g", "1.0", "--format", "csv")
        _, json_bytes = run(tmp_path, "sweep", "--n", "4", "--g", "1.0", "--format", "json",
                            out_name="out2")
        row = json.loads(json_bytes)["rows"][0]
        fields = csv_bytes.decode().splitlines()[1].split(",")
        assert fields[0] == "4"
        for text, value in zip(fields[1:], list(row.values())[1:]):
            assert float(text) == pytest.approx(value, rel=1e-11)

    def test_single_point_values(self, tmp_path):
        _, data = run(tmp_path, "sweep", "--n", "4", "--g", "1.0", "--format", "csv")
        line = data.decode().splitlines()[1]
        assert "0.146446609407" in line
        assert "0.853553390593" in line

    def test_widest_ratios_stay_finite(self, tmp_path):
        # The largest |g| the ratio check admits: every curve, and the QFI, is still finite.
        code, data = run(tmp_path, "sweep", "--n", "4,8", "--g=-1e77,1e77", "--format", "json")
        assert code == 0
        assert all(math.isfinite(v) for row in json.loads(data)["rows"] for v in row.values())
        assert 0.0 < ising.qfi(1e77, 8) and 0.0 < ising.qfi(-1e77, 8)

    def test_empty_g_is_usage_error(self, capsys):
        assert_usage_error(capsys, ["sweep", "--n", "4", "--g", ""],
                           "sweep needs a nonempty --g list")


class TestReportEnvelope:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "4", "--g", "1.0", "--format", "json"],
        ["sweep", "--n", "4", "--g", "1.0"],
        ["scaling"],
        ["scaling", "--n", "8,16", "--n-magnetization", "8,16"],
        ["compare", "--n", "4", "--g", "1.0", "--l-steps", "8"],
        ["compare", "--n", "4,8", "--g", "0.5", "--l-steps", "8"],
        ["estimate", "--n", "4", "--g", "1.0", "--l-steps", "2048", "--shots", "2000",
         "--reps", "50", "--seed", "7"],
        ["estimate", "--n", "8", "--g", "1.1", "--t-total", "640", "--l-steps", "512",
         "--shots", "1000", "--reps", "30", "--seed", "3"],
        ["dump", "--n", "4", "--l-steps", "1"],
        ["oracle", "--n", "4", "--l-steps", "8"],
    ])
    def test_envelope_and_exit_code(self, tmp_path, argv):
        """schema, command, config first; passed exactly with failures; exit 1 on a failure."""
        code, data = run(tmp_path, *argv)
        if not data.startswith(b"{"):  # the sweep CSV and the gate dump are text
            assert argv[0] in ("sweep", "dump") and code == 0
            return
        report = json.loads(data)
        assert list(report)[:3] == ["schema", "command", "config"]
        assert report["command"] == argv[0]
        assert ("passed" in report) == ("failures" in report)
        assert report.get("passed", True) == (not report.get("failures"))
        assert code == (1 if report.get("failures") else 0)


class TestOut:
    """--out is opened once, before any work runs; a run that fails leaves an existing file
    as it is."""

    SWEEP = ["sweep", "--n", "4", "--g", "1"]

    def test_shorter_report_over_longer_file(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["sweep", "--n", "4,8,16", "--g", "0.5,1,1.5", "--out", str(out)]) == 0
        longer = out.stat().st_size
        assert main(self.SWEEP) == 0
        short = capsys.readouterr().out.encode()
        assert main([*self.SWEEP, "--out", str(out)]) == 0
        assert len(short) < longer and out.read_bytes() == short

    def test_creates_new_file(self, tmp_path, capsys):
        out = tmp_path / "new"
        assert main([*self.SWEEP, "--out", str(out)]) == 0
        assert main(self.SWEEP) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("argv", [
        SWEEP,
        ["oracle", "--n", "4", "--l-steps", "8"],
        ["compare", "--n", "16", "--g", "1.0"],  # a usage error after --out was opened
    ])
    def test_out_is_opened_once(self, tmp_path, monkeypatch, argv):
        out = str(tmp_path / "report")
        opened = []

        def spy(real):
            def call(path, *args, **kwargs):
                opened.append(path)
                return real(path, *args, **kwargs)
            return call

        monkeypatch.setattr(os, "open", spy(os.open))
        monkeypatch.setattr(cli, "open", spy(open), raising=False)
        for previous in (None, "previous\n"):  # a new path, then an existing file
            if previous:
                Path(out).write_text(previous)
            opened.clear()
            try:
                main([*argv, "--out", out])
            except SystemExit:
                pass
            assert opened.count(out) == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_gets_the_report(self, tmp_path, capsys):
        # The write goes to the descriptor the pre-run check opened: a second open would
        # wait for a reader that saw end of file when the first one closed.
        argv = ["compare", "--n", "4,8", "--g", "1", "--l-steps", "2048"]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        fifo = tmp_path / "report"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        try:
            done = subprocess.run([sys.executable, "-m", "compressed_metrology.cli", *argv,
                                   "--out", str(fifo)], env=env, capture_output=True, timeout=30)
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # the pipe was never opened for writing: release the reader
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert got == [expected]

    @pytest.mark.parametrize("target,code", [
        ("nodir/x.csv", errno.ENOENT),
        (".", errno.EISDIR),
        ("file/x.csv", errno.ENOTDIR),
    ])
    def test_bad_path_is_usage_error(self, tmp_path, monkeypatch, capsys, target, code):
        def not_reached(*args):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(ising, "expected_b", not_reached)
        (tmp_path / "file").write_text("")
        argv = ["sweep", "--n", "4", "--g", "1", "--out", str(tmp_path / target)]
        assert_usage_error(capsys, argv, f"--out: [Errno {code}] {os.strerror(code)}")

    def test_usage_error_keeps_existing_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("previous\n")
        assert_usage_error(capsys, ["compare", "--n", "16", "--g", "1.0", "--out", str(out)],
                           "N <= 8 required")
        assert out.read_text() == "previous\n"

    def test_devnull(self, capsys):
        assert main(["sweep", "--n", "4", "--g", "1", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,message", [
        (["compare", "--n", "16", "--g", "1.0"], "N <= 8 required"),
        (["oracle", "--n", "8", "--g=-1e20", "--t-total", "1e-14", "--l-steps", "8"],
         "degenerate"),
    ])
    def test_usage_error_removes_new_file(self, tmp_path, capsys, argv, message):
        out = tmp_path / "new.json"
        assert_usage_error(capsys, [*argv, "--out", str(out)], message)
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": [2.0], "format": "json"}))
        code, data = run(tmp_path, "sweep", "--n", "4", "--config", str(cfg),
                         "--g", "1.0")
        assert code == 0
        payload = json.loads(data)
        assert payload["config"]["g"] == [1.0]        # flag wins
        assert payload["config"]["format"] == "json"  # config file wins over default
        assert payload["config"]["n"] == [4]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert_usage_error(capsys, ["sweep", "--g", "1.0", "--config", str(cfg)],
                           "unknown config keys")


class TestUsageErrors:
    """Bad sizes, schedules and config types: one stderr line, exit 2, nothing evaluated."""

    BASE = {
        "sweep": ["sweep", "--g", "1.0"],
        "scaling": ["scaling"],
        "compare": ["compare", "--l-steps", "8"],
        "estimate": ["estimate", "--seed", "1", "--l-steps", "8"],
        "dump": ["dump", "--l-steps", "1"],
        "oracle": ["oracle", "--l-steps", "8"],
    }

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("a path ran before the inputs were checked")

        for module, name in ((circuit, "run_circuit"), (circuit, "full_program"),
                             (adiabatic, "adiabatic_rotation"), (adiabatic, "momentum_b"),
                             (dense, "trotter_evolve"), (dense, "even_ground")):
            monkeypatch.setattr(module, name, not_reached)

    @pytest.mark.parametrize("command", ["sweep", "scaling", "compare", "estimate"])
    def test_size_below_curve_minimum(self, capsys, command):
        assert_usage_error(capsys, [*self.BASE[command], "--n", "2"],
                         "--n: mode-1 observables need even N >= 4, got 2")

    def test_magnetization_size_error_names_its_flag(self, capsys):
        assert_usage_error(capsys, ["scaling", "--n-magnetization", "256,1"],
                           "--n-magnetization: mode-1 observables need even N >= 4, got 1")

    @pytest.mark.parametrize("flag,value", [("--n", "8"), ("--n", "8,16,8"),
                                            ("--n-magnetization", "256"),
                                            ("--n-magnetization", "256,256")])
    def test_scaling_needs_two_distinct_sizes(self, monkeypatch, capsys, flag, value):
        def not_reached(*args, **kwargs):
            raise AssertionError("a fit ran before the sizes were checked")

        monkeypatch.setattr(metrology, "fit_power_law", not_reached)
        assert_usage_error(capsys, ["scaling", flag, value],
                           f"{flag} needs at least two sizes, none repeated, for the fit, "
                           f"got {value}")

    @pytest.mark.parametrize("extra,config,message", [
        (["--shots", "0"], None, "--shots must be at least 1, got 0"),
        (["--shots", "-3"], None, "--shots must be at least 1, got -3"),
        ([], '{"shots": 0}', "--shots must be at least 1, got 0"),
    ])
    def test_shots_below_one(self, tmp_path, capsys, extra, config, message):
        # A config value meets the same check as a flag.
        argv = [*self.BASE["estimate"], *extra]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert_usage_error(capsys, argv, message)

    @pytest.mark.parametrize("argv,g", [
        (["sweep", "--n", "4", "--g", "1e300"], "1e+300"),
        (["compare", "--n", "4", "--g", "0.5,1e300"], "1e+300"),
        (["compare", "--n", "4", "--g", "1e200"], "1e+200"),
        (["estimate", "--n", "4", "--g", "1e200"], "1e+200"),
        (["sweep", "--n", "4", "--g", "1,-2e77"], "-2e+77"),
        # <B> is evaluated at the calibration window's ends
        (["estimate", "--n", "4", "--window", "0.5,1e300"], "1e+300"),
        (["estimate", "--n", "4", "--window=-1e200,1.5"], "-1e+200"),
    ])
    def test_ratio_past_the_closed_forms(self, monkeypatch, capsys, argv, g):
        def not_reached(*args, **kwargs):
            raise AssertionError("a closed form ran before g was checked")

        monkeypatch.setattr(ising, "_radicand", not_reached)
        assert_usage_error(capsys, [*self.BASE[argv[0]], *argv[1:]],
                           f"the closed forms overflow at g = {g}: (1 + |g|)^4 is not finite")

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--n", "8", "--g", "1e60"],
         "precision_b at N=8, g=1e+60: g is not identifiable"),
        (["estimate", "--n", "8", "--g", "1e54"],
         "precision_b at N=8, g=1e+54: g is not identifiable"),
        (["estimate", "--n", "4", "--g", "1e60"],
         "precision_b at N=4, g=1e+60: g is not identifiable"),
    ])
    def test_delta_g_sq_past_the_float_range(self, capsys, argv, message):
        # g passes the closed-form check, but |d<A>/dg|^2 underflows or Var/|d<A>/dg|^2 overflows.
        assert_usage_error(capsys, [*self.BASE[argv[0]], *argv[1:]], message)

    @pytest.mark.parametrize("argv,message", [
        (["compare", "--t-total", "1e308"], f"{PHASE_BOUND} at N=4, M=1.5, T=1e+308"),
        (["oracle", "--t-total", "1e308"], f"{PHASE_BOUND} at N=4, M=1.0, T=1e+308"),
        (["estimate", "--t-total", "1e308"], f"{PHASE_BOUND} at N=4, M=1.0, T=1e+308"),
        (["dump", "--t-total", "1e308"], f"{PHASE_BOUND} at N=4, M=1.0, T=1e+308"),
        # Only dump sets B and J; every other command runs J = 1 and B = g.
        (["dump", "--n", "4", "--b", "1e308", "--t-total", "10", "--l-steps", "8"],
         f"{PHASE_BOUND} at N=4, M=1e+308, T=10.0"),
        (["dump", "--n", "4", "--b=-1e308", "--t-total", "10", "--l-steps", "8"],
         f"{PHASE_BOUND} at N=4, M=1e+308, T=10.0"),
        (["dump", "--n", "4", "--b", "1e-10", "--j", "1e308", "--t-total", "10", "--l-steps", "8"],
         f"{PHASE_BOUND} at N=4, M=1e+308, T=10.0"),
        # on the default step count, without BASE's --l-steps: L + 1 = T/0.1 = 1e201
        (["estimate", "--n", "4", "--g", "1", "--seed", "1", "--t-total", "1e200"],
         "the default schedule at N=4, T=1e+200 needs L + 1 = 1e+201 steps, more than 2^53"),
        # the dense phase N|B|Delta overflows here, though no step angle 4|B|Delta does
        (["oracle", "--n", "8", "--g", "1e300", "--t-total", "6e7", "--l-steps", "1"],
         f"{PHASE_BOUND} at N=8, M=1e+300, T=60000000.0"),
        # Delta = 1.1e199: every leg reduces its angles mod 2 pi through its own roundings
        (["compare", "--n", "4,8", "--g", "1", "--t-total", "1e200", "--l-steps", "8"],
         f"{STEP_ANGLE} at M=1.0, Delta=1.11111e+199"),
        (["oracle", "--n", "4", "--g", "1", "--t-total", "1e200", "--l-steps", "8"],
         f"{STEP_ANGLE} at M=1.0, Delta=1.11111e+199"),
        (["estimate", "--n", "4", "--g", "1", "--seed", "1", "--t-total", "1e200",
          "--l-steps", "8"], f"{STEP_ANGLE} at M=1.0, Delta=1.11111e+199"),
        # the field sets M: 4 * 9.1e6 * 10/9 * eps = 9.0e-9
        (["dump", "--n", "4", "--b", "9.1e6", "--t-total", "10", "--l-steps", "8"],
         f"{STEP_ANGLE} at M=9100000.0, Delta=1.11111"),
    ])
    def test_step_quantity_past_the_float_range(self, capsys, argv, message):
        if "--n" not in argv:  # a case that names N is a whole command line
            argv = [*self.BASE[argv[0]], "--n", "4", *argv[1:]]
        assert_usage_error(capsys, argv, message)

    @pytest.mark.parametrize("command", ["compare", "estimate", "dump", "oracle"])
    @pytest.mark.parametrize("flag,value", [("--l-steps", "0"), ("--t-total", "0"),
                                            ("--t-total", "-2.5")])
    def test_nonpositive_schedule(self, capsys, command, flag, value):
        assert_usage_error(capsys, [*self.BASE[command], "--n", "4", flag, value],
                         "schedule needs positive total_time and steps")

    @pytest.mark.parametrize("command", ["sweep", "scaling", "compare", "estimate", "dump",
                                         "oracle"])
    def test_scalar_for_list_in_config(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        assert_usage_error(capsys, [*self.BASE[command], "--config", str(cfg)],
                           "config key 'n' must be a list of ints, got 4")

    @pytest.mark.parametrize("command", ["sweep", "scaling", "compare", "estimate", "dump",
                                         "oracle"])
    @pytest.mark.parametrize("config", [None, '{"n": []}'])
    def test_empty_n(self, tmp_path, capsys, command, config):
        # scaling's default grid stands in only for an absent list, not an empty one.
        argv = [*self.BASE[command], "--n", ""]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv = [*self.BASE[command], "--config", str(cfg)]
        assert_usage_error(capsys, argv, "--n needs at least one size")

    @pytest.mark.parametrize("command", ["sweep", "scaling", "compare", "estimate", "dump",
                                         "oracle"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_size_past_2_53(self, tmp_path, capsys, command, via):
        argv = [*self.BASE[command], "--n", str(2**54)]
        if via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": [2**54]}))
            argv = [*self.BASE[command], "--config", str(cfg)]
        assert_usage_error(capsys, argv, f"--n: N must be at most 2**53, got {2**54}")

    @pytest.mark.parametrize("argv,flag", HUGE_SIZES)
    def test_huge_size_is_usage_error(self, capsys, argv, flag):
        huge = max(int(n) for n in argv[argv.index(flag) + 1].split(","))
        assert_usage_error(capsys, argv, f"{flag}: N must be at most 2**53, got {huge}")

    def test_size_bound_is_inclusive(self, capsys):
        # N = 2**53 passes the size check and reaches the default schedule's own bound.
        assert_usage_error(capsys, ["dump", "--n", str(2**53)],
                           f"the default schedule at N={2**53}, T=8.112963841460668e+32 needs "
                           "L + 1 = 8.113e+33 steps, more than 2^53")

    @pytest.mark.parametrize("command", ["sweep", "compare", "estimate", "oracle"])
    def test_empty_g(self, capsys, command):
        assert_usage_error(capsys, [*self.BASE[command], "--n", "4", "--g", ""],
                           f"{command} needs a nonempty --g list")

    @pytest.mark.parametrize("command,key,value,message", [
        ("estimate", "shots", "10", "config key 'shots' must be an int, got \"10\""),
        ("estimate", "reps", 2.5, "config key 'reps' must be an int, got 2.5"),
        ("estimate", "seed", True, "config key 'seed' must be an int, got true"),
        ("estimate", "window", None, "config key 'window' must be a list of floats, got null"),
        ("compare", "t_total", "160", "config key 't_total' must be a float, got \"160\""),
        ("dump", "b", [1.0], "config key 'b' must be a float, got [1.0]"),
        ("sweep", "format", 1, "config key 'format' must be a string, got 1"),
        ("oracle", "l_steps", 1e6, "config key 'l_steps' must be an int, got 1000000.0"),
    ])
    def test_wrong_scalar_type_in_config(self, tmp_path, capsys, command, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert_usage_error(capsys, [*self.BASE[command], "--n", "4", "--config", str(cfg)],
                           message)

    def test_unknown_format_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        assert_usage_error(capsys, [*self.BASE["sweep"], "--n", "4", "--config", str(cfg)],
                           'format must be one of csv, json, got "xml"')

    @pytest.mark.parametrize("argv,message", PARSER_ERRORS)
    def test_parser_error(self, capsys, argv, message):
        assert_usage_error(capsys, argv, message)

    @pytest.mark.parametrize("command,flag,value", [
        ("estimate", "--n", "4,8"),
        ("estimate", "--g", "1.0,2.0"),
        ("dump", "--n", "4,8"),
    ])
    def test_list_where_one_value_is_read(self, capsys, command, flag, value):
        assert_usage_error(capsys, [*self.BASE[command], flag, value],
                           f"{command} takes one {flag}, got {value}")

    @pytest.mark.parametrize("text,message", [
        (None, "--config: [Errno 2] No such file or directory"),
        ("{", "--config: Expecting property name"),
        ("[1, 2]", "--config must hold a JSON object, got [1, 2]"),
        ('{"j": 1.0}', "unknown config keys: ['j']"),
    ])
    def test_unreadable_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert_usage_error(capsys, [*self.BASE["estimate"], "--config", str(cfg)], message)

    def test_scaling_takes_no_g_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": [1.0]}))
        assert_usage_error(capsys, ["scaling", "--config", str(cfg)],
                           "unknown config keys: ['g']")

    @pytest.mark.parametrize("command,extra,config,message", [
        ("sweep", ["--g", "nan"], None, "--g must be finite, got nan"),
        ("oracle", ["--g", "1", "--t-total", "nan"], None, "--t-total must be finite, got nan"),
        ("compare", ["--g", "inf"], None, "--g must be finite, got inf"),
        ("dump", ["--b", "nan"], None, "--b must be finite, got nan"),
        ("estimate", ["--t-total", "inf"], None, "--t-total must be finite, got inf"),
        ("estimate", ["--window", "0.5,inf"], None, "--window must be finite, got 0.5,inf"),
        ("estimate", [], '{"g": [1.0, NaN]}', "--g must be finite, got 1.0,nan"),
        ("compare", [], '{"t_total": -Infinity}', "--t-total must be finite, got -inf"),
        pytest.param("dump", [], '{"j": 1' + "0" * 400 + '}', "--j must be finite, got 1000",
                     id="int-past-the-float-range"),
    ])
    def test_nonfinite_float(self, tmp_path, capsys, command, extra, config, message):
        argv = [*self.BASE[command], "--n", "4", *extra]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert_usage_error(capsys, argv, message)


class TestScaling:
    def test_fits_are_the_reports_own_values(self, tmp_path, monkeypatch):
        """Each fit and the flatness read the report's delta g^2, and each is evaluated
        once per N, at g = 1."""
        calls = {"b": [], "m": []}
        for obs in calls:
            point = getattr(metrology, f"precision_{obs}")
            monkeypatch.setattr(metrology, f"precision_{obs}",
                                lambda g, n, point=point, seen=calls[obs]:
                                seen.append((g, n)) or point(g, n))
        code, data = run(tmp_path, "scaling", "--n", "8,16,32,64")
        report = json.loads(data)
        assert code == 0 and calls == {"b": [(1.0, n) for n in (8, 16, 32, 64)],
                                       "m": [(1.0, 2**k) for k in range(8, 14)]}
        for obs in ("b", "m"):
            values = report[f"delta_g_sq_{obs}"]
            fit = metrology.fit_power_law([int(n) for n in values], list(values.values()))
            assert [report[f"{key}_{obs}"] for key in ("slope", "intercept", "r_squared")] == \
                [fit.slope, fit.intercept, fit.r_squared]
        values = report["delta_g_sq_m"]
        assert report["m_flatness_deviation"] == metrology.magnetization_flatness(
            [int(n) for n in values], list(values.values()))

    def test_report_structure(self, tmp_path):
        code, data = run(tmp_path, "scaling")
        payload = json.loads(data)
        assert -2.1 <= payload["slope_b"] <= -1.9
        assert payload["slope_m"] > payload["slope_b"]
        assert payload["delta_g_sq_b"]["1024"] < payload["delta_g_sq_b"]["8"]
        # The magnetization window sits on dg^2*N*log^2 N, which the closed
        # forms make flat over the default sizes, so the report passes.
        assert payload["m_flatness_deviation"] < 0.10
        assert code == 0 and payload["passed"] and payload["failures"] == []


class TestCompare:
    def test_equivalence_at_small_size(self, tmp_path):
        code, data = run(tmp_path, "compare", "--n", "4", "--g", "0.5,1.0", "--l-steps", "32")
        payload = json.loads(data)
        assert code == 0 and payload["passed"]
        for row in payload["rows"]:
            assert row["delta_matrix_gate"] < 1e-9
            assert row["delta_kernel_gate"] == abs(row["kernel"] - row["gate"]) < 1e-12
            assert row["delta_dense_matrix"] < 1e-9

    def test_kernel_gate_mismatch_fails(self, tmp_path, monkeypatch):
        kernel = adiabatic.momentum_b
        monkeypatch.setattr(adiabatic, "momentum_b", lambda *args: kernel(*args) + 1e-6)
        code, data = run(tmp_path, "compare", "--n", "4", "--g", "1.0", "--l-steps", "8")
        payload = json.loads(data)
        assert code == 1 and len(payload["failures"]) == 1
        assert payload["failures"][0].startswith("kernel/gate mismatch 1.00e-06 at N=4 g=1.0")

    @pytest.mark.parametrize("n_spins,total_time,steps", [(4, 160.0, 2048), (8, 64.0, 999)])
    @pytest.mark.parametrize("g", [0.8, 1.0, 1.2])
    @pytest.mark.parametrize("coupling", [0.7, 1.3, -0.9, -1.0])
    def test_coupling_only_rescales_time(self, n_spins, total_time, steps, g, coupling):
        """Why compare has no --j: each leg's <B> at (g, J, T) is its <B> at (g, 1, |J| T)."""
        def legs(params, schedule):
            rot = adiabatic.adiabatic_rotation(params, schedule)
            return (adiabatic.momentum_b(params, schedule),
                    matchgate.expectation_quadratic(
                        rot, matchgate.observable_b_coefficients(n_spins)),
                    circuit.expectation_b_gate(params, schedule),
                    dense.expectation(dense.trotter_evolve(params, schedule),
                                      dense.observable_b_dense(n_spins)))

        scaled = legs(ising.IsingParams(n_spins, field_b=g * coupling, coupling_j=coupling),
                      adiabatic.TrotterSchedule(total_time, steps))
        unit = legs(ising.IsingParams(n_spins, field_b=g, coupling_j=1.0),
                    adiabatic.TrotterSchedule(abs(coupling) * total_time, steps))
        assert max(abs(a - b) for a, b in zip(scaled, unit)) < 1e-12

    def test_one_dense_observable_per_size(self, tmp_path, monkeypatch, clear_caches):
        """The dense <B> operator and its Majorana coefficients are each built once per N."""
        sizes = {}
        for module, name in ((dense, "observable_b_dense"),
                             (matchgate, "observable_b_coefficients")):
            build, built = getattr(module, name), sizes.setdefault(name, [])
            monkeypatch.setattr(module, name,
                                lambda n, build=build, built=built: built.append(n) or build(n))
        code, _ = run(tmp_path, "compare", "--n", "4,8", "--g", "0.5,1.0,1.5", "--l-steps", "8")
        assert code == 0 and list(sizes.values()) == [[4, 8], [4, 8]]

    def test_large_size_rejected(self, capsys):
        assert_usage_error(capsys, ["compare", "--n", "16", "--g", "1.0"],
                           "compare runs the gate/dense legs; N <= 8 required")


class TestEstimate:
    ARGS = ("estimate", "--n", "4", "--g", "1.0", "--l-steps", "2048",
            "--shots", "2000", "--reps", "50", "--seed", "7")

    def test_seed_required(self, capsys):
        assert_usage_error(capsys, ["estimate", "--n", "4", "--g", "1.0", "--l-steps", "8"],
                           "--seed is mandatory for stochastic commands")

    def test_matches_golden(self, tmp_path):
        code, data = run(tmp_path, *self.ARGS)
        assert code == 0
        assert data == (GOLDEN / "estimate.json").read_bytes()

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "--seed must be nonnegative, got -1"),
        ("--shots", "0", "--shots must be at least 1"),
        ("--shots", str(2**53 + 1), f"--shots must be at most 2**53, got {2**53 + 1}"),
        ("--shots", str(10**20), f"--shots must be at most 2**53, got {10**20}"),
        ("--reps", "0", "--reps must be at least 1"),
        ("--reps", str(10**7 + 1), f"--reps must be at most 10**7, got {10**7 + 1}"),
        ("--reps", str(10**12), f"--reps must be at most 10**7, got {10**12}"),
        ("--window", "1.5,0.5", "--window must be lo,hi with lo < hi"),
    ])
    def test_invalid_input_is_usage_error(self, monkeypatch, capsys, flag, value, message):
        def not_reached(*args):
            raise AssertionError("the circuit ran before the inputs were checked")

        monkeypatch.setattr(circuit, "run_circuit", not_reached)
        monkeypatch.setattr(adiabatic, "momentum_b", not_reached)
        monkeypatch.setattr(circuit, "count_ym", not_reached)
        assert_usage_error(capsys, [*self.ARGS, flag, value], message)

    def test_largest_rep_count_is_accepted(self):
        args = cli._build_parser().parse_args([*self.ARGS[:-4], "--reps", str(10**7), "--seed", "7"])
        assert cli._resolve(args)["reps"] == cli.MAX_REPS == 10**7

    def test_runs_no_gate_circuit(self, tmp_path, monkeypatch):
        """<B> comes from the k = 1 kernel alone; the gate runner is a cross-check leg."""
        def not_reached(*args):
            raise AssertionError("estimate ran the gate-level circuit")

        monkeypatch.setattr(circuit, "run_circuit", not_reached)
        monkeypatch.setattr(circuit, "measure_ym", not_reached)
        code, data = run(tmp_path, *self.ARGS)
        assert code == 0 and data == (GOLDEN / "estimate.json").read_bytes()

    def test_largest_shot_count_runs(self, tmp_path):
        # At 2**53 shots the shot noise is far below the Trotter bias, so the
        # MSE check fails, but every count is inverted.
        code, data = run(tmp_path, "estimate", "--n", "4", "--g", "1.0", "--l-steps", "2048",
                         "--shots", str(2**53), "--reps", "5", "--seed", "1")
        payload = json.loads(data)
        assert code == 1 and payload["shots"] == 2**53 and payload["clamped_reps"] == 0
        assert payload["failures"] == [f"empirical MSE is {payload['mse_over_prediction']:.2f}x "
                                       f"the prediction"]

    def test_draws_no_per_shot_samples(self, tmp_path, monkeypatch):
        """At 10^4 shots x 4000 reps, each repetition's count is one binomial variate."""
        def not_reached(*args):
            raise AssertionError("estimate drew per-shot samples")

        monkeypatch.setattr(circuit, "sample_ym", not_reached)
        code, _ = run(tmp_path, "estimate", "--n", "4", "--g", "1.0", "--t-total", "160",
                      "--l-steps", "2048", "--shots", "10000", "--reps", "4000", "--seed", "1")
        assert code == 0

    def test_unbounded_phases_are_one_error_line_without_a_warning(self, tmp_path, capsys):
        out = tmp_path / "new.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would end the run here
            assert_usage_error(capsys, ["estimate", "--n", "4", "--g", "1", "--seed", "1",
                                        "--t-total", "1e308", "--l-steps", "8", "--out", str(out)],
                               f"{PHASE_BOUND} at N=4, M=1.0, T=1e+308")
        assert not out.exists()

    def test_builds_one_schedule(self, tmp_path, monkeypatch):
        calls = []
        build = adiabatic.build_schedule
        monkeypatch.setattr(adiabatic, "build_schedule",
                            lambda *args, **kwargs: calls.append(args) or build(*args, **kwargs))
        code, data = run(tmp_path, *self.ARGS)
        assert code == 0 and calls == [(4, None, 2048)]
        assert data == (GOLDEN / "estimate.json").read_bytes()

    def test_reproducible_byte_identical(self, tmp_path):
        code1, first = run(tmp_path, *self.ARGS)
        code2, second = run(tmp_path, *self.ARGS, out_name="out2")
        assert (code1, first) == (code2, second)
        assert first == second

    def test_report_contents(self, tmp_path):
        code, data = run(tmp_path, *self.ARGS)
        payload = json.loads(data)
        assert code == 0 and payload["passed"]
        assert 0.5 <= payload["mse_over_prediction"] <= 2.0
        assert payload["clamped_reps"] == 0
        assert "cramer_rao_bound" in payload

    @pytest.mark.slow
    def test_default_schedule_at_1024_spins(self, tmp_path):
        """At N = 1024 the default L + 1 = ceil(T/0.1) keeps the MSE within 2x of the prediction.

        Delta must stay small at every N: at Delta = 10.5 the step angles wrap
        and the MSE is 38.6x the prediction.
        """
        code, data = run(tmp_path, "estimate", "--n", "1024", "--g", "1", "--seed", "1",
                         "--reps", "200")
        payload = json.loads(data)
        assert payload["l_steps"] == 104857599 and payload["failures"] == []
        assert code == 0

    def test_bound_reported_beyond_the_dense_sizes(self, tmp_path):
        _, data = run(tmp_path, "estimate", "--n", "16", "--g", "1.0", "--t-total", "40",
                      "--l-steps", "64", "--shots", "100", "--reps", "5", "--seed", "1")
        payload = json.loads(data)
        assert payload["cramer_rao_bound"] == metrology.cramer_rao(ising.qfi(1.0, 16), 100)


class TestDump:
    def test_matches_golden(self, tmp_path):
        code, data = run(tmp_path, "dump", "--n", "4", "--b", "1.0", "--j", "0.5",
                         "--t-total", "2.0", "--l-steps", "1")
        assert code == 0
        assert data == (GOLDEN / "dump.txt").read_bytes()

    def test_roundtrips_and_metadata(self, tmp_path):
        _, data = run(tmp_path, "dump", "--n", "4", "--b", "1.0", "--j", "0.5",
                      "--t-total", "2.0", "--l-steps", "1")
        gates, params, schedule = parse_program(data.decode())
        assert circuit.dump_program(gates, params, schedule).encode() == data
        assert params.n_spins == 4
        assert schedule.steps == 1
        # per-step shift ladder carries m+1 = 3 controlled gates
        kinds = [g.kind for g in gates]
        assert kinds.count("RY") == 2 and kinds.count("RXX") == 2

    def test_gate_cap_is_usage_error(self, capsys):
        assert_usage_error(capsys, ["dump", "--n", "64"],
                           "program of 7372800 gates exceeds the materialization cap")


class TestOracle:
    def test_matches_golden(self, tmp_path):
        code, data = run(tmp_path, "oracle", "--n", "4", "--g", "1.0",
                         "--t-total", "160", "--l-steps", "1024")
        assert code == 0
        assert data == (GOLDEN / "oracle.json").read_bytes()

    def test_reference_values(self, tmp_path):
        _, data = run(tmp_path, "oracle", "--n", "4", "--g", "1.0",
                      "--t-total", "160", "--l-steps", "1024")
        row = json.loads(data)["rows"][0]
        assert row["expected_b"] == pytest.approx(0.1464466, abs=1e-7)
        assert row["parity"] == pytest.approx(1.0, abs=1e-9)
        assert row["trotter_overlap_sq"] > 0.98

    def test_polarized_magnetization(self, tmp_path):
        # T = 1 keeps the step angle 4e7 / 65 inside the step-angle check
        _, data = run(tmp_path, "oracle", "--n", "4", "--g", "1e7", "--t-total", "1",
                      "--l-steps", "64")
        assert json.loads(data)["rows"][0]["expected_m"] == pytest.approx(1.0, abs=1e-6)

    def test_size_cap(self, capsys):
        assert_usage_error(capsys, ["oracle", "--n", "16", "--g", "1.0"],
                           "oracle is capped at N <= 8")

    @pytest.mark.parametrize("g", ["-1e+05", "-1e+08", "-1e+20"])
    def test_degenerate_point_is_usage_error(self, capsys, g):
        # the symmetric subspace's gap closes like 1/|g| at g < 0: 1e-5 at
        # g = -1e5, under 1e-10 |E_0| = 4e-5 though far above an absolute 1e-10;
        # T = 1e-14 keeps the step angle 4|g|T/9 inside the step-angle check
        assert_usage_error(capsys, ["oracle", "--n", "8", f"--g={g}", "--t-total", "1e-14",
                                    "--l-steps", "8"],
                           f"oracle at N=8, g={float(g)}: symmetric even-subspace ground state "
                           f"degenerate within 1e-10*max(1, |E0|) at B={float(g)}, J=1.0")

    def test_branch_matches_closed_forms(self, tmp_path):
        # the branch grown from |0..0> on both sides of g = 0, where the whole
        # even sector's lowest level is another state; at |g| = 100 the spectral
        # QFI still holds 1e-12 (it degrades past g = -1e3, see README)
        grid = [-100.0, -10.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 10.0, 100.0]
        code, data = run(tmp_path, "oracle", "--n", "4,8", "--g=" + ",".join(map(str, grid)),
                         "--l-steps", "8")
        rows = json.loads(data)["rows"]
        assert code == 0 and [(r["n"], r["g"]) for r in rows] == [
            (n, g) for n in (4, 8) for g in grid]
        for row in rows:
            for key in ("expected_b", "expected_m", "variance_b", "variance_m"):
                closed = getattr(ising, key)(row["g"], row["n"])
                assert row[key] == pytest.approx(closed, abs=1e-12), key
            assert row["qfi"] == pytest.approx(ising.qfi(row["g"], row["n"]), rel=1e-12)

    def test_point_next_to_degeneracy_runs(self, tmp_path):
        # the even-sector gap is open at g = 1e-4, and the spectral QFI needs no neighbour in g
        code, data = run(tmp_path, "oracle", "--n", "4", "--g", "1e-4", "--l-steps", "8")
        row = json.loads(data)["rows"][0]
        assert code == 0 and row["qfi"] == pytest.approx(ising.qfi(1e-4, 4), rel=1e-12)

    def test_field_term_past_the_float_range(self, tmp_path, capsys):
        # 4 * 4 * 4e307 overflows at the first size; 4 * 8 * 1e300 does not, but at
        # Delta = 1/9 the step angle 4e300 / 9 has no phase a float resolves
        out = tmp_path / "new.json"
        assert_usage_error(capsys, ["oracle", "--n", "4,8", "--g", "1,4e307", "--t-total", "1",
                                    "--l-steps", "8", "--out", str(out)],
                           f"{PHASE_BOUND} at N=4, M=4e+307, T=1.0")
        assert not out.exists()
        assert_usage_error(capsys, ["oracle", "--n", "8", "--g", "1e300", "--t-total", "1",
                                    "--l-steps", "8", "--out", str(out)],
                           f"{STEP_ANGLE} at M=1e+300, Delta=0.111111")
        assert not out.exists()
        code, data = run(tmp_path, "oracle", "--n", "8", "--g", "1e6", "--t-total", "1",
                         "--l-steps", "8")
        row = json.loads(data, parse_constant=lambda c: pytest.fail(f"{c} in the report"))["rows"][0]
        assert code == 0 and row["parity"] == pytest.approx(1.0)

    def test_long_steps_write_a_finite_report(self, tmp_path):
        # Delta = 1.1e6, where 4 * Delta * eps = 9.9e-10 is just inside the step-angle check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, data = run(tmp_path, "oracle", "--n", "4,8", "--g", "1", "--t-total", "1e7",
                             "--l-steps", "8")
        rows = json.loads(data, parse_constant=lambda c: pytest.fail(f"{c} in the report"))["rows"]
        assert code == 0 and [row["n"] for row in rows] == [4, 8]
        assert all(0.0 <= row["trotter_overlap_sq"] <= 1.0 + 1e-12 for row in rows)

    def test_golden_after_compare_in_one_process(self, tmp_path, clear_caches):
        # compare fills the per-size caches that oracle then reads
        grid = ["--n", "4", "--g", "1.0", "--t-total", "160", "--l-steps", "1024"]
        for _ in range(2):
            assert run(tmp_path, "compare", *grid)[0] == 0
            code, data = run(tmp_path, "oracle", *grid)
            assert code == 0 and data == (GOLDEN / "oracle.json").read_bytes()

    def test_nan_in_a_report_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        even_ground = dense.even_ground
        monkeypatch.setattr(dense, "even_ground",
                            lambda params: (*even_ground(params)[:2], math.nan))
        out = tmp_path / "new.json"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            main(["oracle", "--n", "4", "--l-steps", "8", "--out", str(out)])
        assert not out.exists()


class TestPerCommandParser:
    """main builds the named command's parser alone, and it reads argv as the parser of all six."""
    ARGV = {
        "sweep": ["sweep", "--n", "4,8", "--g", "0.5", "--form", "json"],
        "scaling": ["scaling", "--n-mag", "256,512", "--out", "f"],
        "compare": ["compare", "--n", "4", "--g", "0.5,1.0", "--l-steps", "8"],
        "estimate": ["estimate", "--n", "4", "--see", "3", "--reps", "10", "--window", "0.2,2"],
        "dump": ["dump", "--n", "4", "--b", "1.5", "--j", "0.5", "--t-total", "2"],
        "oracle": ["oracle", "--config", "c.json", "--n", "4,8", "--l-steps", "8"],
    }

    @staticmethod
    def stopped(capsys, parse):
        """(exit code, stdout, stderr) of a parse that ends the program."""
        with pytest.raises(SystemExit) as exc:
            parse()
        return (exc.value.code, *capsys.readouterr())

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_same_namespace(self, name):
        argv = self.ARGV[name]
        args = cli._build_parser(name).parse_args(argv)
        assert args == cli._build_parser().parse_args(argv) and args.command == name

    @pytest.mark.parametrize("argv,message", PARSER_ERRORS)
    def test_same_error(self, capsys, argv, message):
        one = self.stopped(capsys, lambda: cli._build_parser(argv[0]).parse_args(argv))
        assert one == self.stopped(capsys, lambda: cli._build_parser().parse_args(argv))
        assert one[0] == 2 and message in one[2]

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                    "'sweep', 'scaling', 'compare', 'estimate', 'dump', 'oracle')"),
    ])
    def test_missing_or_unknown_command(self, capsys, argv, message):
        assert_usage_error(capsys, argv, message)

    def test_help_lists_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = self.stopped(capsys, lambda: main(["--help"]))
        assert code == 0 and err == ""
        assert "{sweep,scaling,compare,estimate,dump,oracle}" in out
        assert all(f"    {name:<20}{summary}\n" in out
                   for name, (_, summary, _) in cli._COMMANDS.items())

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_command_help(self, capsys, name):
        code, out, err = self.stopped(capsys, lambda: main([name, "--help"]))
        assert (code, out, err) == self.stopped(
            capsys, lambda: cli._build_parser().parse_args([name, "--help"]))
        assert code == 0 and out.startswith(f"usage: cmetro {name} [-h] [--config CONFIG]")

    def test_main_builds_the_command_alone(self, tmp_path, monkeypatch):
        built = []
        build = cli._build_parser

        def spy(command=None):
            built.append((command, build(command)))
            return built[-1][1]

        monkeypatch.setattr(cli, "_build_parser", spy)
        run(tmp_path, "estimate", "--n", "4", "--seed", "1", "--l-steps", "8", "--reps", "10")
        ((command, parser),) = built
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert command == "estimate" and set(sub.choices) == {"estimate"}


def test_entry_point_runs_as_a_module():
    """``python -m compressed_metrology.cli`` reads its own sys.argv: --help and a sweep."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}

    def cmetro(*argv):
        return subprocess.run([sys.executable, "-m", "compressed_metrology.cli", *argv],
                              env=env, capture_output=True, timeout=120)

    helped = cmetro("--help")
    assert helped.returncode == 0
    assert b"{sweep,scaling,compare,estimate,dump,oracle}" in helped.stdout
    swept = cmetro("sweep", "--n", "4,8", "--g", "0.5,1.0", "--format", "csv")
    assert swept.returncode == 0 and swept.stdout == (GOLDEN / "sweep.csv").read_bytes()


def test_commands_in_one_process(tmp_path, capsys, clear_caches):
    """Calls of main in one process share no parser: reports repeat and usage errors
    still exit 2."""
    compare = ["compare", "--n", "4,8", "--g", "0.5", "--l-steps", "8"]
    first = run(tmp_path, *compare)
    sweep = run(tmp_path, "sweep", "--n", "4,8", "--g", "0.5,1.0", "--format", "csv")
    assert sweep == (0, (GOLDEN / "sweep.csv").read_bytes())
    capsys.readouterr()  # the sweep's config line
    assert run(tmp_path, *compare) == first and first[0] == 0
    assert_usage_error(capsys, ["compare", "--n", "4", "--bogus", "1"],
                       "unrecognized arguments: --bogus 1")
    assert_usage_error(capsys, ["sweep", "--n", "4"], "sweep needs a nonempty --g list")
    assert run(tmp_path, *compare) == first


def test_option_table_has_no_dead_keys():
    """Every option is some command's flag, and every command default has its type and help."""
    flags = set().union(*(defaults for _, _, defaults in cli._COMMANDS.values()))
    assert set(cli._OPTIONS) == flags


def _named(tree):
    """Every name a syntax tree uses: Names, Attributes, import aliases and identifier strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    """Each public top-level function and class of the package is used in code outside its definition.

    Uses count in ``src/``, ``demos/`` and the benchmark's modules, not its tests: the
    benchmark's tracer names its hooks as strings.  A docstring mention or a caller in
    ``tests/`` alone does not count, so test-only code in the package shows up here.
    """
    outside = [*(ROOT / "demos").rglob("*.py"),
               *(path for path in PERFBENCH.rglob("*.py") if not path.name.startswith("test_"))]
    used = set().union(*(_named(ast.parse(path.read_text())) for path in outside))
    package = {path: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "compressed_metrology").glob("*.py"))}
    top_level = [(path, node, _named(node)) for path, tree in package.items() for node in tree.body]
    dead = []
    for path, node, _ in top_level:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not any(node.name in names for _, other, names in top_level if other is not node) \
                and node.name not in used:
            dead.append(f"{path.name}:{node.name}")
    assert dead == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "4,8", "--g", "0.5,1.0", "--format", "json"],
    ["scaling"],
    ["scaling", "--n", "8,16", "--n-magnetization", "256,512"],  # fails its windows
    ["compare", "--n", "4", "--g", "0.5,1.0", "--l-steps", "32"],
    list(TestEstimate.ARGS),
    ["oracle", "--n", "4", "--g", "1.0", "--t-total", "160", "--l-steps", "1024"],
    # at g = 1, delta g^2 stays finite at the largest sizes
    ["scaling", "--n", f"8,{2**53}"],
    ["scaling", "--n-magnetization", f"256,{2**16}"],
    ["estimate", "--n", "4", "--g", "1e60", "--seed", "1", "--l-steps", "8"],
    ["compare", "--n", "4", "--g", "1", "--t-total", "1e308", "--l-steps", "8"],
    ["oracle", "--n", "4", "--g", "1", "--t-total", "1e200", "--l-steps", "8"],
    ["estimate", "--n", "4", "--g", "1", "--seed", "1", "--t-total", "1e200", "--l-steps", "8"],
    ["oracle", "--n", "4", "--g", "4e307", "--t-total", "1", "--l-steps", "8"],
    ["dump", "--n", "4", "--b", "1e308", "--t-total", "10", "--l-steps", "8"],
    ["dump", "--n", "4", "--b", "1e-10", "--j", "1e308", "--t-total", "10", "--l-steps", "8"],
    ["estimate", "--n", "4", "--g", "1", "--seed", "1", "--t-total", "1e200"],
    ["oracle", "--n", "8", "--g", "1e300", "--t-total", "6e7", "--l-steps", "1"],
    *(argv for argv, _ in HUGE_SIZES[:4]),
])
def test_reports_are_strict_json(tmp_path, argv):
    """A report holds no NaN or Infinity, which JSON does not have; a usage error writes none."""
    def reject(constant):
        raise ValueError(f"{constant} in the report")

    out = tmp_path / "report.json"
    try:
        main([*argv, "--out", str(out)])
    except SystemExit as exc:
        assert exc.code == 2 and not out.exists()
        return
    json.loads(out.read_text(), parse_constant=reject)


def load_perfbench(name, monkeypatch):
    """The benchmark's module ``name``, loaded from its file and registered for the test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve(monkeypatch):
    """The benchmark's tracer finds every function it wraps, and its checks their tolerances."""
    tracing = load_perfbench("tracing", monkeypatch)
    # As the benchmark worker does: the CLI module and the layer modules it imports.  Building
    # the tracer looks up every (module, function) entry and wraps nothing yet.
    tracing.Tracer({layer: cli if layer == "cli" else getattr(cli, layer)
                    for layer in tracing.LAYERS})
    assert cli.MATRIX_GATE_TOL > 0 and cli.DENSE_MATRIX_TOL > 0


def test_benchmark_workloads_run(tmp_path, monkeypatch):
    """Each benchmark workload's tiny batch calls the package and passes its checks in process.

    This catches a change of call shape or return type that the name lookup above does not.
    """
    workloads = load_perfbench("workloads", monkeypatch)
    for workload in workloads.WHY:
        inputs = workloads.make_inputs(workload, 3001, tiny=True)
        for op in workloads.build_ops(cli, workload, inputs, tmp_path):
            op.check(op.call())
