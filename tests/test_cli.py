import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from randomizer import RngStream, build_random_channel, load_channel, load_net
from randomizer import cli, netcover, workers
from randomizer.cli import run


@pytest.fixture(scope="module")
def net_file(tmp_path_factory):
    """A small budgeted d=2 net file, for verify calls that must fail on their channel."""
    path = tmp_path_factory.mktemp("net") / "net.json"
    assert run(["net", "--dim", "2", "--delta", "0.25", "--max-states", "20", "--seed", "4",
                "--out", str(path)]) == 0
    return path


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for sub in ("sample-channel", "verify", "net", "audit-net",
                "concentration", "sweep", "bounds"):
        assert run([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out


def test_unknown_subcommand_and_flag():
    assert run(["frobnicate"]) == 1
    assert run(["bounds", "--dim", "2", "--epsilon", "0.5", "--bogus"]) == 1
    assert run([]) == 1


def test_removed_flags_are_usage_errors(tmp_path, capsys):
    sweep = ["sweep", "--dims", "1", "--counts", "2", "--channels", "1", "--seed", "1"]
    concentration = ["concentration", "--dim", "2", "--counts", "4", "--deltas", "0.4",
                     "--trials", "10", "--seed", "1"]
    verify = ["verify", "--channel", str(tmp_path / "ch.json"), "--epsilon", "0.5",
              "--report", str(tmp_path / "cert.json")]
    with_net = verify + ["--net", str(tmp_path / "net.json")]
    net = ["net", "--dim", "2", "--delta", "0.5", "--out", str(tmp_path / "net.json")]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dims": [1], "epsilons": [0.5], "counts": [2]}))
    for argv in (sweep + ["--threads", "1"], concentration + ["--threads", "1"],
                 concentration + ["--random-pair"],
                 sweep + ["--tol", "1e-10"], with_net + ["--tol", "1e-10"],
                 with_net + ["--stop-k", "200"], net + ["--stop-k", "200"],
                 sweep + ["--stop-k", "200"], sweep + ["--config", str(grid)],
                 ["bounds", "--dim", "2", "--epsilon", "0.5", "--constant-c", "0.3"],
                 ["bounds", "--dim", "2", "--epsilon", "0.5", "--constant-C", "300"],
                 # verify reads its net, if any, from a file only, and a sweep cell builds no net
                 verify + ["--delta", "0.1"], verify + ["--max-net-states", "3"],
                 with_net + ["--delta", "0.1"], with_net + ["--max-net-states", "3"],
                 with_net + ["--delta", "0.1", "--max-net-states", "3"],
                 sweep + ["--delta", "0.35"], sweep + ["--max-net-states", "200"]):
        assert run(argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv
    assert not (tmp_path / "net.json").exists()
    assert not (tmp_path / "cert.json").exists()


@pytest.mark.parametrize("value", ["0", "x"])
def test_bad_thread_setting_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("RANDOMIZER_THREADS", value)
    for argv in (["sweep", "--dims", "1,2", "--counts", "2", "--channels", "1", "--seed", "1"],
                 ["concentration", "--dim", "2", "--counts", "4,8", "--deltas", "0.4",
                  "--trials", "10", "--seed", "1"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: RANDOMIZER_THREADS")
        assert captured.out == ""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_thread_pools_started_per_command(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("RANDOMIZER_THREADS", threads)
    real = workers.ThreadPoolExecutor
    pools = []

    def counting(*args, **kwargs):
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(workers, "ThreadPoolExecutor", counting)
    ch2, ch16, net = (str(tmp_path / name) for name in ("ch2.json", "ch16.json", "net.json"))
    argvs = {
        "sample-channel d=2": ["sample-channel", "--dim", "2", "--count", "64", "--seed", "1",
                               "--out", ch2],
        # 2000 unitaries at d=16: 32 sampling tiles, one full Gram block and a partial one
        "sample-channel d=16": ["sample-channel", "--dim", "16", "--count", "2000", "--seed", "2",
                                "--out", ch16],
        "net": ["net", "--dim", "2", "--delta", "0.45", "--seed", "3", "--out", net],
        "audit-net": ["audit-net", "--net", net, "--trials", "5000", "--seed", "4"],
        "verify": ["verify", "--channel", ch2, "--epsilon", "0.9", "--net", net, "--seed", "5"],
        "concentration": ["concentration", "--dim", "2", "--counts", "4,8", "--deltas", "0.4",
                          "--trials", "50", "--seed", "6"],
        "sweep": ["sweep", "--dims", "1,2", "--counts", "2,300", "--channels", "1",
                  "--restarts", "2", "--seed", "7"],
        "bounds": ["bounds", "--dim", "2", "--epsilon", "0.5"],
    }
    started = {}
    for name, argv in argvs.items():
        pools.clear()
        assert run(argv) == 0, name
        started[name] = len(pools)
    capsys.readouterr()
    if threads == "1":
        assert started == dict.fromkeys(argvs, 0)
    else:
        # the sampling and unitarity check inside each Gram block, and the samples of a sweep
        # cell, start no pool
        want = dict.fromkeys(argvs, 0)
        want.update({"sample-channel d=16": 1, "concentration": 1, "sweep": 1})
        assert started == want


def test_sample_channel_roundtrip(tmp_path, capsys):
    out = tmp_path / "ch.json"
    code = run(["sample-channel", "--dim", "4", "--count", "16",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "seed=7" in summary
    ch = load_channel(out)
    assert ch.dim == 4 and ch.count == 16
    assert np.array_equal(ch.gram, build_random_channel(4, 16, RngStream(7)).gram)


def test_parser_is_shared_and_commands_do_not_leak(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert run(["sample-channel", "--dim", "2", "--count", "3", "--seed", "7",
                "--out", str(tmp_path / "ch.json")]) == 0
    assert run(["net", "--dim", "2", "--delta", "1.5", "--max-states", "1", "--seed", "8",
                "--out", str(tmp_path / "budgeted.json")]) == 0
    capsys.readouterr()
    # neither the seeds of the earlier calls nor the budget of the first net call carries over
    assert run(["net", "--dim", "2", "--delta", "1.5", "--out", str(tmp_path / "net.json")]) == 0
    out = capsys.readouterr().out
    assert "seed=7 " not in out and "seed=8 " not in out
    assert load_net(tmp_path / "budgeted.json").provenance["max_states"] == 1
    assert load_net(tmp_path / "net.json").provenance["max_states"] is None
    assert run(["bounds", "--dim", "2", "--epsilon", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2 and payload["C"] == 150.0 and payload["required_N"] == 832


@pytest.mark.parametrize("epsilon", ["1e-300", "1e-160"])
def test_bounds_with_non_finite_sample_size_exits_two(capsys, epsilon):
    assert run(["bounds", "--dim", "2", "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "not a finite number" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["verify", "--epsilon", "0.5", "--channel"],
                                  ["audit-net", "--net"]])
def test_file_that_is_not_utf8_exits_two(tmp_path, capsys, net_file, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    net = ["--net", str(net_file)] if argv[0] == "verify" else []
    assert run(argv + [str(path), "--seed", "1"] + net) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid UTF-8 JSON" in err
    assert "Traceback" not in err


def test_verify_ruc1_channel_exits_two(tmp_path, capsys, net_file):
    ch_path = tmp_path / "ch.json"
    ch_path.write_text(json.dumps({"schema": "ruc-1", "dim": 1, "count": 1, "seed": 3,
                                   "stream_id": 0, "kind": "haar",
                                   "unitaries": [[[[1.0, 0.0]]]]}))
    assert run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--net", str(net_file),
                "--seed", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unsupported schema" in err
    assert "Traceback" not in err


def test_sample_channel_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["sample-channel", "--dim", "3", "--count", "5", "--seed", "11"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64), str((1 << 64) + 5)])
def test_seed_outside_64_bits_exits_two(tmp_path, capsys, seed):
    # such a seed would draw the net of another seed while recording its own
    out = tmp_path / "net.json"
    assert run(["net", "--dim", "2", "--delta", "1.0", "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 2^64)" in err and "Traceback" not in err
    assert not out.exists()


def test_generated_seed_is_echoed(tmp_path, capsys):
    out = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "2", "--count", "2", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "seed=" in summary


def test_verify_writes_certificate(tmp_path, capsys):
    ch_path = tmp_path / "ch.json"
    net_path = tmp_path / "net.json"
    cert_path = tmp_path / "cert.json"
    assert run(["sample-channel", "--dim", "2", "--count", "64",
                "--seed", "3", "--out", str(ch_path)]) == 0
    # the radius epsilon / (3 + 2 epsilon), under a size budget
    assert run(["net", "--dim", "2", "--delta", "0.125", "--max-states", "400", "--seed", "4",
                "--out", str(net_path)]) == 0
    code = run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--net", str(net_path),
                "--seed", "4", "--report", str(cert_path)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "verdict=" in summary
    payload = json.loads(cert_path.read_text())
    assert payload["epsilon"] == 0.5
    assert payload["delta"] == 0.125  # the net file's radius
    assert payload["verdict"] in ("CertifiedRandomizing", "CertifiedNotRandomizing",
                                  "Undetermined")


def test_verify_without_net(tmp_path, capsys):
    ch_path = tmp_path / "ch.json"
    cert_path = tmp_path / "cert.json"
    assert run(["sample-channel", "--dim", "2", "--count", "64", "--seed", "3",
                "--out", str(ch_path)]) == 0
    assert run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--seed", "4",
                "--report", str(cert_path)]) == 0
    summary = capsys.readouterr().out
    assert " delta=None B=None " in summary and " net_size=None " in summary
    payload = json.loads(cert_path.read_text())
    assert payload["B"] is None and payload["delta"] is None
    assert payload["A_lower"] <= payload["A_upper"]


def test_verify_deterministic_module_timings(tmp_path):
    ch_path = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "2", "--count", "32",
                "--seed", "5", "--out", str(ch_path)]) == 0
    net_path = tmp_path / "net.json"
    assert run(["net", "--dim", "2", "--delta", "0.125", "--max-states", "300", "--seed", "6",
                "--out", str(net_path)]) == 0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--net", str(net_path),
            "--seed", "6"]
    assert run(argv + ["--report", str(a)]) == 0
    assert run(argv + ["--report", str(b)]) == 0
    pa = json.loads(a.read_text())
    pb = json.loads(b.read_text())
    # wall-clock timings are the only volatile field in the payload
    pa.pop("timings")
    pb.pop("timings")
    assert pa == pb


def test_net_and_audit(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    assert run(["net", "--dim", "2", "--delta", "0.5", "--seed", "8",
                "--out", str(net_path)]) == 0
    net = load_net(net_path)
    assert net.delta == 0.5
    report_path = tmp_path / "audit.json"
    assert run(["audit-net", "--net", str(net_path), "--trials", "5000",
                "--seed", "9", "--report", str(report_path)]) == 0
    summary = capsys.readouterr().out
    assert "failures=0" in summary
    payload = json.loads(report_path.read_text())
    assert payload["failures"] == 0
    streamed = io.StringIO()  # oracle: the streaming encoder
    json.dump(payload, streamed, separators=(",", ":"), sort_keys=True)
    assert report_path.read_text() == streamed.getvalue() + "\n"


def test_net_coarse_radius_trips_the_guard(tmp_path, capsys, monkeypatch):
    # from delta = 1 on the guard reads 2 d ln 5; with a small ceiling an unguarded build fails
    # fast instead of filling memory
    monkeypatch.setattr(netcover, "_SIZE_CEILING", 5000)
    drawn = []
    monkeypatch.setattr(netcover, "random_pure_states", lambda *args: drawn.append(args))
    net_path = tmp_path / "net.json"
    assert run(["net", "--dim", "16", "--delta", "1.0", "--seed", "3",
                "--out", str(net_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "max_states" in captured.err
    assert drawn == [] and not net_path.exists()


def test_net_that_never_stops_exits_two(tmp_path, capsys, monkeypatch):
    # net --dim 4 --delta 1.0 passes the covering guard, and its stop rule would take hours;
    # the work ceiling, here small, refuses it
    monkeypatch.setattr(netcover, "_WORK_CEILING", 10 ** 6)
    net_path = tmp_path / "net.json"
    assert run(["net", "--dim", "4", "--delta", "1.0", "--seed", "8",
                "--out", str(net_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "work ceiling" in captured.err
    assert not net_path.exists()


def test_concentration_nonpositive_dim_exits_two(capsys):
    for dim in ("0", "-2"):
        assert run(["concentration", "--dim", dim, "--counts", "5", "--deltas", "0.5",
                    "--trials", "10", "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_empty_comma_lists_are_usage_errors(capsys):
    given = {"concentration": ["--dim", "2", "--counts", "5", "--deltas", "0.5", "--trials", "10"],
             "sweep": ["--dims", "1", "--epsilons", "0.5", "--counts", "1", "--channels", "1"]}
    for command, flag in (("concentration", "--counts"), ("concentration", "--deltas"),
                          ("sweep", "--dims"), ("sweep", "--epsilons"), ("sweep", "--counts")):
        for empty in ("", " , "):  # a later flag overrides, but each value is parsed
            assert run([command, *given[command], flag, empty, "--seed", "1"]) == 1
            assert "nonempty" in capsys.readouterr().err
    assert run(["concentration", *given["concentration"], "--seed", "1"]) == 0


def test_concentration_count_beyond_desk_scale_exits_two(capsys):
    # one trial at this N would draw 2e20 state entries at once
    assert run(["concentration", "--dim", "2", "--counts", "100000000000000000000",
                "--deltas", "0.5", "--trials", "1", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_concentration_csv_output(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "1")
    out = tmp_path / "conc.csv"
    code = run(["concentration", "--dim", "2", "--counts", "4,8", "--deltas", "0.4",
                "--trials", "200", "--seed", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,N,delta,trials,empirical_tail,bound,vacuous,seed"
    assert len(lines) == 3


def test_sweep_csv_output(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDOMIZER_THREADS", "1")
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--dims", "1,2", "--epsilons", "0.5", "--counts", "2",
                "--channels", "2", "--seed", "11", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d,epsilon,N,channels")
    assert len(lines) == 3


def test_bounds_json(capsys):
    assert run(["bounds", "--dim", "2", "--epsilon", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["required_N"] == 832
    assert payload["min_N_for_success"] == 13304
    assert payload["failure_log_bound_at_required_N"] > 0
    assert payload["C"] == 150.0


def test_module_form_runs_main():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "randomizer.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    bounds = module("bounds", "--dim", "2", "--epsilon", "0.5")
    assert bounds.returncode == 0, bounds.stderr
    assert json.loads(bounds.stdout)["required_N"] == 832
    usage = module("verify", "--help")
    assert usage.returncode == 0
    assert usage.stdout.startswith("usage:") and "--channel" in usage.stdout


def test_bounds_repeatable_output(capsys):
    assert run(["bounds", "--dim", "3", "--epsilon", "0.3"]) == 0
    first = capsys.readouterr().out
    assert run(["bounds", "--dim", "3", "--epsilon", "0.3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_runtime_errors_exit_two(tmp_path, capsys, net_file):
    assert run(["verify", "--channel", str(tmp_path / "missing.json"),
                "--epsilon", "0.5", "--net", str(net_file), "--seed", "1"]) == 2
    assert run(["bounds", "--dim", "2", "--epsilon", "1.5"]) == 2
    capsys.readouterr()
    # the default radius at epsilon=0.5 trips the feasibility guard at d=5
    code = run(["net", "--dim", "5", "--delta", "0.125", "--seed", "3",
                "--out", str(tmp_path / "net.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "max_states" in err or "ceiling" in err
    assert not (tmp_path / "net.json").exists()
    # d = 10^8 asks for a 1.6e17-byte unitary stack, beyond any 47-bit address space
    assert run(["sample-channel", "--dim", "100000000", "--count", "1", "--seed", "1",
                "--out", str(tmp_path / "ch.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "ch.json").exists()


@pytest.mark.parametrize("key, value", [("dim", "x"), ("delta", None), ("dim", None),
                                        ("delta", "wide"), ("dim", 2.7), ("dim", 2.5),
                                        ("dim", "2"), ("dim", True), ("delta", "0.45"),
                                        ("delta", True)])
def test_audit_net_malformed_number_exits_two(tmp_path, capsys, key, value):
    net_path = tmp_path / "net.json"
    assert run(["net", "--dim", "2", "--delta", "1.5", "--seed", "8",
                "--out", str(net_path)]) == 0
    payload = json.loads(net_path.read_text())
    payload[key] = value
    net_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["audit-net", "--net", str(net_path), "--trials", "10", "--seed", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("key, value", [("dim", "x"), ("count", "two"), ("count", None),
                                        ("dim", 2.7), ("dim", 2.5), ("dim", "2"), ("dim", True),
                                        ("count", 2.7), ("count", 2.5), ("count", "2"),
                                        ("count", True)])
def test_verify_malformed_channel_number_exits_two(tmp_path, capsys, net_file, key, value):
    ch_path = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "2", "--count", "4", "--seed", "3",
                "--out", str(ch_path)]) == 0
    payload = json.loads(ch_path.read_text())
    payload[key] = value
    ch_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--net", str(net_file),
                "--seed", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("entry", [["1.0", "0"], [True, 0.0], [1.0, None], [1.0, [0.0]],
                                   [10 ** 400, 0]])
def test_verify_channel_entry_that_is_no_number_exits_two(tmp_path, capsys, net_file, entry):
    ch_path = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "1", "--count", "1", "--seed", "3",
                "--out", str(ch_path)]) == 0
    payload = json.loads(ch_path.read_text())
    payload["gram"] = [[entry]]
    ch_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--seed", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gram" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [["1.0", 0.0], [True, 0.0], [1.0, False], [None, 0.0]])
def test_audit_net_state_entry_that_is_no_number_exits_two(tmp_path, capsys, entry):
    net_path = tmp_path / "net.json"
    assert run(["net", "--dim", "1", "--delta", "1.5", "--seed", "8",
                "--out", str(net_path)]) == 0
    payload = json.loads(net_path.read_text())
    payload["states"] = [[entry]]
    net_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["audit-net", "--net", str(net_path), "--trials", "10", "--seed", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "states" in err
