import io
import json

import numpy as np
import pytest

from randomizer import RngStream, build_random_channel, load_channel, load_net
from randomizer import cli
from randomizer.cli import run


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
    assert run(["bounds", "--dim", "3", "--epsilon", "0.5", "--constant-C", "300"]) == 0
    capsys.readouterr()
    # neither the seed of sample-channel nor the constant of the first bounds call carries over
    assert run(["net", "--dim", "2", "--delta", "1.5", "--out", str(tmp_path / "net.json")]) == 0
    assert "seed=7 " not in capsys.readouterr().out
    assert run(["bounds", "--dim", "2", "--epsilon", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2 and payload["C"] == 150.0 and payload["required_N"] == 832


def test_verify_ruc1_channel_exits_two(tmp_path, capsys):
    ch_path = tmp_path / "ch.json"
    ch_path.write_text(json.dumps({"schema": "ruc-1", "dim": 1, "count": 1, "seed": 3,
                                   "stream_id": 0, "kind": "haar",
                                   "unitaries": [[[[1.0, 0.0]]]]}))
    assert run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--seed", "4"]) == 2
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


def test_generated_seed_is_echoed(tmp_path, capsys):
    out = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "2", "--count", "2", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "seed=" in summary


def test_verify_writes_certificate(tmp_path, capsys):
    ch_path = tmp_path / "ch.json"
    cert_path = tmp_path / "cert.json"
    assert run(["sample-channel", "--dim", "2", "--count", "64",
                "--seed", "3", "--out", str(ch_path)]) == 0
    code = run(["verify", "--channel", str(ch_path), "--epsilon", "0.5",
                "--seed", "4", "--max-net-states", "400", "--report", str(cert_path)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "verdict=" in summary
    payload = json.loads(cert_path.read_text())
    assert payload["epsilon"] == 0.5
    assert payload["delta"] == 0.125  # default: epsilon / (3 + 2 epsilon)
    assert payload["verdict"] in ("CertifiedRandomizing", "CertifiedNotRandomizing",
                                  "Undetermined")


def test_verify_deterministic_module_timings(tmp_path):
    ch_path = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "2", "--count", "32",
                "--seed", "5", "--out", str(ch_path)]) == 0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--seed", "6",
            "--max-net-states", "300"]
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


def test_concentration_nonpositive_dim_exits_two(capsys):
    for dim in ("0", "-2"):
        for extra in ([], ["--random-pair"]):
            assert run(["concentration", "--dim", dim, "--counts", "5", "--deltas", "0.5",
                        "--trials", "10", "--seed", "1"] + extra) == 2
            assert capsys.readouterr().err.startswith("error:")


def test_concentration_csv_output(tmp_path):
    out = tmp_path / "conc.csv"
    code = run(["concentration", "--dim", "2", "--counts", "4,8", "--deltas", "0.4",
                "--trials", "200", "--seed", "10", "--out", str(out), "--threads", "1"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,N,delta,trials,empirical_tail,bound,vacuous,seed"
    assert len(lines) == 3


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--dims", "1,2", "--epsilons", "0.5", "--counts", "2",
                "--channels", "2", "--seed", "11", "--out", str(out), "--threads", "1"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("d,epsilon,N,channels")
    assert len(lines) == 3


def test_sweep_config_file(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dims": [1], "epsilons": [0.5], "counts": [2],
                                "channels_per_cell": 2}))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(grid), "--seed", "12", "--out", str(out)]) == 0
    assert out.exists()


def test_sweep_config_malformed_exits_two(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    out = tmp_path / "sweep.csv"
    for raw, hint in (({"dims": [2], "epsilons": [0.9]}, "counts"),
                      ({"dims": 2, "epsilons": [0.9], "counts": [8]}, "malformed")):
        grid.write_text(json.dumps(raw))
        assert run(["sweep", "--config", str(grid), "--seed", "12", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and hint in err
    assert not out.exists()


def test_bounds_json(capsys):
    assert run(["bounds", "--dim", "2", "--epsilon", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["required_N"] == 832
    assert payload["min_N_for_success"] == 13304
    assert payload["failure_log_bound_at_required_N"] > 0
    assert payload["C"] == 150.0


def test_bounds_repeatable_output(capsys):
    assert run(["bounds", "--dim", "3", "--epsilon", "0.3"]) == 0
    first = capsys.readouterr().out
    assert run(["bounds", "--dim", "3", "--epsilon", "0.3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_runtime_errors_exit_two(tmp_path, capsys):
    assert run(["verify", "--channel", str(tmp_path / "missing.json"),
                "--epsilon", "0.5", "--seed", "1"]) == 2
    assert run(["bounds", "--dim", "2", "--epsilon", "1.5"]) == 2
    ch_path = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "5", "--count", "2", "--seed", "2",
                "--out", str(ch_path)]) == 0
    capsys.readouterr()
    # default net at d=5 trips the feasibility guard
    code = run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--seed", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "max_states" in err or "ceiling" in err


@pytest.mark.parametrize("key, value", [("dim", "x"), ("delta", None), ("dim", None),
                                        ("delta", "wide"), ("dim", 2.7), ("dim", 2.5),
                                        ("dim", "2"), ("dim", True)])
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
def test_verify_malformed_channel_number_exits_two(tmp_path, capsys, key, value):
    ch_path = tmp_path / "ch.json"
    assert run(["sample-channel", "--dim", "2", "--count", "4", "--seed", "3",
                "--out", str(ch_path)]) == 0
    payload = json.loads(ch_path.read_text())
    payload[key] = value
    ch_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["verify", "--channel", str(ch_path), "--epsilon", "0.5", "--seed", "4",
                "--max-net-states", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
