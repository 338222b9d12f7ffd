"""Tests for the command-line front end."""

import json
import subprocess
import sys

import pytest

from stia.cli import _FLAGS, RunConfig, main


def run_cli(args):
    return main(args)


def test_trials_zero_is_usage_error(capsys):
    rc = run_cli(["simulate", "--scheme", "tdma", "--trials", "0"])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_stia_needs_matching_delay(capsys):
    rc = run_cli([
        "simulate", "--scheme", "stia", "--k", "3", "--tc", "4", "--tfb", "1",
        "--trials", "10",
    ])
    assert rc == 2


def test_simulate_json_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    flags = [
        "simulate", "--scheme", "tdma", "--k", "3", "--tc", "3", "--tfb", "1",
        "--snr", "40,50,60", "--trials", "400", "--seed", "7",
    ]
    assert run_cli(flags + ["--out", str(out1)]) == 0
    assert run_cli(flags + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema_version"] == 1
    assert 0.9 <= payload["slope"] <= 1.1
    assert len(payload["mean_sum_rates"]) == 3


def test_simulate_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    flags = [
        "simulate", "--scheme", "zf_tdma", "--k", "3", "--tc", "3", "--tfb", "1",
        "--snr", "40,50,60", "--trials", "1200", "--seed", "3", "--out",
    ]
    out1 = tmp_path / "serial.json"
    monkeypatch.delenv("STIA_THREADS", raising=False)
    assert run_cli(flags + [str(out1)]) == 0
    out2 = tmp_path / "threaded.json"
    monkeypatch.setenv("STIA_THREADS", "4")
    assert run_cli(flags + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_csv_format(tmp_path):
    out = tmp_path / "rates.csv"
    rc = run_cli([
        "simulate", "--scheme", "tdma", "--trials", "200", "--seed", "1",
        "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "schema_version,scheme,gamma_num,gamma_den,snr_db,mean_sum_rate_bits"
    assert len(lines) == 4  # header + one row per default grid point


def test_simulate_prints_slope(capsys):
    rc = run_cli(["simulate", "--scheme", "tdma", "--trials", "200", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope=" in out and "ci_halfwidth=" in out


def test_tradeoff_default_grid_rows(tmp_path):
    out = tmp_path / "tradeoff.csv"
    assert run_cli(["tradeoff", "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "schema_version,scheme,gamma_num,gamma_den,dof_num,dof_den"
    body = {tuple(r.split(",")) for r in rows[1:]}
    assert ("1", "stia", "1", "3", "2", "1") in body
    assert ("1", "zf_mat", "1", "3", "11", "6") in body
    assert ("1", "stia", "3", "2", "3", "2") in body


def test_tradeoff_custom_gammas_json(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli(["tradeoff", "--gammas", "0,1/3,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    stia = {
        (p["gamma_num"], p["gamma_den"]): (p["dof_num"], p["dof_den"])
        for p in payload["points"]
        if p["scheme"] == "stia"
    }
    assert stia[(1, 3)] == (2, 1)


def test_schedule_golden_output(tmp_path):
    out = tmp_path / "plan.json"
    assert run_cli(["schedule", "--k", "3", "--n", "3", "--out", str(out)]) == 0
    plan = json.loads(out.read_text())
    assert plan["stia_rounds"] == [[1, 6, 8], [4, 9, 11], [7, 12, 14]]
    assert plan["zf_slots"] == [2, 3, 5, 15]
    assert plan["tdma_slots"] == [10, 13]
    assert plan["dof"] == [28, 15]


def test_schedule_rejects_bad_n(capsys):
    assert run_cli(["schedule", "--k", "3", "--n", "0"]) == 2


def test_verify_small_run_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli([
        "verify", "--k-values", "3", "--rounds", "150", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"]


def test_verify_fault_injection_fails(tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli([
        "verify", "--k-values", "3", "--rounds", "100", "--seed", "4",
        "--inject-fault", "alignment", "--out", str(out),
    ])
    assert rc == 1
    assert not json.loads(out.read_text())["passed"]


def test_config_round_trip():
    cfg = RunConfig(command="simulate", k=4, t_c=4, t_fb=1, trials=123, seed=9,
                    scheme="stia", format="csv")
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_json('{"command": "simulate", "bogus": 1}')


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(command="simulate", scheme="tdma", trials=100, seed=5).to_json())
    rc = run_cli(["simulate", "--config", str(cfg_path), "--trials", "120"])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stia.cli", "schedule", "--k", "3", "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"horizon": 9' in proc.stdout


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    rc = run_cli(["tradeoff", "--out", str(tmp_path / "missing" / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("scheme", ["stia", "zf_tdma", "zf", "tdma"])
def test_simulate_rejects_one_user(scheme, capsys):
    rc = run_cli(["simulate", "--scheme", scheme, "--k", "1", "--tc", "1", "--tfb", "0", "--trials", "8"])
    assert rc == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("scheme,delay", [("stia", ("3", "1")), ("zf", ("3", "0")), ("zf_tdma", ("3", "1"))])
def test_simulate_ill_conditioned_is_usage_error(scheme, delay, singular_guard, capsys):
    rc = run_cli(["simulate", "--scheme", scheme, "--tc", delay[0], "--tfb", delay[1], "--trials", "8"])
    assert rc == 2
    assert _one_error_line(capsys)


def test_simulate_rejects_nan_snr(capfd):
    # capfd also sees what LAPACK would print straight to the file descriptors
    rc = run_cli(["simulate", "--scheme", "zf", "--tfb", "0", "--snr", "nan,50", "--trials", "8"])
    assert rc == 2
    out, err = capfd.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("via", ["flags", "config"])
def test_simulate_rejects_snr_without_a_finite_linear_value(via, tmp_path, capsys):
    # 4000 dB is finite, but 10 ** 400 is not a float
    argv = _flags_or_config(via, "simulate", tmp_path, scheme="tdma", k=3, t_c=3, t_fb=3,
                            snr_grid_db=[40, 4000], trials=2)
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "4000" in err and "Traceback" not in err


def test_verify_rejects_zero_rounds(capsys):
    rc = run_cli(["verify", "--k-values", "3", "--rounds", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "rounds must be at least 1" in err


@pytest.mark.parametrize("argv,flag", [
    ("tradeoff --k 3", "--k"),
    ("tradeoff --tc 3", "--tc"),
    ("tradeoff --tfb 1", "--tfb"),
    ("tradeoff --seed 1", "--seed"),
    ("verify --k 3", "--k"),
    ("verify --tc 3", "--tc"),
    ("verify --tfb 1", "--tfb"),
    ("verify --format csv", "--format"),
    ("schedule --k 3 --tc 7 --tfb 4", "--tc"),
    ("schedule --k 3 --tfb 4", "--tfb"),
    ("schedule --k 3 --seed 1", "--seed"),
    ("schedule --k 3 --format csv", "--format"),
])
def test_flag_the_subcommand_ignores_is_usage_error(argv, flag, capsys):
    # Flags whose field the runner does not read; verify --k also checks
    # that no abbreviation of --k-values is accepted.
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv.split())
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert flag in err.splitlines()[-1].split() and "Traceback" not in err


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"trials": "50"}')
    rc = run_cli(["simulate", "--scheme", "tdma", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'trials'" in err


@pytest.mark.parametrize("key,value", [
    ("format", "xml"),
    ("scheme", "mat"),
    ("inject_fault", "precoder"),
])
def test_config_value_outside_its_choices_is_usage_error(key, value, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "tradeoff", key: value}))
    rc = run_cli(["tradeoff", "--config", str(cfg_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err and repr(value) in err


_SCHEME_DELAYS = {"stia": (3, 1), "zf_tdma": (3, 1), "zf": (3, 0), "tdma": (3, 1)}


def _flags_or_config(via, command, tmp_path, **fields):
    """The command line that sets ``fields`` by flag or through a config file."""
    if via == "config":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": command, **fields}))
        return [command, "--config", str(cfg_path)]
    argv = [command]
    for name, value in fields.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [_FLAGS[name][0], text]
    return argv


@pytest.mark.parametrize("scheme", list(_SCHEME_DELAYS))
def test_simulate_single_trial_has_zero_halfwidth(scheme, tmp_path):
    out = tmp_path / "one.json"
    tc, tfb = _SCHEME_DELAYS[scheme]
    rc = run_cli(["simulate", "--scheme", scheme, "--tc", str(tc), "--tfb", str(tfb), "--trials", "1", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["confidence_halfwidth"] == 0.0


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("k_values", [[], [3, 3]])
def test_verify_rejects_empty_or_repeated_k_values(k_values, via, tmp_path, capsys):
    argv = _flags_or_config(via, "verify", tmp_path, k_values=k_values, verify_rounds=10)
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "k_values" in err


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("scheme", list(_SCHEME_DELAYS))
def test_simulate_rejects_rounds_per_trial_below_one(scheme, via, tmp_path, capsys):
    tc, tfb = _SCHEME_DELAYS[scheme]
    argv = _flags_or_config(via, "simulate", tmp_path, scheme=scheme, t_c=tc, t_fb=tfb, trials=8, rounds_per_trial=-5)
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "rounds_per_trial" in err


def test_tradeoff_bad_gamma_names_the_value(capsys):
    assert run_cli(["tradeoff", "--gammas", "0,1/0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "'1/0'" in err
