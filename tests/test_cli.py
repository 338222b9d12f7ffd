"""Tests for the command-line front end."""

import ast
import contextlib
import csv
import ctypes
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stia
from stia.cli import _FLAGS, _SUBCOMMANDS, RunConfig, main


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


@pytest.mark.parametrize("scheme", ["zf_tdma", "stia"])
def test_simulate_thread_count_does_not_change_bytes(tmp_path, monkeypatch, scheme):
    flags = [
        "simulate", "--scheme", scheme, "--k", "3", "--tc", "3", "--tfb", "1",
        "--snr", "40,50,60", "--trials", "1200", "--seed", "3", "--out",
    ]
    out1 = tmp_path / "serial.json"
    monkeypatch.delenv("STIA_THREADS", raising=False)
    assert run_cli(flags + [str(out1)]) == 0
    out2 = tmp_path / "threaded.json"
    monkeypatch.setenv("STIA_THREADS", "4")
    assert run_cli(flags + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_simulate_rejects_a_thread_count_below_one(raw, monkeypatch, capsys):
    monkeypatch.setenv("STIA_THREADS", raw)
    assert run_cli(["simulate", "--scheme", "tdma", "--trials", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"STIA_THREADS must be at least 1, got {raw}" in err


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


def test_tradeoff_refuses_a_ratio_too_long_to_write_before_building_it(tmp_path, capsys):
    # Fraction("1e30000000") builds 10**30000000, which takes tens of seconds, and its row could not be written
    # anyway: CPython writes at most 4,300 digits of an int. So a longer term is refused with one line, unbuilt.
    start = time.perf_counter()
    assert run_cli(["tradeoff", "--gammas", "1e30000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert _one_error_line(capsys)
    assert run_cli(["tradeoff", "--gammas", "0,1e5000"]) == 2
    assert capsys.readouterr().err == ("error: delay ratio '1e5000' has a numerator or denominator "
                                       "of more than 4,300 digits\n")
    out = tmp_path / "t.csv"
    assert run_cli(["tradeoff", "--gammas", "1e4000", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == f"1,stia,{10**4000},1,3,2"


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
    cfg = RunConfig(k=4, t_c=4, t_fb=1, trials=123, seed=9, scheme="stia", format="csv")
    again = RunConfig.from_json(cfg.to_json("simulate"), "simulate")
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_json('{"command": "simulate", "bogus": 1}', "simulate")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(scheme="tdma", trials=100, seed=5).to_json("simulate"))
    rc = run_cli(["simulate", "--config", str(cfg_path), "--trials", "120"])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out


@pytest.mark.parametrize("command", [None, "simulate"], ids=["absent", "matching"])
def test_config_command_key_may_be_absent_or_name_the_subcommand(command, tmp_path):
    # A config as to_json writes it, or without its command key: the flags' artifact.
    payload = json.loads(RunConfig(scheme="tdma", trials=60, seed=4).to_json("simulate"))
    if command is None:
        del payload["command"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a.json")]) == 0
    flags = ["simulate", "--scheme", "tdma", "--trials", "60", "--seed", "4"]
    assert run_cli([*flags, "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("command", ["verify", "tradeoff", "schedule", "", None, 1, ["simulate"]])
def test_config_command_key_naming_another_subcommand_is_usage_error(command, tmp_path, capsys):
    # A config for another subcommand is not run as this one with its command key ignored.
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "est.json"
    cfg_path.write_text(json.dumps({"command": command, "scheme": "tdma", "trials": 8}))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "'command'" in err and repr(command) in err and not out_path.exists()


@pytest.mark.parametrize("command,key,value", [
    ("verify", "format", "csv"),
    ("tradeoff", "trials", 8),
    ("schedule", "seed", 1),
])
def test_config_key_the_subcommand_does_not_read_is_usage_error(command, key, value, tmp_path, capsys):
    # A setting the runner would ignore is refused, as its flag is.
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps({key: value}))
    assert run_cli([command, "--config", str(cfg_path), "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err and not out_path.exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"simulate"', "3", "null"])
def test_config_that_is_not_a_json_object_is_usage_error(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli(["tradeoff", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: config must be a JSON object\n"


@pytest.mark.parametrize("raw", ["x", "2.5", ""])
def test_simulate_rejects_a_thread_count_that_is_not_an_integer(raw, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STIA_THREADS", raw)
    out_path = tmp_path / "est.json"
    assert run_cli(["simulate", "--scheme", "tdma", "--trials", "8", "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: STIA_THREADS must be an integer, got {raw!r}\n" and not out_path.exists()


def _fresh_env(**env_vars):
    """The environment of a fresh process that imports stia from this checkout, installed or not."""
    src = str(Path(stia.__file__).resolve().parent.parent)
    return dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _run_fresh_cli(args, **env_vars):
    """``python -m stia.cli args`` in a fresh process that imports stia from this checkout."""
    return subprocess.run([sys.executable, "-m", "stia.cli", *args], capture_output=True, text=True,
                          env=_fresh_env(**env_vars), timeout=120)


def test_console_entry_point_runs():
    proc = _run_fresh_cli(["schedule", "--k", "3", "--n", "1"])
    assert proc.returncode == 0
    assert '"horizon": 9' in proc.stdout


@pytest.mark.parametrize("flags", [
    ["simulate", "--scheme", "stia", "--k", "3", "--trials", "64"],
    ["simulate", "--scheme", "zf_tdma", "--k", "6", "--tc", "6", "--tfb", "2", "--trials", "512"],
    ["verify", "--rounds", "50"],
], ids=["stia-k3", "zf_tdma-k6", "verify"])
def test_blas_thread_count_does_not_change_bytes(tmp_path, flags):
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.json"
        proc = _run_fresh_cli([*flags, "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        artifacts.append(out.read_bytes())
    # The process entry freezes the import-time heap; main called in process does not.
    out = tmp_path / "in-process.json"
    assert run_cli([*flags, "--out", str(out)]) == 0
    artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1] == artifacts[2]


def test_process_entry_freezes_the_import_time_heap():
    code = ("import gc, stia.cli\n"
            "stia.cli.main = lambda: print(gc.get_freeze_count() > 0) or 0\n"
            "stia.cli._entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_main_in_process_freezes_nothing():
    before = gc.get_freeze_count()
    assert run_cli(["schedule", "--k", "3", "--n", "1"]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_the_entry_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["stia"]
    tree = ast.parse(Path(stia.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    block, = (node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
    called = {node.func.id for node in ast.walk(block) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert script == "stia.cli:_entry" and called == {"_entry"}


def _capped_run(args):
    """``python -m stia.cli args`` in a child whose address space is capped at 512 MiB, so that a
    regression fails here instead of exhausting the host."""
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run([sys.executable, "-m", "stia.cli", *args], capture_output=True, text=True,
                          env=_fresh_env(OPENBLAS_NUM_THREADS="1"), timeout=120, preexec_fn=cap_address_space)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux enforces RLIMIT_AS")
@pytest.mark.parametrize("args", [
    ["simulate", "--scheme", "tdma", "--k", "100000000", "--tc", "1", "--tfb", "1", "--trials", "8"],
], ids=["simulate"])
def test_out_of_memory_is_usage_error(args):
    proc = _capped_run(args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux enforces RLIMIT_AS")
@pytest.mark.parametrize("args", [
    ["schedule", "--k", "1000000", "--n", "1"],
    ["simulate", "--scheme", "zf_tdma", "--tc", "1000000000000", "--tfb", "1", "--trials", "8"],
], ids=["schedule", "simulate"])
def test_plan_past_the_horizon_limit_is_usage_error(args):
    # 10^12 slots, refused before any slot set is built: under the cap, building one would fail or take hours.
    proc = _capped_run(args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: plan horizon of 1000000000000 slots is past the limit of 1048576\n"


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


@pytest.mark.parametrize("via", ["flags", "config"])
def test_simulate_rejects_snr_without_a_positive_linear_value(via, tmp_path, capsys):
    # -3300 dB is finite, but 10 ** -330 underflows to 0.0
    argv = _flags_or_config(via, "simulate", tmp_path, scheme="tdma", k=3, t_fb=0,
                            snr_grid_db=[-3300, -3250], trials=4)
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "-3300" in err and "positive" in err


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("scheme,t_fb,trials", [("zf", 0, 40), ("stia", 1, 4)])
def test_simulate_rejects_snr_whose_rates_overflow(scheme, t_fb, trials, via, tmp_path, capsys):
    # 10 ** 308.2 is a float, but the rates at it are not: no warning, no NaN slope, no artifact
    out_path = tmp_path / "est.json"
    argv = _flags_or_config(via, "simulate", tmp_path, scheme=scheme, k=3, t_c=3, t_fb=t_fb,
                            snr_grid_db=[3000, 3082], trials=trials, output_path=str(out_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "[3000.0, 3082.0]" in err and not out_path.exists()


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


@pytest.mark.parametrize("argv,what", [
    ("verify --k-values x", "integers"),
    ("simulate --snr 1,y", "numbers"),
])
def test_list_flag_error_names_its_format(argv, what, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv.split())
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"expected a comma list of {what}" in last and "_parse" not in last


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"trials": "50"}')
    rc = run_cli(["simulate", "--scheme", "tdma", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'trials'" in err


@pytest.mark.parametrize("command,key,value", [
    ("tradeoff", "format", "xml"),
    ("simulate", "scheme", "mat"),
    ("verify", "inject_fault", "precoder"),
], ids=["format-xml", "scheme-mat", "inject_fault-precoder"])
def test_config_value_outside_its_choices_is_usage_error(command, key, value, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": command, key: value}))
    rc = run_cli([command, "--config", str(cfg_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err and repr(value) in err


_SCHEME_DELAYS = {"stia": (3, 1), "zf_tdma": (3, 1), "zf": (3, 0), "tdma": (3, 1)}


def _flags_or_config(via, command, tmp_path, **fields):
    """The command line that sets ``fields`` by flag or through a config file.

    Flags take the ``--flag=value`` form, so a value may start with a minus sign.
    """
    if via == "config":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": command, **fields}))
        return [command, "--config", str(cfg_path)]
    argv = [command]
    for name, value in fields.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv.append(f"{_FLAGS[name][0]}={text}")
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


_TRADEOFF_GRID_CSV = """\
schema_version,scheme,gamma_num,gamma_den,dof_num,dof_den
1,stia,0,1,2,1
1,zf_tdma,0,1,2,1
1,zf_mat,0,1,2,1
1,tdma,0,1,1,1
1,mat,0,1,3,2
1,stia,1,3,2,1
1,zf_tdma,1,3,5,3
1,zf_mat,1,3,11,6
1,tdma,1,3,1,1
1,mat,1,3,3,2
1,stia,1,1,3,2
1,zf_tdma,1,1,1,1
1,zf_mat,1,1,3,2
1,tdma,1,1,1,1
1,mat,1,1,3,2
1,stia,4,3,3,2
1,zf_tdma,4,3,1,1
1,zf_mat,4,3,3,2
1,tdma,4,3,1,1
1,mat,4,3,3,2
"""


def test_tradeoff_csv_matches_golden_text(tmp_path):
    # Exact rationals, so the text is the same on every platform.
    out = tmp_path / "t.csv"
    assert run_cli(["tradeoff", "--gammas", "0,1/3,1,4/3", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == _TRADEOFF_GRID_CSV.encode()


def test_tradeoff_json_matches_golden_digest(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli(["tradeoff", "--gammas", "0,1/3,1,4/3", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a03cfd69279c068fede51a5b33cd170122d56145c9087f325dbde7cc42c11d58"


# sha256 of each command's JSON artifact. Every simulated scheme draws its
# slot types in a fixed order from keyed generators, so the bytes are fixed.
_ARTIFACT_DIGESTS = {
    "stia-k3": (["simulate", "--scheme", "stia", "--k", "3", "--tc", "3", "--tfb", "1",
                 "--trials", "200", "--seed", "3"],
        "660aab0c639adb8074d9c24a30fc3aec54bc5b81d5eeee530a203f4d57ca9e4e"),
    "zf_tdma-k6": (["simulate", "--scheme", "zf_tdma", "--k", "6", "--tc", "6", "--tfb", "2",
                    "--trials", "300", "--seed", "6"],
        "55c7640222211576a31318f3f9f8c8511b8e4b7efb30020832d1204ffc9063e2"),
    "zf-k2": (["simulate", "--scheme", "zf", "--k", "2", "--tc", "3", "--tfb", "0",
               "--trials", "500", "--seed", "8"],
        "15a4f86374c7b5200bb162da8ae02a3d3b04b9cf403118b26e324652e57910d0"),
    "tdma-k4": (["simulate", "--scheme", "tdma", "--k", "4", "--tc", "3", "--tfb", "1",
                 "--trials", "500", "--seed", "11"],
        "b6b4efffc762e612e26ae920318e7cc6d13edee7605cec82f90aedb67e24f41d"),
    "schedule-k4-n5": (["schedule", "--k", "4", "--n", "5"],
        "cc245fa81d0d1b193d8b030b288606865f2c94a14bc1876f1508bfd270360165"),
    "verify-k3-k4": (["verify", "--k-values", "3,4", "--rounds", "200", "--seed", "5"],
        "7ae14c29bb587ce36ac337a269a43776776ddde9518d350066787f7c3e76a280"),
}


@pytest.mark.parametrize("key", list(_ARTIFACT_DIGESTS))
def test_artifact_matches_golden_digest(key, tmp_path, capsys):
    args, expected = _ARTIFACT_DIGESTS[key]
    out = tmp_path / "a.json"
    assert run_cli([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _openblas_core_library():
    """numpy's bundled OpenBLAS, if it names its active kernel through ``scipy_openblas_get_corename64_``."""
    numpy_dir = Path(np.__file__).parent
    for path in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            if hasattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_"):
                return path
        except OSError:
            continue
    return None


# Runs stia's CLI on argv[2:] after writing the OpenBLAS kernel that library argv[1] runs on to stderr.
_CLI_ON_KERNEL = """
import ctypes, sys
from stia.cli import main
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode(), file=sys.stderr)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("flags", [
    _ARTIFACT_DIGESTS["stia-k3"][0],
    _ARTIFACT_DIGESTS["tdma-k4"][0],
    ["simulate", "--scheme", "zf_tdma", "--k", "3", "--tc", "3", "--tfb", "1", "--trials", "300", "--seed", "3"],
    _ARTIFACT_DIGESTS["zf-k2"][0],
], ids=["stia-k3", "tdma-k4", "zf_tdma-k3", "zf-k2"])
def test_blas_kernel_does_not_change_bytes(flags):
    # The DoF slope and its half width are summed term by term, so no BLAS kernel enters them,
    # and ZF at K=2 takes each 1x1 inverse as a reciprocal, so no LAPACK routine enters it.
    library = _openblas_core_library()
    if library is None:
        pytest.skip("numpy's OpenBLAS does not name its kernel (no scipy_openblas_get_corename64_)")
    outputs = []
    for core in (None, "Haswell", "Nehalem"):
        env = _fresh_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", _CLI_ON_KERNEL, str(library), *flags],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert core is None or proc.stderr.decode().strip().lower() == core.lower()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_json_and_csv_agree_field_by_field(tmp_path):
    flags = ["simulate", "--scheme", "zf_tdma", "--tc", "3", "--tfb", "1", "--snr", "30,45,60",
             "--trials", "300", "--seed", "5"]
    assert run_cli(flags + ["--out", str(tmp_path / "a.json")]) == 0
    assert run_cli(flags + ["--format", "csv", "--out", str(tmp_path / "a.csv")]) == 0
    payload = json.loads((tmp_path / "a.json").read_text())
    with open(tmp_path / "a.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(payload["snr_grid_db"]) == 3
    for row, db, rate in zip(rows, payload["snr_grid_db"], payload["mean_sum_rates"]):
        assert float(row["snr_db"]) == db and float(row["mean_sum_rate_bits"]) == rate
        assert row["scheme"] == payload["scheme"] == "zf_tdma"
        gamma = (int(row["gamma_num"]), int(row["gamma_den"]))
        assert gamma == (payload["gamma_num"], payload["gamma_den"]) == (1, 3)
        assert int(row["schema_version"]) == payload["schema_version"] == 1


_SUITES = ("alignment", "cancellation", "decoding", "rank", "plans", "power")


def test_verify_prints_one_status_line_per_suite(tmp_path, capsys):
    argv = ["verify", "--k-values", "3", "--rounds", "50", "--seed", "3"]
    assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out == "".join(f"{name}: ok\n" for name in _SUITES)


def test_verify_status_lines_follow_the_report_under_a_fault(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["verify", "--k-values", "3", "--rounds", "50", "--seed", "3", "--inject-fault", "alignment"]
    assert run_cli(argv + ["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    want = [f"{name}: {'ok' if report[name]['passed'] else 'FAIL'}" for name in _SUITES]
    assert capsys.readouterr().out.splitlines() == want
    assert "alignment: FAIL" in want


# Flag values for the fuzz test below, valid and invalid; no size is large. Every flag but --out
# has some: the test reads each report from stdout, and an unwritable --out has its own test.
_FUZZ_VALUES = {
    "--config": ("no-such-config.json",),
    "--k": ("2", "3", "4", "6", "1", "0", "x", "3.5"),
    "--tc": ("1", "3", "4", "6", "0", "-1"),
    "--tfb": ("0", "1", "2", "-1"),
    "--seed": ("0", "5", "-3", "x"),
    "--format": ("json", "csv", "xml"),
    "--scheme": ("stia", "zf_tdma", "zf", "tdma", "mat"),
    "--snr": ("40,50,60", "0,10", "60,50", "50", "nan,1", "1e4,1e5", "", "x"),
    "--trials": ("1", "7", "40", "0", "-2", "x"),
    "--rounds-per-trial": ("1", "2", "0", "x"),
    "--gammas": ("0,1/3,1", "1/2", "-1", "1/0", "", "x"),
    "--k-values": ("3", "3,4", "4,3", "6", "2", "3,3", "", "x"),
    "--rounds": ("1", "5", "20", "0", "x"),
    "--inject-fault": ("none", "alignment", "bogus"),
    "--n": ("1", "3", "20", "0", "x"),
}
# Flags every fuzzed run of a subcommand carries, with valid values, so that no default size is used;
# a later flag of the run may override them.
_FUZZ_SIZES = {
    "simulate": {"--trials": ("1", "7", "40"), "--rounds-per-trial": ("1", "2")},
    "verify": {"--k-values": ("3", "3,4", "4,3", "6"), "--rounds": ("1", "5", "20")},
}


def test_fuzz_values_cover_every_flag():
    assert set(_FUZZ_VALUES) == {"--config"} | {flag for flag, _ in _FLAGS.values()} - {"--out"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    argv = [command]
    for flag, values in _FUZZ_SIZES.get(command, {}).items():
        argv += [flag, draw(st.sampled_from(values))]
    own = [_FLAGS[name][0] for name in _SUBCOMMANDS[command][2] if name != "output_path"]
    flags = draw(st.lists(st.sampled_from(own), max_size=3))
    if draw(st.integers(0, 3)) == 0:  # some runs also carry --config or another subcommand's flag
        flags.append(draw(st.sampled_from(list(_FUZZ_VALUES))))
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_FUZZ_VALUES[flag]))]
    return argv


@settings(max_examples=150)
@given(_argvs())
@example(["verify", "--k-values", "3,4", "--rounds", "5", "--inject-fault", "alignment"])
def test_main_exits_cleanly_and_passes_no_report_that_checked_nothing(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        usage = err.startswith("usage: stia") and ": error: " in err.splitlines()[-1]
        assert usage or (out == "" and err.startswith("error:") and err.count("\n") == 1)
    if argv[0] == "verify" and code != 2:
        report = json.JSONDecoder().raw_decode(out)[0]
        assert code == (0 if report["passed"] else 1)
        if report["passed"]:
            assert set(report["round_sweeps"]) == {str(k) for k in report["k_values"]} != set()
            assert all(sweep["rounds"] >= 1 for sweep in report["round_sweeps"].values())
            assert report["plans"]["plans_checked"] >= 1
        assert not (report["passed"] and report["inject_fault"] == "alignment")
