import json
import os

import pytest

from parabolic_escape.cli import COMMANDS, RunConfig, build_map, main, parse_index_range, parse_window
from parabolic_escape.exceptions import ConfigError, DomainError
from parabolic_escape import escape, operators
from parabolic_escape.maps import MapSpec
from parabolic_escape.operators import markov_grid


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_index_range_forms():
    assert parse_index_range("5") == [5]
    assert parse_index_range("2:10:2") == [2, 4, 6, 8, 10]
    assert parse_index_range("2:128:geom") == [2, 4, 8, 16, 32, 64, 128]
    assert parse_index_range("2:20:geom:1.5")[-1] == 20
    with pytest.raises(ConfigError):
        parse_index_range("10:2:1")
    for text in ("2:10:geom:0.5", "1:5", "1:5:2:3", "1:5:0"):
        with pytest.raises(ConfigError):
            parse_index_range(text)


def test_parse_window():
    assert parse_window("20:60", 60) == (20, 60)
    assert parse_window(None, 60) is None
    with pytest.raises(ConfigError):
        parse_window("20:80", 60)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig("escape", hole_index="2", epsilon=0.1).validate()
    with pytest.raises(ConfigError):
        RunConfig("escape").validate()
    with pytest.raises(ConfigError):
        RunConfig("sandwich").validate()
    for bad in (dict(method="magic"), dict(map="tent"), dict(format="xml"), dict(grid=7)):
        with pytest.raises(ConfigError):
            RunConfig("escape", hole_index="2", **bad).validate()
    with pytest.raises(ConfigError, match="unknown command"):
        RunConfig("plot").validate()
    with pytest.raises(ConfigError, match="unknown command"):
        RunConfig.from_dict({"command": "plot"})
    RunConfig("escape", hole_index="2").validate()


def test_seed_and_threads_validated(capsys):
    with pytest.raises(ConfigError):
        RunConfig("mc", hole_index="2", seed=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig("mc", hole_index="2", threads=0).validate()
    argv = ["mc", "--map", "pwl", "--s", "1", "--hole-index", "2", "--samples", "10000", "--tmax", "12"]
    for flag in (["--seed", "-1"], ["--threads", "0"]):
        code, _, err = run_cli(argv + flag, capsys)
        assert code == 2
        assert "ConfigError" in err


def test_build_map_variants(tmp_path):
    assert build_map(RunConfig("escape", map="farey", hole_index="2")).family == "farey"
    pwl = build_map(RunConfig("escape", map="pwl", s=1.0, hole_index="2"))
    assert type(pwl.weights).__name__ == "HarmonicWeights"
    zipf = build_map(RunConfig("escape", map="pwl", s=1.0, pwl_weights="zipf", hole_index="2"))
    assert type(zipf.weights).__name__ == "ZipfWeights"
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps([0.5, 0.3, 0.2]))
    explicit = build_map(RunConfig("escape", map="pwl", pwl_weights=str(wfile), hole_index="2"))
    assert explicit.weights.kmax == 3


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_escape_command_literal_value(capsys):
    code, out, _ = run_cli(
        ["escape", "--map", "pwl", "--s", "1", "--hole-index", "2", "--method", "induced"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["results"][0]
    # the reported rate is the exact decay rate; the classical pressure-ratio
    # value is carried in the diagnostics
    assert row["gamma_mu"] == pytest.approx(0.3164745543990541, abs=1e-12)
    assert row["diagnostics"]["gamma_pressure_ratio"] == pytest.approx(0.3243720864865315, abs=1e-12)
    assert row["lambda"] == pytest.approx(2 / 3, abs=1e-14)


def test_escape_csv_output(tmp_path, capsys):
    out_path = tmp_path / "row.csv"
    code, _, _ = run_cli(
        ["escape", "--map", "farey", "--hole-index", "3", "--grid", "256", "--format", "csv", "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "family,s,N,a_N,m_H,lambda,gamma_rho,sum_k_rho,gamma_mu,method,grid_M,eigen_residual,runtime_ms"
    assert lines[1].startswith("farey,1,3,0.25,0.25,")


def test_sweep_monotone_column(capsys):
    code, out, _ = run_cli(
        ["sweep", "--map", "lsv", "--s", "0.5", "--hole-index", "2:16:geom", "--grid", "512"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    gammas = [r["gamma_mu"] for r in payload["results"]]
    assert all(b <= a + 1e-10 for a, b in zip(gammas, gammas[1:]))
    assert payload["failures"] == []


def test_fit_command(capsys):
    code, out, _ = run_cli(
        ["fit", "--map", "pwl", "--s", "0.5", "--pwl-weights", "zipf", "--hole-index", "30:1000:geom"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["regime"] == "linear"
    assert payload["fit"]["variation"] < 0.1


def test_sandwich_command(capsys):
    code, out, _ = run_cli(
        ["sandwich", "--map", "farey", "--epsilon", "0.3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["N_epsilon"] == 2
    assert payload["result"]["gamma_lower"] < payload["result"]["gamma_upper"]


def test_mc_command_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        [
            "mc", "--map", "pwl", "--s", "1", "--hole-index", "2", "--samples", "100000",
            "--tmax", "20", "--window", "5:15", "--seed", "9", "--format", "csv",
            "--output", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,survivors,estimate,stderr"
    assert len(lines) == 21


def test_mc_command_threads_deterministic(capsys):
    argv = ["mc", "--map", "pwl", "--s", "1", "--hole-index", "2", "--samples", "131072",
            "--tmax", "15", "--seed", "4"]
    _, out1, _ = run_cli(argv + ["--threads", "1"], capsys)
    _, out4, _ = run_cli(argv + ["--threads", "4"], capsys)
    c1 = json.loads(out1)
    c4 = json.loads(out4)
    assert c1["curve"] == c4["curve"]
    assert c1["result"]["gamma"] == c4["result"]["gamma"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"map": "pwl", "s": 1.0, "hole_index": "2", "grid": 128}))
    code, out, _ = run_cli(["escape", "--config", str(cfg_path), "--hole-index", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["hole_index"] == "3"  # flag wins
    assert payload["config"]["grid"] == 128  # file value survives
    assert payload["results"][0]["N"] == 3


def test_json_round_trip(capsys):
    code, out, _ = run_cli(["escape", "--map", "pwl", "--s", "1", "--hole-index", "2"], capsys)
    payload = json.loads(out)
    cfg = RunConfig.from_dict(payload["config"])
    cfg.validate()
    code2, out2, _ = run_cli(["escape", "--map", "pwl", "--s", "1", "--hole-index", "2"], capsys)
    assert json.loads(out2)["results"][0]["gamma_mu"] == payload["results"][0]["gamma_mu"]
    assert cfg.to_dict() == payload["config"]


def test_farey_exponent_other_than_one_rejected(capsys):
    with pytest.raises(DomainError):
        build_map(RunConfig("fit", map="farey", s=0.5, hole_index="10:400:geom:1.5"))
    code, out, err = run_cli(["fit", "--map", "farey", "--s", "0.5", "--hole-index", "10:400:geom:1.5"], capsys)
    assert code == 2
    assert out == ""
    assert "DomainError" in err


@pytest.mark.parametrize("family", ["pm", "lsv", "pwl"])
def test_infinite_exponent_rejected(family, capsys):
    code, out, err = run_cli(["escape", "--map", family, "--s", "inf", "--hole-index", "3"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ConfigError", "message": "--s must be positive and finite"}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
def test_exponent_must_be_positive_and_finite(value, capsys):
    # the config check, not MapSpec, rejects it, the same way for every value
    with pytest.raises(ConfigError, match="positive and finite"):
        RunConfig("escape", s=float(value), hole_index="3").validate()
    code, out, err = run_cli(["escape", "--map", "lsv", f"--s={value}", "--hole-index", "3"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ConfigError", "message": "--s must be positive and finite"}


def test_escape_on_an_epsilon_hole(capsys):
    code, out, _ = run_cli(["escape", "--map", "lsv", "--s", "0.5", "--method", "ulam", "--epsilon", "0.05"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["gamma_mu"] > 0


def test_mc_on_an_epsilon_hole(capsys):
    argv = ["mc", "--map", "lsv", "--s", "0.5", "--epsilon", "0.05", "--samples", "20000", "--tmax", "20"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload["curve"]] == list(range(1, 21))
    assert payload["result"]["gamma"] > 0


def test_induced_route_rejects_an_epsilon_hole(capsys):
    code, out, err = run_cli(["escape", "--method", "induced", "--epsilon", "0.05"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "DomainError"
    assert "Markov hole index" in error["message"]


def test_pwl_weights_rejected_for_other_families():
    with pytest.raises(DomainError):
        build_map(RunConfig("escape", map="lsv", s=0.5, pwl_weights="zipf", hole_index="2"))


def test_harmonic_weights_rejected_for_another_exponent(capsys):
    args = ["fit", "--map", "pwl", "--s", "2", "--pwl-weights", "harmonic", "--hole-index", "10:400:geom:1.5"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "DomainError" in err


def test_both_hole_specs_rejected(capsys):
    code, _, err = run_cli(
        ["escape", "--map", "farey", "--hole-index", "2", "--epsilon", "0.1"], capsys
    )
    assert code == 2
    assert "ConfigError" in err


def test_coarse_grid_rejected():
    # a grid with no more cells than branches must fail loudly rather than
    # fall back to the natural partition (1.7% low for lsv s=0.5, N=30, grid 16)
    with pytest.raises(DomainError):
        markov_grid(MapSpec.lsv(0.5), 30, 16)


def test_induced_route_ignores_grid(capsys):
    # the induced route collocates on Chebyshev nodes, so --grid cannot coarsen it
    args = ["escape", "--map", "lsv", "--s", "0.5", "--hole-index", "30"]
    code, out, _ = run_cli(args + ["--grid", "16"], capsys)
    assert code == 0
    coarse = json.loads(out)["results"][0]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    default = json.loads(out)["results"][0]
    assert coarse["gamma_mu"] == default["gamma_mu"]
    assert coarse["grid_M"] == default["grid_M"] == coarse["diagnostics"]["collocation_nodes"]


MALFORMED_INPUTS = {
    "window": ["escape", "--hole-index", "2", "--window", "5"],
    "hole-index": ["escape", "--hole-index", "abc"],
    "geom-ratio": ["sweep", "--hole-index", "2:10:geom:x"],
    "nan-ratio": ["sweep", "--hole-index", "2:10:geom:nan"],
    "missing-config": ["escape", "--hole-index", "2", "--config", "{tmp}/missing.json"],
    "invalid-json-config": ["escape", "--hole-index", "2", "--config", "{tmp}/broken.json"],
    "non-object-config": ["escape", "--hole-index", "2", "--config", "{tmp}/list.json"],
    "wrong-type-config": ["escape", "--hole-index", "2", "--config", "{tmp}/typed.json"],
    # bool is an int subclass, yet no numeric option takes true or false
    "bool-s-config": ["escape", "--config", "{tmp}/bool-s.json"],
    "bool-seed-config": ["escape", "--config", "{tmp}/bool-seed.json"],
    "missing-weights": ["escape", "--map", "pwl", "--hole-index", "2", "--pwl-weights", "{tmp}/missing.json"],
    # escape and mc take one hole index; a range belongs to sweep
    "escape-index-range": ["escape", "--map", "lsv", "--s", "0.5", "--hole-index", "2:10:1"],
    "mc-index-range": ["mc", "--hole-index", "3:5:1"],
    "unwritable-output": ["escape", "--hole-index", "2", "--output", "{tmp}/missing/out.json"],
    # its folder is writable, yet the output names a directory
    "output-is-a-directory": ["escape", "--map", "pwl", "--hole-index", "2", "--output", "{tmp}"],
}
# weights files that hold no list of numbers, or no probability vector
WEIGHT_FILES = {
    "letters": '["a"]', "object": '{"a": 1}', "scalar": "0.5", "booleans": "[true, false]", "empty": "[]",
    "negative": "[0.5, -0.1, 0.6]", "zero": "[0.5, 0.0, 0.5]", "nan": "[0.5, NaN, 0.5]",
    "sum-below-one": "[0.5, 0.3, 0.15]", "sum-above-one": "[0.7, 0.7, 0.1]",
}
for name in WEIGHT_FILES:
    MALFORMED_INPUTS[f"weights-{name}"] = [
        "escape", "--map", "pwl", "--hole-index", "2", "--pwl-weights", f"{{tmp}}/weights-{name}.json"
    ]


@pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("computed a rate for a malformed input")

    # every case fails before computing, so no run is lost to a bad option
    monkeypatch.setattr(escape, "compute_escape", never)
    (tmp_path / "broken.json").write_text('{"grid": ')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "typed.json").write_text('{"grid": "big"}')
    (tmp_path / "bool-s.json").write_text('{"map": "pwl", "s": true, "hole_index": "2"}')
    (tmp_path / "bool-seed.json").write_text('{"map": "pwl", "hole_index": "2", "seed": false}')
    for name, text in WEIGHT_FILES.items():
        (tmp_path / f"weights-{name}.json").write_text(text)
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_unwritable_output_found_before_computing(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("computed a rate that could not be written")

    monkeypatch.setattr(escape, "compute_escape", never)
    code, out, err = run_cli(["escape", "--hole-index", "2", "--output", f"{tmp_path}/missing/out.json"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_output_write_that_fails_after_the_run_is_a_config_error(monkeypatch, capsys):
    # /dev/full opens for writing, so the early check passes, but every write fails
    runs = []
    original = escape.compute_escape

    def counting(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(escape, "compute_escape", counting)
    code, out, err = run_cli(["escape", "--map", "pwl", "--hole-index", "2", "--output", "/dev/full"], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert "No space left on device" in error["message"]
    assert len(runs) == 1


# the options each command reads: 59 (command, option) pairs
COMMAND_OPTIONS = {
    "escape": {"map", "s", "pwl_weights", "hole_index", "epsilon", "method", "grid", "samples", "tmax",
               "window", "seed", "threads", "output", "format"},
    "sweep": {"map", "s", "pwl_weights", "hole_index", "method", "grid", "samples", "tmax", "window", "seed",
              "threads", "output", "format"},
    "fit": {"map", "s", "pwl_weights", "hole_index", "method", "grid", "samples", "tmax", "window", "seed",
            "threads", "output", "format"},
    "sandwich": {"map", "s", "pwl_weights", "epsilon", "output", "format"},
    "mc": {"map", "s", "pwl_weights", "hole_index", "epsilon", "samples", "tmax", "window", "seed", "threads",
           "output", "format"},
    "verify": {"grid"},
}
# a value each option would accept, as a flag and as a config-file value
OPTION_VALUES = {
    "map": "pwl", "s": 1.0, "pwl_weights": "zipf", "hole_index": "2", "epsilon": 0.3, "method": "ulam",
    "grid": 512, "samples": 1000, "tmax": 20, "window": "5:15", "seed": 1, "threads": 1,
    "output": "out.json", "format": "csv",
}
# the (command, option) pairs that a command does not read
UNREAD = [(c, o) for c in COMMAND_OPTIONS for o in OPTION_VALUES if o not in COMMAND_OPTIONS[c]]
HOLE_ARGS = {"sweep": ["--hole-index", "2"], "fit": ["--hole-index", "2"], "sandwich": ["--epsilon", "0.3"],
             "mc": ["--hole-index", "2"], "verify": []}


def test_command_options_table():
    assert {name: set(options) for name, (_, options) in COMMANDS.items()} == COMMAND_OPTIONS
    assert sum(map(len, COMMAND_OPTIONS.values())) == 59
    assert len(UNREAD) == 25


@pytest.mark.parametrize("command,option", UNREAD, ids=[f"{c}-{o}" for c, o in UNREAD])
def test_unread_option_rejected(command, option, tmp_path, capsys):
    flag = "--" + option.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, *HOLE_ARGS[command], flag, str(OPTION_VALUES[option])])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({option: OPTION_VALUES[option]}))
    code, out, err = run_cli([command, *HOLE_ARGS[command], "--config", str(cfg_path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"
    assert "unknown config keys" in err


ECHO_RUNS = {
    "escape": ["escape", "--map", "pwl", "--hole-index", "2"],
    "sweep": ["sweep", "--map", "pwl", "--hole-index", "2:3:1"],
    "fit": ["fit", "--map", "pwl", "--s", "0.5", "--pwl-weights", "zipf", "--hole-index", "30:1000:geom"],
    "sandwich": ["sandwich", "--map", "farey", "--epsilon", "0.3"],
    "mc": ["mc", "--map", "pwl", "--hole-index", "2", "--samples", "10000", "--tmax", "10"],
}


@pytest.mark.parametrize("command", ECHO_RUNS)
def test_csv_lines_end_with_a_bare_newline(command, capsys):
    code, out, _ = run_cli(ECHO_RUNS[command] + ["--format", "csv"], capsys)
    assert code == 0
    assert out.endswith("\n") and "\r" not in out


@pytest.mark.parametrize("command", ECHO_RUNS)
def test_config_echo_holds_only_read_options(command, capsys):
    code, out, _ = run_cli(ECHO_RUNS[command], capsys)
    assert code == 0
    echo = json.loads(out)["config"]
    assert set(echo) == {"command"} | COMMAND_OPTIONS[command]
    cfg = RunConfig.from_dict(echo)
    cfg.validate()
    assert cfg.to_dict() == echo


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"holes": 2}))
    code, _, err = run_cli(["escape", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify", "--grid", "2048"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_builds_each_set_of_pieces_once(monkeypatch, capsys):
    # the mass identity check reads the solved pair, not the pieces
    builds = []
    original = operators.induced_branch_matrices

    def counting(sys, grid):
        # the objects themselves are kept, so no id is reused by a later build
        builds.append((sys, grid))
        return original(sys, grid)

    monkeypatch.setattr(operators, "induced_branch_matrices", counting)
    code, _, _ = run_cli(["verify", "--grid", "2048"], capsys)
    assert code == 0
    assert builds and len(builds) == len({(id(sys), id(grid)) for sys, grid in builds})
