"""End-to-end checks of config loading, the report pipeline, and subcommands."""

import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from maqmsim import cli, memory, protocol
from maqmsim.cli import (
    MAX_HERALDS,
    ConfigError,
    derive_seed,
    load_experiment_config,
    main,
    parse_experiment_config,
    report_to_csv,
    report_to_json,
    run_experiment,
    run_sweep,
    sweep_to_csv,
    sweepable_paths,
)
from maqmsim.schedule import compile_schedule, schedule_from_jsonl, schedule_to_jsonl
from test_tomo import SetulbSpy, force_decrease

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "maqmsim" / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GRID1 = {"x_origin": 97.0, "x_step": 1.5, "y_origin": 95.5, "y_step": 1.5}
GRID2 = {"x_origin": 101.1, "x_step": 1.2, "y_origin": 99.0, "y_step": 1.2}


def small_doc(dimension=2, heralds=2000, dark=0.0, eta_det=1.0, seed=3,
              n_resamples=6):
    if dimension == 2:
        cells = [[1, 1], [1, 2]]
        proto = {"dimension": 2, "source_cells": cells, "target_cells": cells,
                 "t1": 15.6, "tau": 7.8, "t2": 7.8}
        t_larmor1 = 7.8
    else:
        cells = [[2, 2], [3, 2], [2, 3], [3, 3]]
        proto = {"dimension": 4, "source_cells": cells, "target_cells": cells,
                 "t1": 11.7, "tau": 3.9, "t2": 7.8}
        t_larmor1 = 3.9
    return {
        "seed": seed,
        "memories": {
            "MAQM1": {"n_x": 5, "n_y": 6, "eta_write": 0.01, "eta_read": 0.2,
                      "tau_mem": 65.0, "t_larmor": t_larmor1, "rf_grid": GRID1},
            "MAQM2": {"n_x": 5, "n_y": 6, "eta_write": 0.0, "eta_read": 0.0,
                      "eta_eit": 0.2, "tau_mem": 27.8, "t_larmor": 1.3,
                      "rf_grid": GRID2},
        },
        "protocol": proto,
        "detection": {"eta_det": eta_det, "dark_rate": dark,
                      "heralds_per_setting": heralds},
        "estimation": {"n_resamples": n_resamples},
    }


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


# ---------------------------------------------------------------- validation

def test_missing_seed_rejected():
    doc = small_doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_experiment_config(doc)


def test_seed_override_stands_in_for_missing_seed():
    doc = small_doc()
    del doc["seed"]
    cfg = parse_experiment_config(doc, seed_override=99)
    assert cfg.seed == 99


def test_field_path_in_diagnostics():
    doc = small_doc()
    doc["protocol"]["t1"] = -1.0
    with pytest.raises(ConfigError, match=r"protocol\.t1"):
        parse_experiment_config(doc)
    doc = small_doc()
    doc["protocol"]["source_cells"] = [[1, 1], [1, "a"]]
    with pytest.raises(ConfigError, match=r"source_cells\[1\]"):
        parse_experiment_config(doc)
    doc = small_doc()
    doc["detection"]["eta_det"] = 1.5
    with pytest.raises(ConfigError, match=r"detection\.eta_det"):
        parse_experiment_config(doc)
    doc = small_doc()
    del doc["memories"]["MAQM2"]
    with pytest.raises(ConfigError, match="MAQM2"):
        parse_experiment_config(doc)


def test_write_phases_length_checked():
    doc = small_doc()
    doc["protocol"]["write_phases"] = [0.0, 0.0, 0.0]
    with pytest.raises(ConfigError, match="write_phases"):
        parse_experiment_config(doc)


@pytest.mark.parametrize("path, value, where", [
    ("protocol.t1", True, "protocol.t1"),
    ("memories.MAQM1.tau_mem", "65", "memories.MAQM1.tau_mem"),
    ("memories.MAQM2.tau_mem", True, "memories.MAQM2.tau_mem"),
    ("memories.MAQM1.t_larmor", "7.8", "memories.MAQM1.t_larmor"),
    ("memories.MAQM2.rf_grid.x_step", True, "memories.MAQM2.rf_grid.x_step"),
    ("memories.MAQM1.rf_grid.y_origin", "95.5", "memories.MAQM1.rf_grid.y_origin"),
    ("memories.MAQM1.eta_read", "0.2", "memories.MAQM1.eta_read"),
    ("memories.MAQM2.eta_eit", True, "memories.MAQM2.eta_eit"),
    ("memories.MAQM1.eta_write", [0.01] * 29 + ["0.01"], "memories.MAQM1.eta_write[29]"),
    ("memories.MAQM2.eta_eit", [0.2] * 3 + [True] + [0.2] * 26, "memories.MAQM2.eta_eit[3]"),
], ids=["protocol.t1", "tau_mem-string", "tau_mem-bool", "t_larmor-string", "x_step-bool",
        "y_origin-string", "eta_read-string", "eta_eit-bool", "eta_write-list-string",
        "eta_eit-list-bool"])
def test_booleans_are_not_numbers(tmp_path, capsys, path, value, where):
    # strings and booleans must not be coerced into numbers anywhere in the config
    doc = copy.deepcopy(small_doc())    # small_doc shares its rf_grid dicts
    *parents, key = path.split(".")
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    config = write_config(tmp_path, doc)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "s.jsonl")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {where}")
    assert "must be a number" in lines[0]


def test_json_syntax_error_is_line_precise(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,\n  oops\n}\n')
    with pytest.raises(ConfigError, match=r"broken\.json:3:3"):
        load_experiment_config(str(path))


def test_sweep_json_syntax_error_is_line_precise(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,\n  oops\n}\n')
    assert main(["sweep", "--config", str(path), "--param", "protocol.drift",
                 "--values", "0.1"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:3:3: ")


@pytest.mark.parametrize("text", ["5\n", "[1, 2]\n"])
def test_sweep_config_must_be_an_object(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--param", "protocol.drift",
                 "--values", "0.1", "--seed", "3"]) == 2
    assert capsys.readouterr().err == "config error: config: top level must be a JSON object\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("raw, where", [
    (b'{"seed": \xc3\x28}', "byte 9 (0xc3)"),
    (b'\xff\xfe{"seed": 1}', "byte 0 (0xff)"),
], ids=["bad-continuation", "utf16-mark"])
def test_a_config_that_is_not_utf8_exits_two(tmp_path, capsys, command, raw, where):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    sweep = ["--param", "protocol.drift", "--values", "0.1"] if command == "sweep" else []
    assert main([command, "--config", str(path), *sweep]) == 2
    assert capsys.readouterr().err == (f"config error: {path}: not UTF-8 text: "
                                       f"{where} is invalid\n")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text, reason", [
    ("[" * 200_000, "nested too deeply"),
    ('{"seed": ' + "1" * 5000 + "}",
     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
], ids=["deep-nesting", "long-integer"])
def test_json_the_reader_cannot_hold_exits_two(tmp_path, capsys, command, text, reason):
    path = tmp_path / "config.json"
    path.write_text(text)
    sweep = ["--param", "protocol.drift", "--values", "0.1"] if command == "sweep" else []
    assert main([command, "--config", str(path), *sweep]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {reason}\n"


def test_a_utf8_byte_order_mark_is_skipped(tmp_path):
    plain = run_experiment(load_experiment_config(write_config(tmp_path, small_doc(4))))
    path = tmp_path / "marked.json"
    path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "config.json").read_bytes())
    marked = run_experiment(load_experiment_config(str(path)))
    assert marked.pop("config_sha256") == hashlib.sha256(path.read_bytes()).hexdigest()
    del plain["config_sha256"]
    assert report_to_json(marked) == report_to_json(plain)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text, key", [
    ('{"seed": 1, "seed": 2}', "seed"),
    ('{"seed": 1, "detection": {"dark_rate": 0, "eta_det": 1, "dark_rate": 0}}', "dark_rate"),
], ids=["top-level", "nested"])
def test_a_repeated_key_is_rejected_by_name(tmp_path, capsys, command, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    sweep = ["--param", "protocol.drift", "--values", "0.1"] if command == "sweep" else []
    assert main([command, "--config", str(path), *sweep]) == 2
    assert capsys.readouterr().err == f"config error: {path}: duplicate key {key!r}\n"


@pytest.mark.parametrize("field, value, message", [
    ("source_cells", [[1, 1], [1, 2], [2, 2]], "source_cells: need exactly one cell per branch"),
    ("target_cells", [[1, 1]], "target_cells: need exactly one cell per branch"),
    ("source_cells", [[1, 1], [1, 1]], "source_cells: cells must be distinct within the memory"),
    ("target_cells", [[1, 2], [1, 2]], "target_cells: cells must be distinct within the memory"),
    ("retrieval_order", [0, 0], "retrieval_order: must be a permutation of the bins"),
    ("retrieval_order", [0, 1, 2], "retrieval_order: must be a permutation of the bins"),
    ("retrieval_order", [], "retrieval_order: must be a permutation of the bins"),
    ("source_cells", [], "source_cells: must be a non-empty list of [x, y] pairs"),
    ("retrieval_order", "x", "retrieval_order: must be a list of bin indices"),
])
def test_a_protocol_error_names_its_field(tmp_path, capsys, field, value, message):
    doc = small_doc()
    doc["protocol"][field] = value
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: protocol.{message}\n"


def test_cell_outside_grid_rejected():
    doc = small_doc()
    doc["protocol"]["source_cells"] = [[1, 1], [9, 9]]
    with pytest.raises(ConfigError) as err:
        parse_experiment_config(doc)
    assert str(err.value) == "protocol.source_cells[1]: cell (9, 9) outside 5x6 grid of MAQM1"


@pytest.mark.parametrize("field, cells, message", [
    ("target_cells", [[1, 1], [1, 6]], "target_cells[1]: cell (1, 6) outside 5x6 grid of MAQM2"),
    ("source_cells", [[10**19, 1], [1, 2]],
     "source_cells[0]: cell (10000000000000000000, 1) outside 5x6 grid of MAQM1"),
    ("target_cells", [[1, 1], [1, 10**19]],
     "target_cells[1]: cell (1, 10000000000000000000) outside 5x6 grid of MAQM2"),
])
def test_cell_outside_grid_names_its_field(tmp_path, capsys, field, cells, message):
    doc = small_doc()
    doc["protocol"][field] = cells
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: protocol.{message}\n"


# ------------------------------------------------------------------- reports

def test_qubit_report_structure():
    rep = run_experiment(parse_experiment_config(small_doc()))
    assert rep["dimension"] == 2
    assert rep["schedule"]["valid"] is True
    for stage in ("maqm1_stage", "maqm2_stage"):
        block = rep[stage]
        assert 0.0 <= block["fidelity"] <= 1.0
        assert block["sigma"] >= 0.0
    assert 0.0 <= rep["transmission_fidelity"] <= 1.0
    assert "w_fidelity" not in rep["maqm1_stage"]


def test_qudit_report_structure():
    rep = run_experiment(parse_experiment_config(small_doc(dimension=4,
                                                           heralds=20000)))
    assert rep["dimension"] == 4
    assert "transmission_fidelity" not in rep
    for stage in ("maqm1_stage", "maqm2_stage"):
        assert 0.0 <= rep[stage]["w_fidelity"] <= 1.0


def test_report_bytes_deterministic():
    doc = small_doc()
    text1 = report_to_json(run_experiment(parse_experiment_config(doc)))
    text2 = report_to_json(run_experiment(parse_experiment_config(doc)))
    assert text1 == text2


def test_report_floats_rounded_to_six_significant_digits():
    rep = {"x": 0.123456789123, "nested": {"y": [1.9999999999991, 2.0]}}
    text = report_to_json(rep)
    assert json.loads(text) == {"x": 0.123457, "nested": {"y": [2.0, 2.0]}}


def test_report_embeds_hash_and_seed(tmp_path):
    doc = small_doc(seed=17)
    path = write_config(tmp_path, doc)
    cfg = load_experiment_config(path)
    rep = run_experiment(cfg)
    assert rep["seed"] == 17
    assert rep["config_sha256"] == hashlib.sha256(
        Path(path).read_bytes()).hexdigest()


def test_report_csv_is_flat_key_value():
    rep = run_experiment(parse_experiment_config(small_doc()))
    text = report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "key,value"
    keys = [ln.split(",", 1)[0] for ln in lines[1:]]
    assert "maqm1_stage.fidelity" in keys
    assert "schedule.valid" in keys


def test_stage_seeds_are_independent_substreams():
    # distinct (seed, stage, stream) triples must give distinct integers
    seeds = {derive_seed(3, s, k) for s in (1, 2) for k in (0, 1)}
    assert len(seeds) == 4
    assert derive_seed(3, 1, 0) == derive_seed(3, 1, 0)


# ------------------------------------------------------------ shipped configs

def test_ideal_config_reaches_the_monte_carlo_floor():
    cfg = load_experiment_config(str(CONFIG_DIR / "qubit_ideal.json"))
    rep = run_experiment(cfg)
    for stage in ("maqm1_stage", "maqm2_stage"):
        assert rep[stage]["fidelity"] >= 0.995
        assert rep[stage]["sigma"] < 0.005
    assert rep["transmission_fidelity"] >= 0.995


def test_default_config_orders_the_stages():
    cfg = load_experiment_config(str(CONFIG_DIR / "qubit_default.json"))
    rep = run_experiment(cfg)
    f1 = rep["maqm1_stage"]["fidelity"]
    f2 = rep["maqm2_stage"]["fidelity"]
    assert f1 > f2
    assert f2 > 0.8
    assert rep["schedule"]["valid"] is True


# -------------------------------------------------------------------- sweeps

def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ConfigError, match="not a sweepable"):
        run_sweep(small_doc(), "protocol.dimension", [2.0])


def test_sweepable_paths_listed():
    paths = sweepable_paths()
    assert "protocol.drift" in paths
    assert "memories.MAQM1.eta_read_ratio" in paths


def test_sweep_empty_values_header_only():
    rows = run_sweep(small_doc(), "detection.eta_det", [])
    text = sweep_to_csv(rows)
    assert text.count("\n") == 1
    assert text.startswith("param,value,seed,")


def test_sweep_rows_use_derived_seeds():
    rows = run_sweep(small_doc(seed=3), "detection.eta_det", [0.5, 0.5])
    assert rows[0]["seed"] == derive_seed(3, 0)
    assert rows[1]["seed"] == derive_seed(3, 1)
    assert rows[0]["seed"] != rows[1]["seed"]


def test_sweep_deterministic():
    rows1 = run_sweep(small_doc(), "detection.eta_det", [0.4, 0.8])
    rows2 = run_sweep(small_doc(), "detection.eta_det", [0.4, 0.8])
    assert sweep_to_csv(rows1) == sweep_to_csv(rows2)


def test_drift_sweep_decreases_transfer_fidelity():
    doc = small_doc(heralds=4000, n_resamples=4)
    rows = run_sweep(doc, "protocol.drift", [0.0, math.pi / 4, math.pi / 2])
    f2 = [r["maqm2_fidelity"] for r in rows]
    assert f2[0] > f2[1] > f2[2]


def test_eta_ratio_sweep_follows_the_two_branch_law():
    doc = small_doc(heralds=100000, eta_det=1.0, n_resamples=4)
    doc["memories"]["MAQM1"]["eta_read"] = 0.5
    doc["memories"]["MAQM1"]["tau_mem"] = 1e12
    doc["memories"]["MAQM2"]["tau_mem"] = 1e12
    for ratio in (1.0, 0.5, 0.25):
        rows = run_sweep(doc, "memories.MAQM1.eta_read_ratio", [ratio])
        law = (1 + math.sqrt(ratio)) ** 2 / (2 * (1 + ratio))
        assert abs(rows[0]["maqm1_fidelity"] - law) < 0.01


def test_qudit_sweep_fills_w_columns():
    rows = run_sweep(small_doc(dimension=4, heralds=20000, n_resamples=4),
                     "detection.eta_det", [0.8])
    assert "maqm1_w_fidelity" in rows[0]
    assert "maqm1_fidelity" not in rows[0]
    text = sweep_to_csv(rows)
    header, row = text.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["transmission_fidelity"] == ""
    assert cells["maqm1_w_fidelity"] != ""


# ------------------------------------------------------------------ main CLI

def test_main_run_writes_report(tmp_path):
    path = write_config(tmp_path, small_doc())
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["dimension"] == 2


def sweep_column_keys(w):
    """Each sweep column and the run CSV key of the same report value; ``w``
    is the stage columns' prefix, "" for qubit runs and "w_" for qudit runs."""
    keys = {"seed": "seed", "dimension": "dimension", "schedule_valid": "schedule.valid",
            "herald_probability": "herald_probability",
            "transmission_fidelity": "transmission_fidelity"}
    for stage in ("maqm1", "maqm2"):
        keys[f"{stage}_{w}fidelity"] = f"{stage}_stage.{w}fidelity"
        keys[f"{stage}_{w}sigma"] = f"{stage}_stage.sigma"
    return keys


@pytest.mark.parametrize("config_name", ["qubit_ideal.json", "qudit_default.json"])
def test_run_csv_and_sweep_csv_write_a_shared_value_alike(capsys, config_name):
    # the one-point sweep at the config's own herald number is the run at
    # the point's seed, so every value the two outputs share is the same
    # number; whole floats (qubit_ideal's 1.0) must read alike too
    path = str(CONFIG_DIR / config_name)
    heralds = json.loads(Path(path).read_text())["detection"]["heralds_per_setting"]
    assert main(["sweep", "--config", path, "--param", "detection.heralds_per_setting",
                 "--values", str(heralds)]) == 0
    header, cells = capsys.readouterr().out.splitlines()
    sweep = dict(zip(header.split(","), cells.split(",")))
    assert main(["run", "--config", path, "--format", "csv", "--seed", sweep["seed"]]) == 0
    run = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
    keys = sweep_column_keys("" if run["dimension"] == "2" else "w_")
    shared = {column: key for column, key in keys.items() if key in run}
    assert {"seed", "herald_probability", "maqm2_stage.sigma"} <= {*shared, *shared.values()}
    assert {column: sweep[column] for column in shared} == \
        {column: run[key] for column, key in shared.items()}


def test_main_run_seed_override(tmp_path):
    path = write_config(tmp_path, small_doc(seed=3))
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out),
                 "--seed", "42"]) == 0
    assert json.loads(out.read_text())["seed"] == 42


def test_main_run_csv_format(tmp_path):
    path = write_config(tmp_path, small_doc())
    out = tmp_path / "report.csv"
    assert main(["run", "--config", path, "--out", str(out),
                 "--format", "csv"]) == 0
    assert out.read_text().startswith("key,value\n")


def test_run_csv_list_cells_keep_their_row(tmp_path, capsys):
    # 30 heralds a setting leave visibility warnings, lists of messages
    # with commas, which must stay one quoted cell each
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    doc["detection"]["heralds_per_setting"] = 30
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path, "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["run", "--config", path, "--seed", "1", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(len(row) == 2 for row in rows)
    cells = dict(rows[1:])
    warnings = [report[stage]["warnings"] for stage in ("maqm1_stage", "maqm2_stage")]
    assert any(len(w) > 1 for w in warnings)
    assert [json.loads(cells[f"{stage}.warnings"]) for stage in ("maqm1_stage", "maqm2_stage")] \
        == warnings
    assert json.loads(cells["schedule.violations"]) == report["schedule"]["violations"]


def test_main_config_errors_exit_nonzero(tmp_path, capsys):
    doc = small_doc()
    doc["protocol"]["tau"] = -7.8
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert "protocol.tau" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_unknown_memory_field_exits_two(tmp_path, capsys):
    # crosstalk_eps was once accepted and had no effect; it is now an error
    doc = small_doc()
    doc["memories"]["MAQM1"]["crosstalk_eps"] = 0.02
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: memories.MAQM1: ")
    assert "'crosstalk_eps'" in err


@pytest.mark.parametrize("value", [5.9, 5.0, "5", True])
def test_grid_size_must_be_an_integer(tmp_path, capsys, value):
    doc = small_doc()
    doc["memories"]["MAQM2"]["n_x"] = value
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: memories.MAQM2.n_x: must be an integer")


@pytest.mark.parametrize("path, value, where", [
    ("protocol.t1", math.nan, "protocol.t1"),
    ("protocol.tau", math.nan, "protocol.tau"),
    ("protocol.t2", math.nan, "protocol.t2"),
    ("memories.MAQM1.eta_read", math.nan, "memories.MAQM1.eta_read"),
    ("memories.MAQM2.eta_eit", math.nan, "memories.MAQM2.eta_eit"),
    ("detection.eta_det", math.nan, "detection.eta_det"),
    ("detection.dark_rate", math.nan, "detection.dark_rate"),
    ("protocol.tau", math.inf, "protocol.tau"),
    ("detection.dark_rate", math.inf, "detection.dark_rate"),
    ("protocol.drift", -math.inf, "protocol.drift"),
    ("memories.MAQM1.tau_mem", math.nan, "memories.MAQM1.tau_mem"),
    ("memories.MAQM2.tau_mem", math.inf, "memories.MAQM2.tau_mem"),
    ("memories.MAQM1.t_larmor", math.nan, "memories.MAQM1.t_larmor"),
    ("memories.MAQM2.t_larmor", math.inf, "memories.MAQM2.t_larmor"),
    ("memories.MAQM1.rf_grid.x_origin", math.nan, "memories.MAQM1.rf_grid.x_origin"),
    ("memories.MAQM1.rf_grid.x_step", math.nan, "memories.MAQM1.rf_grid.x_step"),
    ("memories.MAQM2.rf_grid.y_origin", -math.inf, "memories.MAQM2.rf_grid.y_origin"),
    ("memories.MAQM2.rf_grid.y_step", math.inf, "memories.MAQM2.rf_grid.y_step"),
    # finite but past MAX_TIME_US: these overflowed in schedule and memory
    *((f"protocol.{key}", value, f"protocol.{key}: must be at most 1e+06")
      for key in ("t1", "tau", "t2") for value in (1e200, 1e308)),
])
def test_non_finite_numbers_exit_two(tmp_path, capsys, path, value, where):
    doc = json.loads((CONFIG_DIR / "qubit_default.json").read_text())
    *parents, key = path.split(".")
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    config = write_config(tmp_path, doc)    # json writes NaN / Infinity
    for command in ("run", "compile"):
        assert main([command, "--config", config]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {where}")


# each config bound, the value its constant holds, and the README phrase
# that states it (README whitespace folded to single spaces)
README_BOUNDS = {
    "MAX_TIME_US": (protocol.MAX_TIME_US, r"`protocol\.t1`, `tau` and `t2` are at most (\S+) µs"),
    "MIN_TAU_US": (protocol.MIN_TAU_US, r"`protocol\.tau` is at least (\S+) µs"),
    "TIME_GRID_US-ns": (memory.TIME_GRID_US * 1e3, r"two steps of the (\S+) ns timing grid"),
    "TIME_GRID_US": (memory.TIME_GRID_US, r"`t_larmor` is at least (\S+) µs, the timing grid"),
    "MAX_HERALDS": (cli.MAX_HERALDS, r"`detection\.heralds_per_setting` is at most (.+?),"),
    "MAX_RESAMPLES": (cli.MAX_RESAMPLES, r"`estimation\.n_resamples` is at most (.+?), and"),
    "MAX_BOOTSTRAP_FLOATS": (cli.MAX_BOOTSTRAP_FLOATS,
                             r"`n_resamples × dimension²` is at most (\S+) "),
    "MAX_CELLS": (memory.MAX_CELLS, r"A memory grid has at most (\S+) cells"),
    "MAX_DIMENSION": (cli.MAX_DIMENSION, r"`protocol\.dimension` is at most (\S+) and"),
    # not a config bound: the stream rows a sweep hashes in one pass
    "_PLAN_ROWS": (cli._PLAN_ROWS, r"in groups of at most (\S+) stream rows"),
}


def readme_number(text):
    """A number as the README writes it: 1e6, 0.002, 100 000, 10**8 or 2**63 − 1."""
    power = re.fullmatch(r"(\d+)\*\*(\d+)(?: − (\d+))?", text)
    if power:
        base, exponent, less = power.groups()
        return int(base) ** int(exponent) - int(less or 0)
    return float(text.replace(" ", ""))


@pytest.mark.parametrize("name", README_BOUNDS)
def test_readme_states_each_config_bound_at_its_value(name):
    value, phrase = README_BOUNDS[name]
    found = re.search(phrase, " ".join(README.read_text().split()))
    assert found, f"README states no value for {name}"
    assert readme_number(found.group(1)) == value


@pytest.mark.parametrize("config_name", ["qubit_default.json", "qudit_default.json"])
@pytest.mark.parametrize("dark_rate", [0.999, 2.5])
def test_dark_rate_past_one_exits_two_before_any_draw(tmp_path, capsys, monkeypatch,
                                                      config_name, dark_rate):
    doc = json.loads((CONFIG_DIR / config_name).read_text())
    doc["detection"]["dark_rate"] = dark_rate
    monkeypatch.setattr(cli, "sample_counts", None)   # a draw would raise TypeError
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: detection.dark_rate: {dark_rate!r} plus")


@pytest.mark.parametrize("dimension", [2, 4])
def test_stages_draw_in_order_from_their_stream_blocks(monkeypatch, dimension):
    # stage s draws its table from block 2s of the stream plan and its
    # resamples from block 2s + 1; a W stage is estimated, and its stack
    # freed, before the next stage draws; a qubit run fits both tables in
    # one call once both are drawn
    cfg = parse_experiment_config(small_doc(dimension))
    settings = cli.tomography_settings() if dimension == 2 else cli.w_settings(dimension)
    plan = cli._stream_plans([(cfg, len(settings.labels))])[0]
    probabilities = [cli.coincidence_probabilities(cli.run_protocol(cfg.protocol, transfer=t),
                                                   settings, cfg.eta_det) for t in (False, True)]
    real = {name: getattr(cli, name) for name in (
        "sample_counts", "poisson_resamples", "monte_carlo_w_fidelity", "monte_carlo_fidelities")}
    events, tables, stacks = [], [], []

    def block(streams):
        return next(i for i, b in enumerate(plan) if b.shape == streams.shape
                    and np.array_equal(b, streams))

    def sample_counts(*args):
        tables.append(real["sample_counts"](*args))
        stage = next(s for s, p in enumerate(probabilities) if np.array_equal(p, args[1]))
        events.append(f"stage {stage + 1} table {block(args[-1])}")
        return tables[-1]

    def poisson_resamples(table, streams):
        assert table is tables[-1]
        assert all(ref() is None for ref in stacks), "a W stack outlived its stage"
        stack = real["poisson_resamples"](table, streams)
        if dimension > 2:
            stacks.append(weakref.ref(stack))
        events.append(f"resamples {block(streams)}")
        return stack

    def monte_carlo_w_fidelity(table, d, resamples):
        assert table is tables[-1] and resamples is stacks[-1]()
        events.append("w")
        return real["monte_carlo_w_fidelity"](table, d, resamples)

    def monte_carlo_fidelities(fit_tables, *args, **kwargs):
        assert [id(t) for t in fit_tables] == [id(t) for t in tables]
        events.append("fit")
        return real["monte_carlo_fidelities"](fit_tables, *args, **kwargs)

    for name, spy in (("sample_counts", sample_counts), ("poisson_resamples", poisson_resamples),
                      ("monte_carlo_w_fidelity", monte_carlo_w_fidelity),
                      ("monte_carlo_fidelities", monte_carlo_fidelities)):
        monkeypatch.setattr(cli, name, spy)
    report = run_experiment(cfg)
    draws = ["stage 1 table 0", "resamples 1", "stage 2 table 2", "resamples 3"]
    assert events == (draws + ["fit"] if dimension == 2 else
                      draws[:2] + ["w"] + draws[2:] + ["w"])
    monkeypatch.undo()
    assert report == run_experiment(cfg)


def peak_probability(doc) -> float:
    """The largest coincidence probability of either stage of a qudit run."""
    cfg = parse_experiment_config(doc)
    return max(float(cli.coincidence_probabilities(
        cli.run_protocol(cfg.protocol, transfer=transfer), cli.w_settings(4), cfg.eta_det).max())
        for transfer in (False, True))


def test_dark_rate_check_agrees_with_the_sampler(tmp_path, capsys):
    # at the edge, the check and sample_counts add the same two floats, so a
    # dark rate either exits 2 up front or runs to the end
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    peak = peak_probability(doc)
    edge = 1.0 - peak
    for dark_rate in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
        doc["detection"]["dark_rate"] = float(dark_rate)
        code = main(["run", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "report.json")])
        assert code == (2 if peak + float(dark_rate) > 1.0 else 0)
        capsys.readouterr()


@pytest.mark.parametrize("heralds, fill_the_ceiling, code", [
    (10**19, False, 2), (2**63 - 1, False, 2), (MAX_HERALDS + 1, False, 2),
    (MAX_HERALDS, False, 0), (MAX_HERALDS, True, 0)],
    ids=["past-a-c-long", "a-c-long", "past-the-bound", "at-the-bound",
         "at-the-bound-with-every-herald-a-coincidence"])
def test_heralds_per_setting_fits_a_c_long(tmp_path, capsys, heralds, fill_the_ceiling, code):
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    doc["detection"]["heralds_per_setting"] = heralds
    if fill_the_ceiling:
        # the peak setting counts every herald, and a resample's Poisson
        # mean is that count
        peak = peak_probability(doc)
        edge = 1.0 - peak
        doc["detection"]["dark_rate"] = edge if peak + edge <= 1.0 else float(np.nextafter(edge, 0))
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "report.json")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"config error: detection.heralds_per_setting: "
                              f"must be at most {MAX_HERALDS}")


@pytest.mark.parametrize("section, key", [
    ("detection", "heralds_per_settting"),
    ("protocol", "dimensions"),
    ("estimation", "n_resample"),
    (None, "detections"),
    ("memories", "zz_unknown"),
    ("memories.MAQM1.rf_grid", "x_extra"),
    ("memories.MAQM2.rf_grid", "x_extra"),
])
def test_unknown_section_field_exits_two(tmp_path, capsys, section, key):
    doc = copy.deepcopy(small_doc())    # small_doc shares its rf_grid dicts
    node = doc
    for name in section.split(".") if section else ():
        node = node.setdefault(name, {})
    node[key] = 1
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    where = section or "config"
    assert capsys.readouterr().err == f"config error: {where}: unknown field(s) '{key}'\n"


@pytest.mark.parametrize("grid", [5, [1, 2], "x", None])
def test_rf_grid_must_be_an_object(tmp_path, capsys, grid):
    doc = copy.deepcopy(small_doc())
    doc["memories"]["MAQM1"]["rf_grid"] = grid
    path = write_config(tmp_path, doc)
    assert main(["compile", "--config", path]) == 2
    assert capsys.readouterr().err == (f"config error: memories.MAQM1.rf_grid: must be "
                                       f"an object, got {grid!r}\n")


@pytest.mark.parametrize("memory, axis", [("MAQM1", "x"), ("MAQM2", "y")])
def test_rf_grid_tones_must_be_finite_on_every_cell(tmp_path, capsys, memory, axis):
    # origin and step are finite, but the last cell's tone overflows to inf,
    # which compile would write out as the non-JSON Infinity
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    doc["memories"][memory]["rf_grid"].update({f"{axis}_origin": 1e308, f"{axis}_step": 1e308})
    path = write_config(tmp_path, doc)
    assert main(["compile", "--config", path, "--out", str(tmp_path / "schedule.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"config error: memories.{memory}.rf_grid: {axis}_origin + {axis}_step * (n_{axis} - 1), "
        f"the last cell's {axis} tone, must be a finite number\n")


def test_grid_cell_count_is_bounded_before_any_map(tmp_path, capsys, monkeypatch):
    # n_x = n_y = 10**5 with a scalar eta_write would ask np.full for 80 GB
    def no_map(*args):
        raise AssertionError("an efficiency map was built")

    monkeypatch.setattr("maqmsim.memory._as_map", no_map)
    doc = small_doc()
    doc["memories"]["MAQM1"]["n_x"] = doc["memories"]["MAQM1"]["n_y"] = 10**5
    path = write_config(tmp_path, doc)
    assert main(["compile", "--config", path]) == 2
    assert capsys.readouterr().err == ("config error: memories.MAQM1: grid of 100000 x "
                                       "100000 cells exceeds MAX_CELLS = 1000000\n")


QUDIT_BROKEN_FIELDS = [
    (("protocol", "source_cells", 0), [-1, 2],
     "protocol.source_cells[0]: cell indices must be non-negative, got (-1, 2)"),
    (("protocol", "target_cells", 0), [-1, 2],
     "protocol.target_cells[0]: cell indices must be non-negative, got (-1, 2)"),
    (("protocol", "dimension"), 10**19, "protocol.dimension: must be at most 30"),
    (("protocol", "source_cells", 0), [0, 2],
     "protocol.source_cells: cell weights do not factor"),
    (("protocol", "target_cells", 0), [0, 2],
     "protocol.target_cells: cell weights do not factor"),
    (("estimation", "n_resamples"), 10**19, "estimation.n_resamples: must be at most 100000"),
    (("protocol", "tau"), 1e-4, "protocol.tau: must be at least 0.002, two steps of the "
                                "0.001 us timing grid"),
    (("protocol", "tau"), 0.001, "protocol.tau: must be at least 0.002"),
    (("memories", "MAQM1", "t_larmor"), 1e-310,
     "memories.MAQM1.t_larmor: must be at least 0.001, the timing grid"),
    (("memories", "MAQM2", "t_larmor"), 0.0009, "memories.MAQM2.t_larmor: must be at least"),
    (("estimation", "tol"), 1.0, "estimation.tol: must be less than 1"),
    # the time, period and step rules of ProtocolConfig, MemorySpec and RfGrid,
    # each under its field's path
    (("protocol", "t1"), 0.0, "protocol.t1: must be positive\n"),
    (("protocol", "tau"), -3.9, "protocol.tau: must be at least 0.002, two steps of the "
                                "0.001 us timing grid\n"),
    (("protocol", "t2"), -7.8, "protocol.t2: must be non-negative\n"),
    (("memories", "MAQM2", "tau_mem"), 0.0,
     "memories.MAQM2.tau_mem: must be a finite positive number\n"),
    (("memories", "MAQM1", "t_larmor"), 0.0,
     "memories.MAQM1.t_larmor: must be at least 0.001, the timing grid\n"),
    (("memories", "MAQM1", "rf_grid", "x_step"), 0.0,
     "memories.MAQM1.rf_grid.x_step: must be positive\n"),
    (("memories", "MAQM2", "rf_grid", "y_step"), -1.2,
     "memories.MAQM2.rf_grid.y_step: must be positive\n"),
]


@pytest.mark.parametrize("command", ["run", "compile"])
@pytest.mark.parametrize("where, value, message", QUDIT_BROKEN_FIELDS,
                         ids=[m.split(":")[0] + f"={v}" for _, v, m in QUDIT_BROKEN_FIELDS])
def test_parse_time_failures_exit_two(tmp_path, capsys, command, where, value, message):
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    _at(doc, where[:-1])[where[-1]] = value
    path = write_config(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


def test_constraints_section_is_an_unknown_field(tmp_path, capsys):
    # the schedule limits come from the memories; there is nothing to override
    doc = small_doc()
    doc["constraints"] = {"aod_switch_time": 9.0}
    path = write_config(tmp_path, doc)
    for command in ("run", "compile"):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: config: unknown field(s) 'constraints'\n"


@pytest.mark.parametrize("t1", [0.0015, 1.0015, 2.0005])
def test_bins_one_grid_step_apart_are_rejected(tmp_path, capsys, t1):
    # at tau = 1 ns, bins on a half step of the grid round onto one time, and the
    # JSONL with two reads at that time does not parse back
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    doc["protocol"].update(t1=t1, tau=0.001)
    path = write_config(tmp_path, doc)
    assert main(["compile", "--config", path, "--out", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("config error: protocol.tau: must be at least")

    doc["protocol"]["tau"] = protocol.MIN_TAU_US
    path = write_config(tmp_path, doc)
    out = tmp_path / "s.jsonl"
    assert main(["compile", "--config", path, "--out", str(out)]) == 1   # bin_gap errors
    text = out.read_text()
    reads = [json.loads(line)["t_start_us"] for line in text.splitlines()
             if '"read"' in line and '"x"' in line]
    assert len(set(reads)) == 4
    assert schedule_to_jsonl(schedule_from_jsonl(text)) == text


def big_grid_doc(side, dimension, n_resamples=6):
    """small_doc on side x side grids, with the first ``dimension`` cells in row-major order."""
    doc = copy.deepcopy(small_doc(n_resamples=n_resamples))
    cells = [[x, y] for y in range(side) for x in range(side)][:dimension]
    for memory in ("MAQM1", "MAQM2"):
        doc["memories"][memory].update(n_x=side, n_y=side)
    doc["protocol"].update(dimension=dimension, source_cells=cells, target_cells=cells,
                           write_phases=[0.0] * dimension)
    return doc


@pytest.fixture
def no_pipeline(monkeypatch):
    # a config that passes the parser must not start a run in these tests
    def refuse(cfg):
        raise AssertionError("the pipeline started")

    monkeypatch.setattr(cli, "run_experiment", refuse)


@pytest.mark.parametrize("dimension", [cli.MAX_DIMENSION + 1, 120, 10**19])
def test_dimension_is_bounded(tmp_path, capsys, no_pipeline, dimension):
    doc = big_grid_doc(11, 121)
    doc["protocol"]["dimension"] = dimension
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: protocol.dimension: must be at most 100\n")


@pytest.mark.parametrize("dimension, n_resamples", [(32, 97_657), (100, 10_001), (100, 10**5)])
def test_bootstrap_stack_is_bounded(tmp_path, capsys, no_pipeline, dimension, n_resamples):
    # the W bootstrap holds an (n_resamples, dimension**2) stack of floats
    doc = big_grid_doc(10, dimension, n_resamples)
    limit = 10**8 // dimension**2
    assert parse_experiment_config(big_grid_doc(10, dimension, limit)).n_resamples == limit
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"config error: estimation.n_resamples: must be at most {limit} at dimension "
        f"{dimension}, since the bootstrap holds n_resamples x dimension**2 floats\n")


@pytest.mark.parametrize("drop", [True, False])
def test_receiving_memory_needs_eta_eit(tmp_path, capsys, drop):
    doc = small_doc()
    if drop:
        del doc["memories"]["MAQM2"]["eta_eit"]
    else:
        doc["memories"]["MAQM2"]["eta_eit"] = None
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: memories.MAQM2.eta_eit: ")


@pytest.mark.parametrize("name, key", [("MAQM2", "memory"), ("MAQM1", "memory"),
                                       ("MAQM1", "eta_eit")])
def test_fields_no_model_reads_are_unknown(tmp_path, capsys, name, key):
    # the entry's key names the memory, and only the receiving memory stores by EIT
    doc = small_doc()
    doc["memories"][name][key] = name if key == "memory" else 0.2
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: memories.{name}: unknown field(s) '{key}'\n"


def test_compile_has_no_format_option(tmp_path, capsys):
    path = write_config(tmp_path, small_doc())
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--config", path, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("param, values", [("estimation.n_resamples", "3,3.0"),
                                            ("detection.heralds_per_setting", "500,5e2")])
def test_integer_sweep_values_must_be_integral(tmp_path, capsys, param, values):
    path = write_config(tmp_path, small_doc(dimension=4, heralds=500))
    assert main(["sweep", "--config", path, "--param", param, "--values", "3,2.7"]) == 2
    assert capsys.readouterr().err == f"config error: {param}: must be an integer\n"
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", path, "--param", param,
                 "--values", values, "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["value"] for r in rows] == [float(v) for v in values.split(",")]


def test_main_compile_valid_schedule(tmp_path):
    path = write_config(tmp_path, small_doc())
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["compile", "--config", path, "--out", str(out1)]) == 0
    assert main(["compile", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    first = json.loads(out1.read_text().splitlines()[0])
    assert first["channel"] == "write"


def test_main_compile_invalid_schedule_exits_one(tmp_path, capsys):
    doc = small_doc()
    doc["protocol"]["t1"] = 16.0    # off the source Larmor grid
    path = write_config(tmp_path, doc)
    out = tmp_path / "sched.jsonl"
    assert main(["compile", "--config", path, "--out", str(out)]) == 1
    assert "larmor_t1" in capsys.readouterr().err
    assert out.exists()             # events still emitted for inspection


def test_main_sweep_csv(tmp_path):
    path = write_config(tmp_path, small_doc(heralds=1500, n_resamples=4))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--param", "detection.eta_det",
                 "--values", "0.4,0.8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("param,value,")


def test_main_sweep_empty_values_header_only(tmp_path):
    path = write_config(tmp_path, small_doc())
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--param", "detection.eta_det",
                 "--values", "", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1


@pytest.mark.parametrize("values", ["1,,2", "a", "0.1,x"])
def test_main_sweep_values_must_be_numbers(tmp_path, capsys, values):
    path = write_config(tmp_path, small_doc())
    assert main(["sweep", "--config", path, "--param", "detection.eta_det",
                 "--values", values]) == 2
    assert capsys.readouterr().err == (f"config error: --values: {values!r} is not a "
                                       f"comma-separated list of numbers\n")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("seed, message", [
    ("x", "must be an integer"), (-1, "must be at least 0"), (1.5, "must be an integer"),
    (None, "must be an integer"), (True, "must be an integer"),
])
def test_seed_is_checked_by_run_and_sweep(tmp_path, capsys, command, seed, message):
    path = write_config(tmp_path, small_doc(seed=seed))
    extra = ["--param", "detection.eta_det", "--values", "0.5"] if command == "sweep" else []
    assert main([command, "--config", path, *extra]) == 2
    assert capsys.readouterr().err == f"config error: seed: {message}\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_override_exits_two(tmp_path, capsys, command):
    path = write_config(tmp_path, small_doc())
    extra = ["--param", "detection.eta_det", "--values", "0.5"] if command == "sweep" else []
    assert main([command, "--config", path, "--seed", "-1", *extra]) == 2
    assert capsys.readouterr().err == "config error: seed: must be at least 0\n"


@pytest.mark.parametrize("command", ["run", "compile", "sweep"])
@pytest.mark.parametrize("seed, message", [
    ("abc", "must be an integer"), (-1, "must be at least 0"), (True, "must be an integer"),
])
def test_a_bad_config_seed_is_named_under_a_seed_override(tmp_path, capsys, command, seed,
                                                          message):
    # --seed stands in for the document's seed, but a seed it gives is still checked
    path = write_config(tmp_path, small_doc(seed=seed))
    extra = ["--param", "detection.eta_det", "--values", "0.5"] if command == "sweep" else []
    assert main([command, "--config", path, "--seed", "5", *extra]) == 2
    assert capsys.readouterr().err == f"config error: seed: {message}\n"


@pytest.mark.parametrize("where, value", [
    (("protocol", "source_cells", 1), [3]),
    (("protocol", "source_cells", 1), [-1, 1]),
    (("protocol", "source_cells", 1), ["x", 1]),
    (("protocol", "source_cells", 1), "x"),
    (("memories", "MAQM1", "n_x"), 5.0),
    (("memories", "MAQM1", "n_x"), "5"),
    (("protocol",), [1, 2]),
    (("memories", "MAQM1"), [1, 2]),
    (("memories", "MAQM1", "eta_read"), [0.2] * 29),
])
def test_ratio_sweep_on_a_malformed_config_exits_two(tmp_path, capsys, where, value):
    doc = copy.deepcopy(small_doc())
    _at(doc, where[:-1])[where[-1]] = value
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path, "--param", "memories.MAQM1.eta_read_ratio",
                 "--values", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("name", ["qubit_default", "qudit_default"])
def test_ratio_sweep_runs_on_the_shipped_configs(tmp_path, name):
    # both shipped configs give eta_read as a per-cell list
    config = CONFIG_DIR / f"{name}.json"
    t1 = json.loads(config.read_text())["protocol"]["t1"]
    ratio, plain = tmp_path / "ratio.csv", tmp_path / "t1.csv"
    assert main(["sweep", "--config", str(config), "--param", "memories.MAQM1.eta_read_ratio",
                 "--values", "1,0.5", "--out", str(ratio)]) == 0
    assert main(["sweep", "--config", str(config), "--param", "protocol.t1",
                 "--values", repr(t1), "--out", str(plain)]) == 0
    header, *rows = ratio.read_text().splitlines()
    assert len(rows) == 2
    # a ratio of 1 leaves the config as it is: the row is a plain run at the config's own t1
    unit = dict(zip(header.split(","), rows[0].split(",")))
    same = dict(zip(header.split(","), plain.read_text().splitlines()[1].split(",")))
    assert (unit.pop("param"), unit.pop("value")) == ("memories.MAQM1.eta_read_ratio", "1")
    assert (same.pop("param"), same.pop("value")) == ("protocol.t1", f"{t1:g}")
    assert unit == same


def test_heralds_sweep_leaves_failed_rows_blank(tmp_path):
    # 1 to 8 heralds per setting draw no population count on the shipped qudit config
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIG_DIR / "qudit_default.json"),
                 "--param", "detection.heralds_per_setting", "--values", "1,2,3,5,8",
                 "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 5
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["schedule_valid"] == "true"
        for stage in ("maqm1", "maqm2"):
            assert cells[f"{stage}_w_fidelity"] == cells[f"{stage}_w_sigma"] == ""


DEAD_STAGES = pytest.mark.parametrize("memory, field, value, dead", [
    ("MAQM1", "eta_read", 0.0, ("maqm1_stage", "maqm2_stage")),
    ("MAQM2", "eta_eit", 0.0, ("maqm2_stage",)),
    (None, "t1", 2000.0, ("maqm1_stage", "maqm2_stage")),   # the envelope underflows
    # (t / tau_mem)**2 is past the float range; survival cuts off before squaring
    ("MAQM1", "tau_mem", 1e-160, ("maqm1_stage", "maqm2_stage")),
])


def dead_stage_doc(memory, field, value):
    """``qudit_default`` with one field set so that some stage has no amplitudes."""
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    (doc["memories"][memory] if memory else doc["protocol"])[field] = value
    return doc


@DEAD_STAGES
def test_qudit_stage_without_amplitudes_reports_null(tmp_path, memory, field, value, dead):
    path = write_config(tmp_path, dead_stage_doc(memory, field, value))
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for name in ("maqm1_stage", "maqm2_stage"):
        stage = report[name]
        if name in dead:
            assert stage == {
                "predicted_w_fidelity": None, "survival_probability": 0.0,
                "w_fidelity": None, "sigma": None, "n_resamples": 0,
                "warnings": ["every branch amplitude is zero; nothing to project on"],
            }
        else:
            assert stage["w_fidelity"] is not None and stage["sigma"] is not None
    assert main(["run", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    assert f"{dead[0]}.predicted_w_fidelity,\n" in out.read_text()


@DEAD_STAGES
def test_a_w_stage_without_amplitudes_draws_nothing(monkeypatch, memory, field, value, dead):
    # a live stage s still draws from blocks 2s and 2s + 1 of the stream plan
    cfg = parse_experiment_config(dead_stage_doc(memory, field, value))
    plan = cli._stream_plans([(cfg, len(cli.w_settings(cfg.protocol.dimension).labels))])[0]
    blocks = []

    def spy(real):
        def draw(*args):
            blocks.append(next(i for i, b in enumerate(plan) if b.shape == args[-1].shape
                               and np.array_equal(b, args[-1])))
            return real(*args)
        return draw

    for name in ("sample_counts", "poisson_resamples"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    run_experiment(cfg)
    live = [s for s, name in enumerate(("maqm1_stage", "maqm2_stage")) if name not in dead]
    assert blocks == [block for s in live for block in (2 * s, 2 * s + 1)]


def test_qudit_stage_without_population_counts_reports_null(tmp_path):
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    doc["detection"]["heralds_per_setting"] = 1
    path = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    stage = json.loads(out.read_text())["maqm1_stage"]
    assert stage["predicted_w_fidelity"] == 0.99542
    assert (stage["w_fidelity"], stage["sigma"], stage["n_resamples"]) == (None, None, 0)
    assert stage["warnings"] == ["population counts are all zero"]


def test_too_few_resamples_keep_the_point_value(tmp_path):
    # 20 heralds and 2 resamples: at seed 32 one stage-1 resample has no population count
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    doc["detection"]["heralds_per_setting"] = 20
    doc["estimation"]["n_resamples"] = 2
    path = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--seed", "32", "--out", str(out)]) == 0
    stage = json.loads(out.read_text())["maqm1_stage"]
    assert (stage["w_fidelity"], stage["sigma"], stage["n_resamples"]) == (0.25, None, 1)
    assert stage["warnings"] == ["only 1 of 2 resamples succeeded", NO_COHERENCE]


NO_COHERENCE = "coherence counts are all zero, so the resamples show no spread"


@pytest.mark.parametrize("config, seed, stage, populations", [
    ("qudit_nopop_config.json", 2, "maqm1_stage", [0, 1, 0, 0]),
    ("qudit_lowcount_config.json", 32, "maqm2_stage", [1, 0, 0, 0]),
])
def test_w_stage_without_coherence_counts_has_no_sigma(tmp_path, monkeypatch, config, seed,
                                                        stage, populations):
    # every resample has the value 1/d, so the spread reads 0 and shows nothing
    tables = []
    real = cli.sample_counts
    monkeypatch.setattr(cli, "sample_counts", lambda *args: tables.append(real(*args))
                        or tables[-1])
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(GOLDEN_DIR / config), "--seed", str(seed),
                 "--out", str(out)]) == 0
    table = tables[("maqm1_stage", "maqm2_stage").index(stage)]
    assert table.coincidences[:4].tolist() == populations and not table.coincidences[4:].any()
    block = json.loads(out.read_text())[stage]
    assert (block["w_fidelity"], block["sigma"]) == (0.25, None)
    assert block["warnings"][-1] == NO_COHERENCE


def test_qubit_stage_without_spread_keeps_the_point_value(tmp_path, monkeypatch):
    # every stage-1 resample fails: fit 1 of the run holds both base fits,
    # fit 2 the resamples, stage 1's in rows 0 to 5; the rest of the report
    # keeps its values
    path = write_config(tmp_path, small_doc())
    plain = run_experiment(load_experiment_config(path))
    spy = SetulbSpy(monkeypatch)
    spy.act = lambda row, *args: spy.fits == 2 and row < 6 and force_decrease(row, *args)
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert spy.fits == 2
    plain["maqm1_stage"].update(sigma=None, n_resamples=0,
                                warnings=["only 0 of 6 resamples succeeded"])
    assert out.read_text() == report_to_json(plain)
    assert "warnings" not in plain["maqm2_stage"]


@pytest.mark.parametrize("heralds, seed, empty", [(1, 3, ("maqm1_stage", "maqm2_stage")),
                                                   (2, 1, ("maqm2_stage",))])
def test_qubit_stage_without_counts_reports_no_fidelity(tmp_path, heralds, seed, empty):
    # a table with no coincidence count is a flat likelihood: no fit, no
    # fidelity, and no transmission fidelity for the run
    doc = json.loads((CONFIG_DIR / "qubit_default.json").read_text())
    doc["detection"]["heralds_per_setting"] = heralds
    path = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["run", "--config", path, "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for stage in ("maqm1_stage", "maqm2_stage"):
        block = report[stage]
        if stage in empty:
            assert (block["fidelity"], block["sigma"], block["n_resamples"]) == (None, None, 0)
            assert block["warnings"] == ["coincidence counts are all zero"]
        else:
            assert 0.0 <= block["fidelity"] <= 1.0 and block["sigma"] > 0.0
    assert report["transmission_fidelity"] is None
    assert main(["run", "--config", path, "--seed", str(seed), "--format", "csv",
                 "--out", str(out)]) == 0
    assert ["transmission_fidelity", ""] in list(csv.reader(io.StringIO(out.read_text())))


def test_main_sweep_unknown_param_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, small_doc())
    assert main(["sweep", "--config", path, "--param", "protocol.dimension",
                 "--values", "2"]) == 2
    assert "not a sweepable" in capsys.readouterr().err


SCIPY_FREE_SCRIPT = r"""
import json, sys
import maqmsim.cli

configs, out = sys.argv[1], sys.argv[2]
loaded = lambda: ["scipy.optimize" in sys.modules, "scipy.optimize._lbfgsb" in sys.modules,
                  "numpy.random" in sys.modules]
steps = [["import", 0, *loaded()]]
for name, argv in [
    ("compile", ["compile", "--config", f"{configs}/qudit_default.json"]),
    ("qudit run", ["run", "--config", f"{configs}/qudit_default.json"]),
    ("qudit sweep", ["sweep", "--config", f"{configs}/qudit_default.json",
                     "--param", "protocol.drift", "--values", "0,0.2"]),
    ("qubit run", ["run", "--config", f"{configs}/qubit_default.json"]),
]:
    code = maqmsim.cli.main(argv + ["--out", f"{out}/{len(steps)}.txt"])
    steps.append([name, code, *loaded()])
print(json.dumps(steps))
"""


def test_scipy_loads_only_on_the_first_fit(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parents[1]))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT, str(CONFIG_DIR),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    # [command, exit code, scipy.optimize loaded, its L-BFGS-B kernel loaded,
    #  numpy.random loaded]: a fit loads the kernel alone, not the package
    assert json.loads(done.stdout) == [
        ["import", 0, False, False, False],
        ["compile", 0, False, False, False],
        ["qudit run", 0, False, False, True],
        ["qudit sweep", 0, False, False, True],
        ["qubit run", 0, False, True, True],
    ]
    assert (tmp_path / "4.txt").read_bytes() == (GOLDEN_DIR / "qubit_report.json").read_bytes()


def test_the_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    # each command's output, in one sequence on the one parser, is what it
    # gives on a freshly built parser; a default follows a given value
    path = write_config(tmp_path, small_doc(4))
    values = ["--param", "protocol.drift", "--values", "0,0.3"]
    sequence = [["run", "--config", path, "--format", "csv"], ["run", "--config", path],
                ["run"], ["compile", "--config", path],
                ["sweep", "--config", path, "--format", "json", *values],
                ["sweep", "--config", path, *values]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as done:   # an argparse error
            code = done.code
        return code, *capsys.readouterr()

    cli.build_parser.cache_clear()
    shared = [call(argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
    assert "the following arguments are required: --config" in shared[2][2]
    assert shared[0][1].startswith("key,value\n") and json.loads(shared[1][1])["dimension"] == 4
    assert len(json.loads(shared[4][1])) == 2 and shared[5][1].startswith("param,value,")


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parents[1]))
    script = "import maqmsim.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


@pytest.fixture
def compiles(monkeypatch):
    """The protocols ``cli.compile_schedule`` is called with, from an empty memo."""
    calls = []

    def spy(protocol):
        calls.append(protocol)
        return compile_schedule(protocol)

    monkeypatch.setattr(cli, "_last_compiled", [None, None])
    monkeypatch.setattr(cli, "compile_schedule", spy)
    return calls


def test_a_drift_sweep_compiles_once(compiles):
    rows = run_sweep(small_doc(4, n_resamples=4), "protocol.drift",
                     [0.1 * i for i in range(8)])
    assert len(rows) == 8 and len(compiles) == 1


def test_a_t1_sweep_compiles_each_value(compiles):
    run_sweep(small_doc(4, n_resamples=4), "protocol.t1", [11.7, 15.6, 19.5])
    assert [p.t1 for p in compiles] == [11.7, 15.6, 19.5]


def spy_on(monkeypatch, name):
    """The argument tuples of each call of ``cli.<name>``, which still runs."""
    real, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return calls


def test_a_drift_sweep_hashes_its_streams_once(monkeypatch):
    hashes = spy_on(monkeypatch, "stream_states")
    rows = run_sweep(small_doc(4, n_resamples=4), "protocol.drift", [0.1 * i for i in range(8)])
    assert len(rows) == 8 and len(hashes) == 1
    assert len(hashes[0][0]) == 8 * 2 * (16 + 4)   # every point's table and resample rows


def test_a_drift_sweep_reads_each_memory_once(monkeypatch):
    specs = spy_on(monkeypatch, "MemorySpec")
    run_sweep(small_doc(4, n_resamples=4), "protocol.drift", [0.1 * i for i in range(8)])
    assert [args[0] for args in specs] == [memory.MemoryId.MAQM1, memory.MemoryId.MAQM2]


def test_a_ratio_sweep_reads_the_first_memory_at_each_point(monkeypatch):
    # the unswept parse reads both entries; each point's MAQM1 entry is a new object
    specs = spy_on(monkeypatch, "MemorySpec")
    run_sweep(small_doc(4, n_resamples=4), "memories.MAQM1.eta_read_ratio", [1.0, 0.5, 0.25])
    names = [args[0].value for args in specs]
    assert names == ["MAQM1", "MAQM2", "MAQM1", "MAQM1", "MAQM1"]


@pytest.mark.parametrize("bound", [None, 1])
def test_a_sweep_raises_its_first_error_in_point_order(capsys, monkeypatch, bound):
    # point 1's dark rate fails when it runs, point 2's when it is parsed;
    # parsing ahead must not let point 2's error win
    if bound is not None:
        monkeypatch.setattr(cli, "_PLAN_ROWS", bound)
    path = str(CONFIG_DIR / "qudit_default.json")
    args = ["sweep", "--config", path, "--param", "detection.dark_rate"]
    assert main(args + ["--values", "0,0.99,-1"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: detection\.dark_rate: 0\.99 plus the largest "
                        r"maqm1_stage coincidence probability \S+ exceeds 1\n", err), err
    monkeypatch.setattr(cli, "run_protocol", None)   # a run would raise TypeError
    assert main(args + ["--values=-1,0"]) == 2
    assert capsys.readouterr().err == "config error: detection.dark_rate: must be non-negative\n"


def test_a_bounded_sweep_hashes_in_groups_with_the_same_rows(monkeypatch):
    # 40 stream rows a point, at most 100 a pass: four passes of two points
    doc, values = small_doc(4, n_resamples=4), [0.1 * i for i in range(8)]
    whole = run_sweep(doc, "protocol.drift", values)
    hashes = spy_on(monkeypatch, "stream_states")
    monkeypatch.setattr(cli, "_PLAN_ROWS", 100)
    rows = run_sweep(doc, "protocol.drift", values)
    assert [len(args[0]) for args in hashes] == [80] * 4
    assert sweep_to_csv(rows) == sweep_to_csv(whole)
    assert report_to_json(rows) == report_to_json(whole)


@pytest.mark.parametrize("bound", [None, 90])
def test_a_bounded_sweep_of_resample_counts_is_a_run_per_point(monkeypatch, bound):
    # 36, 46 and 38 stream rows: at most 90 a pass hashes [2, 7] and then [3]
    if bound is not None:
        monkeypatch.setattr(cli, "_PLAN_ROWS", bound)
    hashes = spy_on(monkeypatch, "stream_states")
    doc, values = small_doc(4, seed=5), [2, 7, 3]
    rows = run_sweep(doc, "estimation.n_resamples", values)
    assert [len(args[0]) for args in hashes] == ([82, 38] if bound else [120])
    for i, (row, value) in enumerate(zip(rows, values)):
        cfg = parse_experiment_config(set_point(doc, "estimation.n_resamples", value),
                                      seed_override=derive_seed(5, i))
        report = run_experiment(cfg)
        assert row["seed"] == report["seed"]
        for stage in ("maqm1", "maqm2"):
            block = report[f"{stage}_stage"]
            assert (row[f"{stage}_w_fidelity"], row[f"{stage}_w_sigma"]) == \
                (block["w_fidelity"], block["sigma"]), (value, stage)


def test_compile_after_run_reuses_the_schedule(tmp_path, compiles):
    path = write_config(tmp_path, small_doc(4, n_resamples=4))
    out = tmp_path / "sched.jsonl"
    assert main(["run", "--config", path, "--out", str(tmp_path / "report.json")]) == 0
    assert main(["compile", "--config", path, "--out", str(out)]) == 0
    assert len(compiles) == 1
    cold = compile_schedule(load_experiment_config(path).protocol)
    assert out.read_text() == schedule_to_jsonl(cold)


def test_a_pattern_error_is_never_kept(tmp_path, capsys, compiles):
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    good = write_config(tmp_path, doc, "good.json")
    doc["protocol"]["source_cells"][0] = [0, 2]
    bad = write_config(tmp_path, doc, "bad.json")
    codes = [main(["compile", "--config", path, "--out", str(tmp_path / "out")])
             for path in (bad, bad, good)]
    assert codes == [2, 2, 0] and len(compiles) == 3
    assert capsys.readouterr().err.count("cell weights do not factor") == 2


@pytest.mark.parametrize("field, value", [
    ("source_cells", [[3, 2], [2, 2], [2, 3], [3, 3]]),
    ("target_cells", [[3, 2], [2, 2], [2, 3], [3, 3]]),
    ("retrieval_order", [1, 0, 3, 2]),
])
def test_each_structural_field_keys_the_schedule(field, value):
    # test_knobs moves only numbers, so the layout fields are moved here
    doc = small_doc(4)
    moved = copy.deepcopy(doc)
    moved["protocol"][field] = value
    texts = []
    for each in (doc, moved):
        cfg = parse_experiment_config(each)
        warm, cold = cli._compile(cfg), compile_schedule(cfg.protocol)
        assert warm.violations == cold.violations
        texts += [schedule_to_jsonl(warm), schedule_to_jsonl(cold)]
    assert texts[0] == texts[1] != texts[2] == texts[3]


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty load, stage and schedule memos, as a fresh process starts with."""
    for name in ("_last_loaded", "_last_stages", "_last_compiled"):
        monkeypatch.setattr(cli, name, [None, None])


def test_a_seed_scan_parses_once_and_runs_the_stages_once(tmp_path, capsys, monkeypatch,
                                                         cold_memos):
    path = write_config(tmp_path, small_doc(4, n_resamples=4))
    parses = spy_on(monkeypatch, "parse_experiment_config")
    stages = spy_on(monkeypatch, "run_protocol")
    out = tmp_path / "report.json"
    for seed in range(20):
        assert main(["run", "--config", path, "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == seed
    assert (len(parses), len(stages)) == (1, 2)
    # a kept parse still checks the override
    assert main(["run", "--config", path, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed: must be at least 0\n"
    assert main(["compile", "--config", path, "--seed", "3",
                 "--out", str(tmp_path / "schedule.jsonl")]) == 0
    assert len(parses) == 1
    # without --seed the document's own seed is read: a parse of its own
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 3 and len(parses) == 2
    with open(path, "a") as fh:   # one more byte, the same document
        fh.write(" ")
    assert main(["run", "--config", path, "--seed", "19", "--out", str(out)]) == 0
    assert (len(parses), len(stages)) == (3, 6)
    monkeypatch.setattr(cli, "_last_stages", [None, None])
    cold = run_experiment(load_experiment_config(path, seed_override=19))
    assert out.read_text() == report_to_json(cold)


def test_a_config_error_is_never_kept(tmp_path, capsys, monkeypatch, cold_memos):
    doc = small_doc(4, n_resamples=4)
    path = write_config(tmp_path, {**doc, "detection": {"eta_det": 1.5}})
    parses = spy_on(monkeypatch, "parse_experiment_config")
    codes = [main(["run", "--config", path, "--seed", "1", "--out", str(tmp_path / "out")])
             for _ in range(3)]
    write_config(tmp_path, doc)
    codes.append(main(["run", "--config", path, "--out", str(tmp_path / "out")]))
    write_config(tmp_path, {**doc, "detection": {"eta_det": 1.5}})
    codes.append(main(["run", "--config", path, "--out", str(tmp_path / "out")]))
    assert codes == [2, 2, 2, 0, 2] and len(parses) == 5
    assert capsys.readouterr().err == "config error: detection.eta_det: must be at most 1\n" * 4


def test_the_public_loader_parses_unchanged_bytes_once(tmp_path, monkeypatch, cold_memos):
    path = write_config(tmp_path, small_doc(4, n_resamples=4))
    parses = spy_on(monkeypatch, "parse_experiment_config")
    configs = [load_experiment_config(path, seed_override=seed) for seed in range(5)]
    assert len(parses) == 1 and [cfg.seed for cfg in configs] == list(range(5))
    raw = Path(path).read_bytes()
    cold = parse_experiment_config(json.loads(raw), seed_override=4,
                                   sha256=hashlib.sha256(raw).hexdigest())
    assert report_to_json(run_experiment(configs[-1])) == report_to_json(run_experiment(cold))
    with open(path, "a") as fh:   # one more byte, the same document
        fh.write(" ")
    assert load_experiment_config(path, seed_override=4).sha256 != cold.sha256
    assert len(parses) == 2
    bad = write_config(tmp_path, {**small_doc(4), "detection": {"eta_det": 1.5}}, "bad.json")
    for _ in range(3):
        with pytest.raises(ConfigError, match=r"^detection\.eta_det: must be at most 1$"):
            load_experiment_config(bad, seed_override=1)
    # the last good config is still the one kept
    assert load_experiment_config(path, seed_override=7).seed == 7 and len(parses) == 5
    assert load_experiment_config(path) is load_experiment_config(path) and len(parses) == 6


def test_a_seed_loop_reuses_the_stages_and_eta_det_keys_them(monkeypatch, cold_memos):
    cfg = parse_experiment_config(small_doc(4, n_resamples=4))
    stages = spy_on(monkeypatch, "run_protocol")
    for seed in range(3):
        run_experiment(dataclasses.replace(cfg, seed=seed))
    assert len(stages) == 2
    moved = dataclasses.replace(cfg, eta_det=0.5)
    warm = run_experiment(moved)
    assert len(stages) == 4
    monkeypatch.setattr(cli, "_last_stages", [None, None])
    assert report_to_json(warm) == report_to_json(run_experiment(moved))


def test_every_array_the_memos_share_is_read_only(tmp_path, cold_memos):
    path = write_config(tmp_path, small_doc(4, n_resamples=4))
    assert main(["run", "--config", path, "--out", str(tmp_path / "report.json")]) == 0
    outcomes, probabilities = cli._last_stages[1]
    specs = (cli._last_loaded[1].protocol.spec1, cli._last_loaded[1].protocol.spec2)
    arrays = [*(o.branch_amplitudes for o in outcomes), *probabilities,
              *(m for s in specs for m in (s.eta_write, s.eta_read, s.eta_eit) if m is not None)]
    assert len(arrays) == 9
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0


@pytest.mark.parametrize("name", ["qubit_default", "qubit_ideal", "qudit_default"])
def test_two_parses_of_a_config_compare_without_raising(name):
    # specs and outcomes hold arrays, so they compare by identity, and configs hash
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    first, second = parse_experiment_config(doc), parse_experiment_config(doc)
    assert first == first and first != second
    assert hash(first) == hash(first) and hash(first.protocol) == hash(first.protocol)
    outcome = protocol.run_protocol(first.protocol)
    assert outcome == outcome and outcome != protocol.run_protocol(first.protocol)


def test_python_m_maqmsim_runs_the_console_command():
    # the package's __main__, so no "found in sys.modules" RuntimeWarning
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parents[1]))
    done = subprocess.run([sys.executable, "-m", "maqmsim", "run", "--config",
                           str(CONFIG_DIR / "qudit_default.json")],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert done.stdout == (GOLDEN_DIR / "qudit_report.json").read_bytes()


# ------------------------------------------------------- single-field mutations

MUTANT_VALUES = (-1, 0, 1e308, -1e308, "x", True, None, [], {}, 0.5, 10**19)


def _leaf_paths(node, path=()):
    """Paths of the scalar leaves; a list contributes its first element only."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        if node:
            yield from _leaf_paths(node[0], path + (0,))
    else:
        yield path


def _object_paths(node, path=()):
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _object_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _object_paths(node[0], path + (0,))


def single_field_mutants(doc):
    """(label, doc) for each leaf set to each mutant value or deleted, and for
    an unknown key added to each object."""
    for path in _leaf_paths(doc):
        for value in MUTANT_VALUES + ("delete",):
            mutant = copy.deepcopy(doc)
            if value == "delete":
                del _at(mutant, path[:-1])[path[-1]]
            else:
                _at(mutant, path[:-1])[path[-1]] = value
            yield f"{path}={value!r}", mutant
    for path in _object_paths(doc):
        mutant = copy.deepcopy(doc)
        _at(mutant, path)["zz_unknown"] = 1
        yield f"{path}+zz_unknown", mutant


def test_single_field_mutations_never_raise(tmp_path, capsys):
    # every mutant ends in an exit code: 0 ran, 1 invalid schedule, 2 rejected;
    # an unknown key is always rejected
    out = str(tmp_path / "out")
    unknown_accepted = []
    for name, commands in (
        ("qubit_default.json", (["compile"],)),
        ("qudit_default.json", (["compile"], ["run"],
                                ["sweep", "--param", "protocol.drift", "--values", "0.3"])),
    ):
        doc = json.loads((CONFIG_DIR / name).read_text())
        for label, mutant in single_field_mutants(doc):
            path = write_config(tmp_path, mutant)
            for command in commands:
                code = main([command[0], "--config", path, "--out", out, *command[1:]])
                assert code in (0, 1, 2), f"{name} {label} {command[0]}: exit {code}"
                if label.endswith("zz_unknown") and code != 2:
                    unknown_accepted.append(f"{name} {label} {command[0]}")
            capsys.readouterr()
    assert unknown_accepted == []


def _required_fields(doc):
    """Dotted paths of the fields without a default: every leaf outside detection and
    estimation, a list counting as one field."""
    paths = {path[:next((i for i, k in enumerate(path) if isinstance(k, int)), len(path))]
             for path in _leaf_paths(doc)}
    return sorted(".".join(p) for p in paths if p[0] not in ("detection", "estimation"))


SHIPPED_REQUIRED_FIELDS = [
    (name, path) for name in ("qubit_default.json", "qudit_default.json")
    for path in _required_fields(json.loads((CONFIG_DIR / name).read_text()))]


@pytest.mark.parametrize("name, path", SHIPPED_REQUIRED_FIELDS)
def test_deleting_a_required_field_names_its_path(tmp_path, capsys, name, path):
    doc = json.loads((CONFIG_DIR / name).read_text())
    *parents, key = path.split(".")
    del _at(doc, parents)[key]
    assert main(["compile", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: required field is missing\n"


@pytest.mark.parametrize("name", ["qubit_default.json", "qudit_default.json"])
@pytest.mark.parametrize("path", ["memories.MAQM1.eta_write", "memories.MAQM1.eta_read",
                                  "memories.MAQM2.eta_write", "memories.MAQM2.eta_read",
                                  "memories.MAQM2.eta_eit"])
@pytest.mark.parametrize("value", [None, {}, "x"], ids=["null", "object", "string"])
def test_efficiency_map_of_the_wrong_type_names_its_path(tmp_path, capsys, name, path, value):
    doc = json.loads((CONFIG_DIR / name).read_text())
    *parents, key = path.split(".")
    _at(doc, parents)[key] = value
    assert main(["compile", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1


# ------------------------------------------------ sweep point copies, number lists

@pytest.mark.parametrize("name", ["qubit_default.json", "qudit_default.json"])
def test_parsing_leaves_the_document_as_it_was(name):
    # sweep points share every object off their swept path, so a parse must
    # never write into the document it reads
    doc = json.loads((CONFIG_DIR / name).read_text())
    before = copy.deepcopy(doc)
    parse_experiment_config(doc)
    assert doc == before


# two values of each sweepable field of small_doc(4), both of which run
SWEEP_POINTS = {
    "protocol.t1": [11.7, 23.4], "protocol.tau": [3.9, 7.8], "protocol.t2": [7.8, 15.6],
    "protocol.drift": [0.0, 0.4], "detection.eta_det": [1.0, 0.5],
    "detection.dark_rate": [0.0, 1e-3], "detection.heralds_per_setting": [2000, 500],
    "estimation.n_resamples": [6, 9], "memories.MAQM1.eta_read": [0.2, 0.5],
    "memories.MAQM1.eta_write": [0.01, 0.02], "memories.MAQM1.tau_mem": [65.0, 30.0],
    "memories.MAQM1.t_larmor": [3.9, 7.8], "memories.MAQM2.eta_eit": [0.2, 0.6],
    "memories.MAQM2.tau_mem": [27.8, 50.0], "memories.MAQM2.t_larmor": [1.3, 2.6],
    "memories.MAQM1.eta_read_ratio": [1.0, 0.5],
}


def set_point(doc, path, value):
    """A deep copy of ``doc`` with a sweep point's value set, by hand."""
    doc = copy.deepcopy(doc)
    if path == "memories.MAQM1.eta_read_ratio":
        cfg = parse_experiment_config(doc)
        eta_read = cfg.protocol.spec1.eta_read.copy()
        for cell in cfg.protocol.source_cells[1:]:
            eta_read[cell.y, cell.x] *= value
        path, value = "memories.MAQM1.eta_read", eta_read.ravel().tolist()
    *parents, key = path.split(".")
    _at(doc, parents)[key] = value
    return doc


@pytest.mark.parametrize("path", sweepable_paths())
def test_a_sweep_point_is_a_run_of_its_own_document(path):
    # each point copies the objects on its path; row i must be the run of a
    # deep copy with the value set, at the point's seed, and the caller's
    # document must come back as it was
    assert set(SWEEP_POINTS) == set(sweepable_paths())
    doc = small_doc(dimension=4, seed=11)
    before = copy.deepcopy(doc)
    rows = run_sweep(doc, path, SWEEP_POINTS[path])
    assert doc == before
    for i, (row, value) in enumerate(zip(rows, SWEEP_POINTS[path])):
        cfg = parse_experiment_config(set_point(before, path, value),
                                      seed_override=derive_seed(11, i))
        report = run_experiment(cfg)
        want = {"seed": report["seed"], "schedule_valid": report["schedule"]["valid"],
                "herald_probability": report["herald_probability"]}
        for stage in ("maqm1", "maqm2"):
            block = report[f"{stage}_stage"]
            want.update({f"{stage}_w_fidelity": block["w_fidelity"],
                         f"{stage}_w_sigma": block["sigma"]})
        assert {key: row[key] for key in want} == want, (path, i)


def test_a_sweep_creates_missing_objects_on_its_path():
    doc = small_doc(dimension=4)
    del doc["detection"]
    rows = run_sweep(doc, "detection.dark_rate", [1e-3])
    assert "detection" not in doc
    want = run_experiment(parse_experiment_config(
        {**doc, "detection": {"dark_rate": 1e-3}}, seed_override=derive_seed(3, 0)))
    assert rows[0]["maqm2_w_fidelity"] == want["maqm2_stage"]["w_fidelity"]


def test_a_sweep_does_not_descend_into_a_non_object():
    doc = small_doc(dimension=4)
    doc["detection"] = [1]
    with pytest.raises(ConfigError, match=r"^detection\.dark_rate: cannot descend"):
        run_sweep(doc, "detection.dark_rate", [1e-3])
    assert doc["detection"] == [1]


TOO_BIG = 10**400    # a JSON integer past the float range


@pytest.mark.parametrize("path, index", [
    ("protocol.t1", None), ("detection.dark_rate", None),
    ("memories.MAQM1.rf_grid.x_origin", None), ("memories.MAQM1.eta_write", 29),
    ("protocol.drift", 2),
], ids=["t1", "dark_rate", "x_origin", "eta_write-entry", "drift-entry"])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_an_integer_past_the_float_range_exits_two(tmp_path, capsys, path, index, sign):
    doc = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
    *parents, key = path.split(".")
    value, where = sign * TOO_BIG, path
    if index is not None:    # one entry of a list of 30 efficiencies or 4 drifts
        value, where = [0.0] * (30 if "eta" in key else 4), f"{path}[{index}]"
        value[index] = sign * TOO_BIG
    _at(doc, parents)[key] = value
    config = write_config(tmp_path, doc)
    assert str(TOO_BIG) in Path(config).read_text()    # written as a 401-digit literal
    for command in ("run", "compile"):
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {where}: must be a finite number\n"


@pytest.mark.parametrize("bad, message", [
    (True, "must be a number"),
    ("0.01", "must be a number"),
    (math.nan, "must be a finite number"),
    (-0.01, "must be non-negative"),
    (1.5, "must be at most 1"),
    (TOO_BIG, "must be a finite number"),
], ids=["bool", "string", "nan", "negative", "over-maximum", "oversized-int"])
def test_a_number_list_error_names_its_first_bad_entry(bad, message):
    # a later bad entry of every other kind must not be the one named
    doc = copy.deepcopy(small_doc())
    values = [0.01] * 30
    values[7] = bad
    values[20:26] = [True, "0.01", math.nan, -0.01, 1.5, TOO_BIG]
    doc["memories"]["MAQM1"]["eta_write"] = values
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(doc)
    assert str(exc.value) == f"memories.MAQM1.eta_write[7]: {message}"


@pytest.mark.parametrize("bad, message", [
    (math.nan, "must be a finite number"),
    (-math.inf, "must be a finite number"),
    (-5e-324, "must be non-negative"),
    (1.0000000000000002, "must be at most 1"),
    (2, "must be at most 1"),
    (TOO_BIG, "must be a finite number"),
], ids=["nan", "-inf", "negative", "over-maximum", "int-over-maximum", "oversized-int"])
def test_one_bad_entry_in_a_list_of_plain_numbers_is_named(bad, message):
    # every other entry is a plain in-range float, so only the array check sees it
    doc = copy.deepcopy(small_doc())
    doc["memories"]["MAQM1"]["eta_read"] = [0.5] * 13 + [bad] + [0.5] * 16
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(doc)
    assert str(exc.value) == f"memories.MAQM1.eta_read[13]: {message}"


@pytest.mark.parametrize("key", ["write_phases", "drift"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -TOO_BIG])
def test_an_unbounded_number_list_names_its_non_finite_entry(key, bad):
    doc = copy.deepcopy(small_doc())
    doc["protocol"][key] = [0.25, bad]
    with pytest.raises(ConfigError) as exc:
        parse_experiment_config(doc)
    assert str(exc.value) == f"protocol.{key}[1]: must be a finite number"


def test_a_number_list_reads_every_entry_as_its_float():
    doc = copy.deepcopy(small_doc(dimension=4))
    values = [0, 1, 2**70 + 1, 0.5] * 7 + [np.float64(0.25), 1]
    doc["memories"]["MAQM1"]["eta_write"] = [v / 2**71 for v in values]
    doc["protocol"]["write_phases"] = [1, 2**70 + 1, -3, np.float64(0.1)]
    cfg = parse_experiment_config(doc)
    want = np.array([float(v / 2**71) for v in values]).reshape(6, 5)
    assert cfg.protocol.spec1.eta_write.tobytes() == want.tobytes()
    assert cfg.protocol.write_phases == (1.0, float(2**70 + 1), -3.0, 0.1)
    assert all(type(v) is float for v in cfg.protocol.write_phases)
