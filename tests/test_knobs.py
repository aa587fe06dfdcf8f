"""Every numeric field of a shipped config moves the output of `run` or `compile`.

Each field is moved on its own, inside its bounds, and both outputs are
compared with those of the unchanged config.  A field that moves neither is
a knob with no effect, and its case fails by the field's path.  Each moved
config is also compiled through ``cli._compile`` right after the unchanged
one, so a field compilation reads but the memo's key leaves out fails by name.
"""

import copy
import functools
import json
from pathlib import Path

import pytest

from maqmsim import cli
from maqmsim.schedule import compile_schedule, schedule_to_jsonl

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "maqmsim" / "configs"
CONFIGS = ("qubit_default", "qubit_ideal", "qudit_default")
DOCS = {name: json.loads((CONFIG_DIR / f"{name}.json").read_text()) for name in CONFIGS}

# list lengths, cell layouts and the bin order: structure, not knobs
STRUCTURAL = {"n_x", "n_y", "dimension", "source_cells", "target_cells", "retrieval_order"}
# a memory time of 1e12 us keeps every survival at exactly 1 under a 10% change
PROBES = {("qubit_ideal", f"memories.{memory}.tau_mem"): 10.0 for memory in ("MAQM1", "MAQM2")}
# the knobs that move nothing today, until the config drops them
DEAD = {
    **{(name, f"memories.MAQM2.{key}"): "run_protocol reads only MAQM1's write and read maps"
       for name in CONFIGS for key in ("eta_write", "eta_read")},
    **{("qudit_default", f"estimation.{key}"): "no qudit run fits an MLE"
       for key in ("tol", "max_iter")},
}


def numeric_fields(node, path=""):
    """The dotted path of every number and number list in a config document."""
    for key, value in node.items():
        at = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from numeric_fields(value, at)
        elif key not in STRUCTURAL:
            yield at


def probe(path: str, value):
    """A value inside the field's bounds: integers x2, scalars x0.9 (0.01 from 0),
    every entry of a list x0.9 + 0.001, and max_iter 1."""
    if path.endswith(".max_iter"):
        return 1
    if isinstance(value, list):
        return [v * 0.9 + 0.001 for v in value]
    if isinstance(value, int):
        return value * 2
    return value * 0.9 if value else 0.01


def compiled(doc) -> tuple:
    return output_of(compile_schedule(cli.parse_experiment_config(doc).protocol))


def output_of(schedule) -> tuple:
    return schedule_to_jsonl(schedule), schedule.violations


def ran(doc) -> str:
    # a document parsed with no file behind it has an empty config_sha256
    return cli.report_to_json(cli.run_experiment(cli.parse_experiment_config(doc)))


@functools.cache
def unchanged(name: str, output):
    return output(DOCS[name])


CASES = [pytest.param(name, path, id=f"{name}:{path}",
                      marks=[pytest.mark.xfail(strict=True, reason=DEAD[name, path])]
                      if (name, path) in DEAD else [])
         for name in CONFIGS for path in numeric_fields(DOCS[name])]


@pytest.mark.parametrize("name, path", CASES)
def test_each_numeric_field_moves_run_or_compile(name, path):
    doc = copy.deepcopy(DOCS[name])
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[key] = PROBES.get((name, path), probe(path, node[key]))
    # warm with the unchanged config, the memo keeps a schedule only on equal inputs
    cli._compile(cli.parse_experiment_config(DOCS[name]))
    assert output_of(cli._compile(cli.parse_experiment_config(doc))) == compiled(doc), \
        f"the schedule memo misses {path} on {name}"
    # a run is compared only when the schedule is the same
    assert any(output(doc) != unchanged(name, output) for output in (compiled, ran)), \
        f"{path} moves neither compile nor run output on {name}"
