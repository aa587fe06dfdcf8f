"""Every golden output under tests/golden/, made by the one command that
``tests/golden/manifest.json`` lists for it.

Each manifest entry gives a ``maqmsim`` argv (paths relative to the repository
root), the golden file it writes, and why that case is pinned.  The tests run
every entry in process, each ``run`` entry also right after a run of its
config at another seed, hold the golden directory to the manifest, and rerun
the whole manifest in fresh interpreters under two hash seeds and under
``python -O``.

As a script, from the repository root:

    PYTHONPATH=src python tests/test_goldens.py           # check every entry
    PYTHONPATH=src python tests/test_goldens.py --write   # regenerate them

The check runs the manifest forwards and then backwards in one process, so
no output may depend on what the command before it left behind (the CLI
keeps its last config, both stages of its last run and its last compiled
schedule).  It exits 1 at the first output that differs from its golden.
``--write`` rewrites every output from its argv and prints what changed,
one line per JSON leaf or CSV cell: ``file: key old -> new``, where a
missing leaf reads ``(absent)``.  A change that moves golden bytes on
purpose goes through it and quotes those lines.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from maqmsim import cli
from maqmsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())


def produce(entry: dict, out: Path) -> bytes:
    """Run one entry's command, from the repository root, into ``out``."""
    code = main(entry["argv"] + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"maqmsim {' '.join(entry['argv'])} exited {code}")
    return out.read_bytes()


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["output"] for e in MANIFEST])
def test_golden_bytes(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    produced = produce(entry, tmp_path / entry["output"])
    assert produced == (GOLDEN_DIR / entry["output"]).read_bytes()


def with_seed(argv: list, seed: int) -> list:
    """``argv`` with its ``--seed`` set to ``seed``."""
    if "--seed" not in argv:
        return [*argv, "--seed", str(seed)]
    i = argv.index("--seed") + 1
    return [*argv[:i], str(seed), *argv[i + 1:]]


@pytest.mark.parametrize("entry", [e for e in MANIFEST if e["argv"][0] == "run"],
                         ids=lambda e: e["output"])
def test_golden_bytes_on_a_warm_memo(entry, tmp_path, monkeypatch):
    # a run at another seed leaves its parse and both stages for the golden's
    # command to reuse; a seedless command keys a parse of its own, so it
    # reuses them with --seed at its config's seed, which gives the same bytes
    monkeypatch.chdir(ROOT)
    argv = entry["argv"]
    seed = (int(argv[argv.index("--seed") + 1]) if "--seed" in argv
            else json.loads(Path(argv[2]).read_text())["seed"])
    assert main(with_seed(argv, seed + 1) + ["--out", str(tmp_path / "warm_up")]) == 0
    monkeypatch.setattr(cli, "run_protocol", None)   # a cold run would raise TypeError
    produced = produce({"argv": with_seed(argv, seed)}, tmp_path / entry["output"])
    assert produced == (GOLDEN_DIR / entry["output"]).read_bytes()


def test_manifest_covers_every_golden():
    outputs = [e["output"] for e in MANIFEST]
    inputs = {Path(arg).name for e in MANIFEST for arg in e["argv"]
              if Path(arg).parent == Path("tests/golden")}
    assert len(outputs) == len(set(outputs))
    assert all((GOLDEN_DIR / name).is_file() for name in outputs)
    files = {p.name for p in GOLDEN_DIR.iterdir()} - {"manifest.json"}
    assert files == set(outputs) | inputs


@pytest.mark.parametrize("flags, hash_seed", [
    pytest.param([], "1", id="PYTHONHASHSEED=1"),
    pytest.param([], "2", id="PYTHONHASHSEED=2"),
    pytest.param(["-O"], None, id="-O"),
])
def test_goldens_hold_in_a_fresh_interpreter(flags, hash_seed):
    # str hashing is salted per interpreter, and python -O strips assert
    # statements: no output byte may depend on either
    env = dict(os.environ, PYTHONPATH="src")
    if hash_seed:
        env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run([sys.executable, *flags, "tests/test_goldens.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def leaves(name: str, data: bytes) -> dict:
    """The file's leaves by key, each as JSON text: a JSON leaf by its dotted
    path, a JSON Lines leaf under ``line N``, and a CSV cell, as a string,
    under ``row N.column``."""
    text = data.decode()
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return {f"row {i}.{column}": json.dumps(cell) for i, row in enumerate(rows, 1)
                for column, cell in zip(header, row)}
    if name.endswith(".jsonl"):
        doc = {f"line {i}": json.loads(line) for i, line in enumerate(text.splitlines(), 1)}
    else:
        doc = json.loads(text) if text else {}
    out = {}

    def walk(node, key):
        if isinstance(node, (dict, list)) and node:
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for k, value in items:
                walk(value, f"{key}[{k}]" if isinstance(node, list) else
                     f"{key}.{k}" if key else k)
        else:
            out[key] = json.dumps(node)

    walk(doc, "")
    return out


def leaf_diff(name: str, old: bytes, new: bytes) -> list[str]:
    """``file: key old -> new`` for each leaf that differs, in the new file's order."""
    a, b = leaves(name, old), leaves(name, new)
    return [f"{name}: {key} {a.get(key, '(absent)')} -> {b.get(key, '(absent)')}"
            for key in dict.fromkeys([*b, *a]) if a.get(key) != b.get(key)]


def test_leaf_diff_names_each_changed_leaf():
    old = b'{"stage": {"sigma": 0.0, "warnings": []}, "seed": 2}'
    new = b'{"stage": {"sigma": null, "warnings": ["w"]}, "seed": 2}'
    assert leaf_diff("r.json", old, new) == [
        "r.json: stage.sigma 0.0 -> null", 'r.json: stage.warnings[0] (absent) -> "w"',
        "r.json: stage.warnings [] -> (absent)"]
    assert leaf_diff("s.csv", b"x,sigma\r\n0,0.1\r\n0.3,0.2\r\n",
                     b"x,sigma\r\n0,0.1\r\n0.3,\r\n") == ['s.csv: row 2.sigma "0.2" -> ""']
    assert leaf_diff("e.jsonl", b'{"t": 1}\n{"t": 2}\n', b'{"t": 1}\n{"t": 3}\n') == [
        "e.jsonl: line 2.t 2 -> 3"]


def sync(write: bool) -> int:
    """Run every entry; rewrite each golden that differs, or stop at the first.

    A check then runs the entries again in reverse order, in the same process.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for entry in MANIFEST if write else MANIFEST + MANIFEST[::-1]:
            golden = GOLDEN_DIR / entry["output"]
            produced = produce(entry, Path(tmp) / golden.name)
            if golden.is_file() and golden.read_bytes() == produced:
                continue
            if not write:
                print(f"{golden.name}: output differs from the golden", file=sys.stderr)
                return 1
            old = golden.read_bytes() if golden.is_file() else b""
            golden.write_bytes(produced)
            print("\n".join(leaf_diff(golden.name, old, produced))
                  or f"{golden.name}: bytes differ, no leaf changed")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or regenerate the golden outputs.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite every golden from its command and name the changed ones")
    args = parser.parse_args()
    os.chdir(ROOT)
    sys.exit(sync(args.write))
