"""A seeded corpus of command lines, pinned byte for byte.

`corpus_argv()` draws a few hundred command lines over every subcommand,
format and sweep axis, with the configs in `CONFIGS`: both topologies,
fixed fields off the reference point, a node too slow to price
(1e-305 TOPS/W), a config that is refused, sweeps heavy with failing
values or past one block, paper tables, `--out` files and the forms
only argparse reads (`--format=csv`, `--form csv`). The fixed cases in
`FIXED` follow the drawn ones: a `costs` block and a refused one,
config files that cannot be read, and a timeline whose ask is near the
top of float range. `corpus.json` holds each one's exit code and
the sha256 of its stdout (then of its `--out` file) and of its stderr,
run through `cli.main` in a directory holding the configs and `FILES`
under the names given.

After an intended output change, record the corpus again and name the
change in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py --record

It prints each case whose exit code or digests moved, with its index and
argv and whether the exit, stdout or stderr moved, and nothing if none
did.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from qaplan.cli import main
from qaplan.config import ENV_CONFIG_PATH

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
SEED = 2026
COUNT = 400

_OFF_REFERENCE = {"name": "offref", "bandwidth_mhz": 100, "modulation_bits": 4,
                  "coding_rate": 0.5, "antennas": 8, "duty_time": 0.3, "duty_freq": 1.0}
_TINY = {"node": "tiny", "efficiency_tops_per_w": 1e-305}
CONFIGS = {
    "cran.json": {"topology": {"kind": "cran", "n_bs": 3}, "cmos": ["65nm", "14nm", "1.5nm"]},
    "cranmax.json": {"topology": {"kind": "cran", "n_bs": 10000, "fronthaul_gbps": 1e150},
                     "cmos": ["1.5nm"]},
    "tiny.json": {"cmos": ["14nm", _TINY]},
    "tinycran.json": {"topology": {"kind": "cran", "n_bs": 2}, "cmos": [_TINY, "65nm"]},
    "offref.json": {"scenarios": [_OFF_REFERENCE], "topology": {"kind": "cran", "n_bs": 2},
                    "cmos": ["65nm", "1.5nm"], "horizons_years": [0, 1, 2.5]},
    "offrefbs.json": {"scenarios": [_OFF_REFERENCE,
                                    {"name": "wide", "bandwidth_mhz": 1000, "antennas": 128},
                                    {"name": "narrow", "bandwidth_mhz": 1.4, "antennas": 1,
                                     "modulation_bits": 2, "duty_freq": 0.5}],
                      "samples": 50, "qa": {"profile": "projected"}},
    "refused.json": {"topology": {"kind": "cran", "fronthaul_gbps": 0}},
}
# The files the fixed cases read, as bytes; `missing.json` is not written.
FILES = {
    "costs.json": json.dumps({"costs": {"electricity_price_per_kwh": 0.3, "co2_lb_per_kwh": 1.1,
                                        "hours_per_year": 8000}}).encode("utf-8"),
    "costsrefused.json": json.dumps({"costs": {"co2_lb_per_kwh": -1}}).encode("utf-8"),
    "notutf8.json": b"\xff",
    "badjson.json": b'{"samples": ',
}
FIXED = [
    ["economics", "--format", "csv", "--config", "costs.json", "--sweep", "samples=1,20"],
    ["economics", "--format", "csv", "--config", "costsrefused.json"],
    *[["targets", "--format", "csv", "--config", name]
      for name in ("notutf8.json", "badjson.json", "missing.json")],
    # An ask of 6.48e300 qubits: `YearTable.years` tables over 2,000 years.
    ["timeline", "--format", "csv", "--sweep", "bandwidth_mhz=5e298", "--sweep", "antennas=1"],
]
OUT = "out.txt"
COMMANDS = ("targets", "power", "qubits", "economics", "timeline")
FORMATS = ("csv", "json", "table")
# Valid and failing values of each sweep axis. "1e290" and "1e300" are
# valid but overflow the model.
VALUES = {
    "bandwidth_mhz": (["1", "5", "10", "20", "31", "100", "400", "1000", "0.5", "1e6", "1e100",
                       "1e290", "1e300"], ["-5", "0", "nan", "inf", "-0.0"]),
    "antennas": (["1", "2", "7", "8", "16", "64", "128", "512", "1000"], ["0", "-1"]),
    "samples": (["1", "20", "50", "1000", "1" + "0" * 400], ["0", "-3"]),
    "modulation_bits": (["1", "2", "4", "6", "8"], ["3", "0"]),
    "coding_rate": (["0.1", "0.5", "0.9", "1"], ["1.5", "0", "-0.0", "nan"]),
    "duty_time": (["0.3", "0.5", "1"], ["0", "1.5", "-0.0"]),
    "duty_freq": (["0.3", "0.5", "1"], ["0", "1.5", "nan"]),
}


def corpus_argv(seed: int = SEED, count: int = COUNT):
    """`count` command lines drawn from `seed`."""
    rng = random.Random(seed)
    configs = [None, None, *sorted(CONFIGS)]
    drawn = []
    for _ in range(count):
        fmt = rng.choice(FORMATS)
        command = rng.choice(COMMANDS)
        # Mostly the plain form; now and then one that only argparse reads.
        argv = [command, *rng.choice([["--format", fmt]] * 8 + [[f"--format={fmt}"],
                                                                ["--form", fmt]])]
        config = rng.choice(configs)
        if config:
            argv += ["--config", config]
        if rng.random() < 0.1:
            argv += ["--out", OUT]
        if rng.random() < 0.04:
            drawn.append(argv + ["--paper-table", rng.choice(["energy", "targets"])])
            continue
        axes = rng.sample(sorted(VALUES), rng.choice([0, 1, 1, 2, 2, 2, 3]))
        for axis in axes:
            valid, failing = VALUES[axis]
            values = rng.sample(valid, rng.randint(1, min(4, len(valid))))
            if axis == "antennas" and rng.random() < 0.15:  # more than one block
                values = [str(n) for n in range(1, rng.randint(130, 260))]
            if rng.random() < 0.03:  # no valid point
                values = []
            if not values or rng.random() < 0.3:  # skipped points
                for value in rng.sample(failing, rng.randint(1, 2)):
                    values.insert(rng.randint(0, len(values)), value)
            argv += ["--sweep", f"{axis}={','.join(values)}"]
        drawn.append(argv)
    return drawn


def run(argv):
    """`(exit code, stdout sha256, stderr sha256)` of one call, run in the
    current directory, which holds the configs; an `--out` file it writes
    counts as stdout after it, and is removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8", newline="") as fh:
            out.write(fh.read())
        os.remove(OUT)
    return [code, *(hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))]


def write_configs(directory):
    for name, doc in CONFIGS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for name, data in FILES.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_the_corpus_is_the_seeded_draw():
    argv = [case["argv"] for case in _load()]
    assert argv[:COUNT] == corpus_argv()
    assert argv[COUNT:] == FIXED


def test_every_call_of_the_corpus_gives_its_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    mismatched = [case["argv"] for case in _load()
                  if run(case["argv"]) != [case["exit"], case["stdout_sha256"],
                                           case["stderr_sha256"]]]
    assert mismatched == []


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_the_corpus_reaches_every_exit_code(code):
    assert any(case["exit"] == code for case in _load())


def test_recording_again_names_each_case_whose_bytes_moved():
    case = {"argv": ["targets"], "exit": 0, "stdout_sha256": "a", "stderr_sha256": "b"}
    assert moved([case], [case]) == []
    assert moved([case], [{**case, "exit": 1, "stderr_sha256": "c"}]) == [
        '0 ["targets"]: exit, stderr']
    assert moved([], [case]) == ['0 ["targets"]: new']


def moved(old, new):
    """A line for each case of `new` whose exit code or digests differ from
    the case at its index in `old`: the index, the argv and what moved. A
    case whose argv is not the one at its index in `old` is new."""
    lines = []
    for index, case in enumerate(new):
        before = old[index] if index < len(old) else None
        if before is None or before["argv"] != case["argv"]:
            what = "new"
        else:
            what = ", ".join(key.split("_")[0] for key in ("exit", "stdout_sha256", "stderr_sha256")
                             if before[key] != case[key])
        if what:
            lines.append(f"{index} {json.dumps(case['argv'])}: {what}")
    return lines


def record():
    """Record the corpus again, and print each case whose bytes moved."""
    os.environ.pop(ENV_CONFIG_PATH, None)
    old = _load() if os.path.exists(CORPUS) else []
    cases = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_configs(directory)
        os.chdir(directory)
        try:
            for argv in corpus_argv() + FIXED:
                code, out, err = run(argv)
                cases.append({"argv": argv, "exit": code, "stdout_sha256": out,
                              "stderr_sha256": err})
        finally:
            os.chdir(here)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    for line in moved(old, cases):
        print(line)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --record")
    record()
