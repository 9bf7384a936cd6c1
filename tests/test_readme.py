"""The README's config example, sample output and dependency promise
match the code."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

from qaplan.cli import main
from qaplan.config import ENV_CONFIG_PATH, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


@pytest.fixture(scope="module")
def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_config_example_parses(readme):
    section = readme.split("## Config file", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = parse_config(json.loads(block))
    assert cfg.costs.electricity_price_per_kwh == 0.143
    assert [p.node for p in cfg.cmos_profiles] == ["14nm", "7nm"]


def test_sample_output_is_live(readme, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    prompt = "$ qaplan qubits --sweep samples=20,50\n"
    sample = readme.split(prompt, 1)[1].split("```", 1)[0]
    assert main(["qubits", "--sweep", "samples=20,50"]) == 0
    assert capsys.readouterr().out == sample


def test_package_imports_the_standard_library_only():
    # The README promises no runtime dependencies.
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "qaplan", "*.py")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:  # not an import, or one relative to qaplan
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top == "qaplan" or top in sys.stdlib_module_names, (path, module)


def test_the_cli_loads_neither_dataclasses_nor_the_paper_tables():
    # One call imports what it runs: records are named tuples, the paper
    # tables load only for --paper-table, and csv only for csv.
    src = os.path.join(ROOT, "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import qaplan.cli; "
            "print(sorted({'csv', 'dataclasses', 'inspect', 'qaplan.tables'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"


def test_the_paper_tables_load_without_the_cli():
    # They read the model's evaluation, not the CLI's.
    src = os.path.join(ROOT, "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import qaplan.tables; "
            "print('qaplan.cli' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"
