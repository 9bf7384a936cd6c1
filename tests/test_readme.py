"""The README's config example, sample output, library example,
dependency promise and package layout match the code."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

import qaplan
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


def test_the_checked_records_build_without_a_warning():
    # `record.checked` patches `typing.NamedTuple` classes, which no Python
    # version may warn about: any warning fails the import.
    src = os.path.join(ROOT, "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import qaplan.cli, qaplan.tables"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


# Every name the package once re-exported, by the module that defines it.
_DEFINED_IN = {
    "cmos": ["BUILTIN_CMOS", "CMOS_14NM", "CMOS_1_5NM", "CMOS_65NM", "CmosProfile", "cmos_power"],
    "economics": ["BsTopology", "ComparisonResult", "CostAssumptions", "CostReport",
                  "CranTopology", "compare", "cost_report"],
    "qa_hardware": ["BUILTIN_QA", "QA_CURRENT", "QA_PROJECTED", "QaProfile", "programming_energy",
                    "qmi_runtime_us", "readout_parallelism", "refrigerator_qubit_capacity"],
    "qubit_budget": ["QubitBudget", "task_qubits", "total_budget"],
    "ran_power": ["PowerBreakdown", "PowerSystemLosses", "bs_power", "cran_power"],
    "timeline": ["BEST_CASE", "HISTORICAL_QUBITS", "WORST_CASE", "GrowthTrend", "qubits_at",
                 "year_available"],
    "workload": ["BbuTask", "BbuWorkload", "CellScenario", "scale_task", "workload"],
}


def test_the_package_namespace_is_its_modules():
    # `qaplan` holds no model name, so `qaplan.workload` is the module, not
    # the function of that name, and a module loads only what it imports.
    # Each former package name is defined in its module, not imported there.
    src = os.path.join(ROOT, "src")
    names = sorted(n for ns in _DEFINED_IN.values() for n in ns)
    code = "\n".join([
        f"import importlib, sys, types; sys.path.insert(0, {src!r})",
        "loaded = lambda: sorted(n for n in sys.modules if n.startswith('qaplan.'))",
        "import qaplan",
        f"print(loaded(), [n for n in {names!r} if hasattr(qaplan, n)])",
        "import qaplan.emit",
        "print(loaded())",
        "import qaplan.workload as w",
        "print(isinstance(w, types.ModuleType), qaplan.workload.CellScenario.__name__)",
        f"for m, ns in {_DEFINED_IN!r}.items():",
        "    home = importlib.import_module('qaplan.' + m)",
        "    for n in ns:",
        "        obj = getattr(home, n)",
        "        if callable(obj) and obj.__module__ != home.__name__:",
        "            print(m, n, obj.__module__)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines() == ["[] []", "['qaplan.emit']", "True CellScenario"]


def test_no_module_imports_a_private_name_of_another():
    # A name with a leading underscore is its module's own; what another
    # module reads is public.
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "qaplan", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}: from {'.' * node.level}{node.module} import "
                  f"{alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "qaplan")
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_the_package_version_is_the_project_version():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        project = fh.read().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [qaplan.__version__]


def test_library_example_is_live(readme):
    # The snippet runs in a fresh interpreter and prints what the README shows.
    section = readme.split("## Library", 1)[1]
    code, printed = re.search(r"```python\n(.*?)```\n\nprints\n\n```\n(.*?)```", section,
                              re.S).groups()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    assert proc.stdout == printed
