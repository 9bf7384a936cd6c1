"""The README's config example and sample output match the code."""

import json
import os
import re

import pytest

from qaplan.cli import main
from qaplan.config import ENV_CONFIG_PATH, parse_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


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
