"""What the benchmark in `perfbench/` takes from qaplan: the functions its
traced run wraps, and a `cli.load_config` it can replace with a wrapper
of one argument, which marks the end of a call's set-up."""

import importlib
import importlib.util
import os

import qaplan.cli as cli
from qaplan.config import ENV_CONFIG_PATH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    """`perfbench/spans.py`, loaded by its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_names_a_function_of_qaplan():
    layers = _spans().LAYERS
    missing = [(module, attr) for _, module, attr in layers
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    # The subcommands are reached through `cli._COMMANDS`, where the spans wrap them too.
    commands = {getattr(cli, attr) for name, _, attr in layers if name == "cli.cmd"}
    assert commands == set(cli._COMMANDS.values())


def test_a_one_argument_load_config_in_cli_s_place_leaves_the_call_as_it_is(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    argv = ["economics", "--format", "csv", "--sweep", "samples=1,20", "--out"]

    def call(out):
        code = cli.main(argv + [str(out)])
        return code, out.read_bytes(), capsys.readouterr()

    want = call(tmp_path / "plain.csv")
    loader, paths = cli.load_config, []

    def load_config(path):
        paths.append(path)
        return loader(path)

    monkeypatch.setattr(cli, "load_config", load_config)
    assert call(tmp_path / "wrapped.csv") == want
    assert paths == [None]
    # The flag's sweep reached the call: one row per sample count.
    assert want[0] == cli.EXIT_OK and want[2].err == ""
    assert [line.split(b",")[0] for line in want[1].splitlines()[2:]] == [
        b"5g-400mhz-64ant[samples=1]", b"5g-400mhz-64ant[samples=20]"]
