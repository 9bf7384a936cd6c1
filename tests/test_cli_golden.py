"""Golden output of every subcommand in every format, pinned byte for byte.

Each case runs ``cli.main`` in-process and checks the exit code, the exact
stderr and the sha256 of stdout. The digests were recorded before the CLI
was rebuilt around one row loop; a change to any of them is a change to
what users see and needs a CHANGES.md entry.
"""

import hashlib
import json

import pytest

from qaplan.cli import main
from qaplan.config import ENV_CONFIG_PATH
from qaplan.tables import PAPER_TABLES

CRAN_CONFIG = {
    "topology": {"kind": "cran", "n_bs": 3},
    "cmos": ["65nm", "14nm", "1.5nm"],
    "horizons_years": [1, 2, 5, 10],
}

# Input name -> CLI flags; "{cran}" is replaced by the cran config path.
INPUTS = {
    "default": ["--sweep", "bandwidth_mhz=100,400", "--sweep", "samples=1,50"],
    "cran": ["--config", "{cran}", "--sweep", "antennas=8,64"],
    "skips": ["--sweep", "coding_rate=0.5,1.5", "--sweep", "antennas=64,512"],
}
COMMANDS = ("targets", "power", "qubits", "economics", "timeline")
FORMATS = ("csv", "json", "table")

_SKIPPED = "".join(
    f"qaplan: warning: skipping sweep point 5g-400mhz-64ant[antennas={a},"
    "coding_rate=1.5]: coding_rate must be in (0, 1], got 1.5\n"
    for a in (64, 512)
)
_OVER = "5g-400mhz-64ant[antennas=512,coding_rate=0.5]"
STDERR = {
    "qubits": _SKIPPED + f"qaplan: warning: {_OVER}: requirement 26560431 "
              "exceeds refrigerator capacity 13975088\n",
    "economics": _SKIPPED + f"qaplan: warning: {_OVER} (14nm): qubit requirement "
                 "26560431 exceeds refrigerator capacity 13975088\n",
}

STDOUT_SHA256 = {
    ("default", "targets", "csv"): "7fe450fa8bd0f6f5cd64d6c2e8e238902d746561879f72f5040f0f5c5f96066a",
    ("default", "targets", "json"): "f289494b13cec80077cc526f9e2ae824b96160bce51cc4f717ae1ccee8d78d88",
    ("default", "targets", "table"): "b4eac0119058368b2694fd5946ef50f80eb28cef4281a270f924ceb97663e257",
    ("default", "power", "csv"): "f3291c747896a328a57e2ee8236883bf0263af4b41467be9dfc662a0f1b9e7cf",
    ("default", "power", "json"): "f9c50ec8df5104ac26e18a9a894b259060515c8d37b9b81c6e07980e973c9c73",
    ("default", "power", "table"): "0bd1f34a824be5dd11deaa6f0daa57b7b92c1e5348a27699a2edc4c0d16a2b59",
    ("default", "qubits", "csv"): "a6765aafe7f94caccb57a61d1bc209180c188374666d74eda26b614baeb0afca",
    ("default", "qubits", "json"): "8b684dd3cf12c6f992b4b94491fe8d210b9e1772e581155e897ab34912f097ea",
    ("default", "qubits", "table"): "5e4459106955af0fdd013ff0574a3f57d5cf74c47388192b5f9da4043464afb5",
    ("default", "economics", "csv"): "d6af2e4655c1f93bcdf16474d4cfc4450969b63af40e20177076e04bb47db0f6",
    ("default", "economics", "json"): "ff029b6d4882f1aa711e3d9067b8d37f1c7f4d80943ab15d834379d6e9fa7a55",
    ("default", "economics", "table"): "5b29b795cafc9c92747ec23e873b1a084cdd530109cab224029363df999bc1d1",
    ("default", "timeline", "csv"): "f25ca0e1d7e57391c7fd61cc8343381620f87e72cc025b1209dbecc8eb027f4d",
    ("default", "timeline", "json"): "4f24abf6b77e83dede0515ab798fa2b1efd689a5c426a464168a102bd1367b47",
    ("default", "timeline", "table"): "21dcaa7cbe107692b30ca5352e489618864e1b9c4dfd26f0b61b8d96eedab02f",
    ("cran", "targets", "csv"): "b2da6c4350b7eb6d681b42ab38440caf985bbbad2c8ad628bbd10000601b491d",
    ("cran", "targets", "json"): "c5070a166398e231b44057a43cb10b57473fa987a081d20dfae80b8c17bd6e9c",
    ("cran", "targets", "table"): "9694705bd8b2b307d931253c5a0410de06bc3c932f0cd3c65105c3c3fc2b2822",
    ("cran", "power", "csv"): "12561ce7ced3810e086dc7cd27b760e4b72fb53bef6a80ce1296551ca9625f2e",
    ("cran", "power", "json"): "db2320ba0e4f0894f1a2b346311cf5fcc4276a7a0024c0f8a78aee8e8270ce9d",
    ("cran", "power", "table"): "5c4b9f4f83e8de92ba9fb870a1ba553bba5777f39ea7e076da4dd16d42ad631e",
    ("cran", "qubits", "csv"): "a3822668a253189540bf235f9c0a0e68c216f8e95b8378fc1be3738735680d32",
    ("cran", "qubits", "json"): "bf444bd8c28e20d8db34def7632fa437209d74b99f09f1eaac2c5aa52df438f1",
    ("cran", "qubits", "table"): "35008d969495eeffac0b92cff16dbd4e4377b41ae6a04722d32f8e063787938c",
    ("cran", "economics", "csv"): "dcbd46547d67dd22d6eeb32acb6588ad3798d40bc7cdefe33e7d54291dc5da4c",
    ("cran", "economics", "json"): "32f3c726e4a09cc93093c64bd44d6c355c9d2978ed860fa4b17deae7a002b60c",
    ("cran", "economics", "table"): "eda2efb10df7287c6f3e010f60c6c6a274c2d3313f9ba02bf0662ef5ae9f9271",
    ("cran", "timeline", "csv"): "8e94cb1835629191af41ae0683bbe185de57cb3c791b0f44dee4ad4313eac2fb",
    ("cran", "timeline", "json"): "dc56264435367420ba1ca993f93381f059fbb34744354d9ad42fc21623edba3a",
    ("cran", "timeline", "table"): "fcbf19f9cd672ccc8fec2f8b2ec1e5fae47e27c3302ae1ecbde8937d33b3d249",
    ("skips", "targets", "csv"): "dc3695646f0d41eef375ceba875c33c4995c5c8a22ba62a6ff71d6c7adf56b34",
    ("skips", "targets", "json"): "1daad7b4430c3028ed848e2b1e954eed1f70c730e182f8257e1f17b9d91fd8c9",
    ("skips", "targets", "table"): "eb888ae4f349605c16f3e5b7109de29bbd35eb967a1b2c9d094cbfe4a2d3a1f3",
    ("skips", "power", "csv"): "e0b24dc932d98b967dfe01ce94ff8c64a4f727805c3aa1806a0a66ce2d118693",
    ("skips", "power", "json"): "e36e6a2719dc75f2dfc6039111c46bbaa4c547291c8f8c622caa5aed6a1146b3",
    ("skips", "power", "table"): "c2cf7d55164c931233b22532dabfc2b6250ea832237ec6798ce9360d0559bc2f",
    ("skips", "qubits", "csv"): "bbb12a666972d4767f62d7a2cfd4af7331bd8cdd66758d75f9ef4c41e04108cc",
    ("skips", "qubits", "json"): "86b2e572d11adb88174b5641ea0e80fd839886446a721a68f96357bfbd78f3cf",
    ("skips", "qubits", "table"): "78e4759418357257ca1f31c2648773bf70db5d2b6dd569020c7d9b951322ef9f",
    ("skips", "economics", "csv"): "8dc5aad03972816801df93cd331069d969cb655caab2c8e525245747410b16d1",
    ("skips", "economics", "json"): "658d68608612990e2fcc00b72128669d6a94a23ba3a8d44749b2b8ae2de323d5",
    ("skips", "economics", "table"): "2bbf91c2836845024138edd592fa8a8380776c6f051ec770201991809b8e5452",
    ("skips", "timeline", "csv"): "eceb0f13e7002e6f692ef3490f7f708a28f5128b6e85bbee8629dba51b1ce50e",
    ("skips", "timeline", "json"): "c4cb78ddbbe75f8cc0d8841abcfcce1c8d92b9227966a7bee1455798a17516a8",
    ("skips", "timeline", "table"): "b7e1e7d338334cd35c13ea490fe6d8eab5b0304d3193531964de4c2cb2de7e9b",
}


# Two rows whose printed cells once depended on the Python version: 3.12
# made `sum()` of floats compensated, which printed Total 18.533 and
# cmos_bbu_w 629.9 where 3.10 and 3.11 print 18.532 and 629.8. Recorded on
# 3.11, so a float sum that follows the interpreter again fails on 3.12+.
VERSION_CASES = {
    "targets-sum": (
        None,
        ["targets", "--format", "csv", "--sweep", "bandwidth_mhz=31", "--sweep", "antennas=7"],
        "662c7de99de6d662411caf4960aee90796a7454fa6a24ba6171c4142c51df0a9",
    ),
    "cran4-power-sum": (
        {"topology": {"kind": "cran", "n_bs": 4}, "cmos": ["65nm"]},
        ["power", "--format", "csv", "--sweep", "bandwidth_mhz=70", "--sweep", "antennas=1"],
        "3772f110ab9a47e5cc7bbc9990f7c681d6d4dad3ae89e413041329a777eec573",
    ),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)


@pytest.mark.parametrize("key", sorted(STDOUT_SHA256), ids="-".join)
def test_golden_output(key, tmp_path, capsys):
    name, command, fmt = key
    cran = tmp_path / "cran.json"
    cran.write_text(json.dumps(CRAN_CONFIG), encoding="utf-8")
    flags = [f.format(cran=cran) for f in INPUTS[name]]
    code = main([command, "--format", fmt] + flags)
    out, err = capsys.readouterr()
    if name == "skips":
        assert (code, err) == (3, STDERR.get(command, _SKIPPED))
    else:
        assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[key]


def test_every_command_format_and_input_is_pinned():
    assert set(STDOUT_SHA256) == {
        (n, c, f) for n in INPUTS for c in COMMANDS for f in FORMATS
    }


@pytest.mark.parametrize("case", sorted(VERSION_CASES))
def test_output_does_not_depend_on_the_python_version(case, tmp_path, capsys):
    config, argv, digest = VERSION_CASES[case]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Every reference report in every format, recorded before the model's
# unreached options were removed: `compare`, `programming_energy` and
# `scaled_profile` reach stdout only through these tables.
PAPER_TABLE_SHA256 = {
    ("costsavings", "csv"): "a54dec8e140b1785b22087caa06865e1477b252181340f7d2e5968469d528be8",
    ("costsavings", "json"): "f19fb0dc75325396cd797a42dbfb60243167b7807e38347a645883282ae02073",
    ("costsavings", "table"): "2561c6504906167de315f4748318f931b375e4e08c33b03fd8fdaca17ed7a0b4",
    ("energy", "csv"): "5d347439bd6a4f096fc12432918a22a6707b8d944d06633cbbae9d512c8b6edd",
    ("energy", "json"): "dba9e39100efd8ba809ad7d25d493a10ea5632da323211d10262cb677d636ad9",
    ("energy", "table"): "99a18bd04381412d98a65ff46292437fa3fe721a2ca9ac9983725ad76ca818d0",
    ("powerbenefit", "csv"): "c4070f3eedd6b524b90687513a4984bc7c8bd7a2db160df900c07049c96ea22b",
    ("powerbenefit", "json"): "d106ce2d29723478a432cd4f5b238703d6eed01a6a66c75a112428cb58919df2",
    ("powerbenefit", "table"): "0c9afb8d8fa379680dba2617334a005d84593b959802e1aa6999b0ca017106ec",
    ("qubits-time", "csv"): "513dc29d9116bd297c7e1364a9b25791e808799b3a85dc03f70e5165783e2340",
    ("qubits-time", "json"): "781e5c39750f9f1e2ebceb390a4faa7b24697a6221fd310b2084029610819a6a",
    ("qubits-time", "table"): "fbe4ba0a1d50245fa68f0f13aa95dc5ba5a89593038299758b26368624c8a25a",
    ("readout", "csv"): "6b30272d3f1e1bcf223815386e53bd8a9306422de81945e8ef809f02b4804412",
    ("readout", "json"): "42941d9a8c5366e70235fafc691794ea4d676985c3151bc71e4b8b951598e660",
    ("readout", "table"): "89e3c096e6e0ac0f72064b5c92f9331c570736be97e75361f0b794cfb5b3ce55",
    ("targets", "csv"): "eaa9d5d0ef6b705b313863d0845e9efccb78e7a7a58bd489ab73b21f3e49db29",
    ("targets", "json"): "c4ee147afdf0cebf8eb583e1ceb5155be0fd79c4fa717ee08724cb5a91a1577e",
    ("targets", "table"): "ebb5dc30492e925d8436656ae4c34c3dbc99f530b1f5191cdfa0fd376089afbb",
}


def test_every_paper_table_and_format_is_pinned():
    assert set(PAPER_TABLE_SHA256) == {
        (name, f) for name in PAPER_TABLES for f in FORMATS
    }


@pytest.mark.parametrize("key", sorted(PAPER_TABLE_SHA256), ids="-".join)
def test_paper_table_output(key, capsys):
    name, fmt = key
    code = main(["targets", "--paper-table", name, "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PAPER_TABLE_SHA256[key]
