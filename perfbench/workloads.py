"""Benchmark workloads: seeded sweep grids and the CLI calls that evaluate them.

Seed 0 gives the named grid, the one the golden digests were recorded on.
Any other seed draws a grid of the same size from the same axis ranges, in
the same axis order, with every value valid, so no call should fail.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CRAN3_CONFIG = os.path.join(HERE, "cran3.json")

Axes = Tuple[Tuple[str, List[float]], ...]


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload and what its output must look like."""

    command: str
    fmt: str
    axes: Axes
    config: str  # config file path, or "" for the built-in defaults
    rows_per_point: int

    @property
    def points(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def argv(self, out_path: str) -> List[str]:
        args = [self.command, "--format", self.fmt, "--out", out_path]
        if self.config:
            args += ["--config", self.config]
        for axis, values in self.axes:
            args += ["--sweep", f"{axis}=" + ",".join(str(v) for v in values)]
        return args


def _draw(rng: random.Random, population: Sequence[int], k: int) -> List[int]:
    return sorted(rng.sample(population, k))


def _grid30k_axes(seed: int) -> Axes:
    # bandwidth 10..1000 MHz x antennas 1..100 x samples {1, 20, 50}
    if seed == 0:
        bandwidth, samples = list(range(10, 1001, 10)), [1, 20, 50]
    else:
        rng = random.Random(seed)
        bandwidth = _draw(rng, range(10, 1001), 100)
        samples = _draw(rng, range(1, 51), 3)
    # antennas already fill their whole range at 100 distinct values
    return (("bandwidth_mhz", bandwidth), ("antennas", list(range(1, 101))),
            ("samples", samples))


def _cran3_axes(seed: int) -> Axes:
    # bandwidth 20..1000 MHz x antennas 8..128 x modulation bits
    if seed == 0:
        bandwidth, antennas = list(range(20, 1001, 20)), [8, 16, 32, 64, 128]
        modulation = [2, 4, 6, 8]
    else:
        rng = random.Random(seed)
        bandwidth = _draw(rng, range(20, 1001), 50)
        antennas = _draw(rng, range(8, 129), 5)
        modulation = _draw(rng, (1, 2, 4, 6, 8), 4)
    return (("bandwidth_mhz", bandwidth), ("antennas", antennas),
            ("modulation_bits", modulation))


def _cran3_nodes() -> int:
    with open(CRAN3_CONFIG, encoding="utf-8") as fh:
        return len(json.load(fh)["cmos"])


def calls(workload: str, seed: int, tiny: bool = False) -> List[Call]:
    """The calls of one run of `workload`; `tiny` keeps 3 values per axis."""
    if workload not in NAMES:
        raise KeyError(f"unknown workload {workload!r}; choose from {NAMES}")
    axes = _cran3_axes(seed) if workload == "cran3-mixed-table" else _grid30k_axes(seed)
    if tiny:
        axes = tuple((axis, values[:3]) for axis, values in axes)
    if workload == "grid30k-economics-csv":
        return [Call("economics", "csv", axes, "", 1)]
    nodes = _cran3_nodes()
    # power and economics write one row per point and cmos node
    return [Call(command, "table", axes, CRAN3_CONFIG,
                 nodes if command in ("power", "economics") else 1)
            for command in ("targets", "power", "qubits", "economics", "timeline")]


NAMES = ("grid30k-economics-csv", "cran3-mixed-table")


def count_rows(fmt: str, text: str) -> int:
    """Data rows in one emitted table."""
    lines = [line for line in text.splitlines() if line]
    if fmt == "csv":
        return sum(1 for line in lines if not line.startswith("# ")) - 1
    # text: title, header and rule lines, then rows, then notes
    return sum(1 for line in lines[3:] if not line.startswith("note: "))

