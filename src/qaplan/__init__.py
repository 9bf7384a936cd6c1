"""Feasibility planner for annealer-offloaded cellular baseband processing.

Models the compute demand of baseband tasks across cell configurations,
the power of silicon and annealer-offloaded deployments, the qubit counts
an annealer needs to keep up, and the economics and timeline of switching.
"""

from .cmos import BUILTIN_CMOS, CMOS_14NM, CMOS_1_5NM, CMOS_65NM, CmosProfile, cmos_power
from .economics import (
    BsTopology,
    ComparisonResult,
    CostAssumptions,
    CostReport,
    CranTopology,
    compare,
    cost_report,
)
from .qa_hardware import (
    BUILTIN_QA,
    QA_CURRENT,
    QA_PROJECTED,
    QaProfile,
    programming_energy,
    qmi_runtime_us,
    readout_parallelism,
    refrigerator_qubit_capacity,
)
from .qubit_budget import LDPC_5G_BG1, LdpcCode, QubitBudget, task_qubits, total_budget
from .ran_power import (
    FronthaulLink,
    PowerBreakdown,
    PowerSystemLosses,
    RrhSite,
    bs_power,
    cran_power,
    fronthaul_power,
)
from .timeline import (
    BEST_CASE,
    HISTORICAL_QUBITS,
    WORST_CASE,
    GrowthTrend,
    qubits_at,
    year_available,
)
from .workload import BbuTask, BbuWorkload, CellScenario, scale_task, workload

__version__ = "0.1.0"
