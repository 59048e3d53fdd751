"""Experiment harness: one module per figure of the paper's evaluation.

| Module | Paper artifact |
|--------|----------------|
| :mod:`repro.experiments.fig1_packets` | Fig. 1 — packets vs link quality |
| :mod:`repro.experiments.fig2_distance` | Fig. 2 — PRR vs distance |
| :mod:`repro.experiments.fig3_energy` | Fig. 3 — power per radio state |
| :mod:`repro.experiments.fig7_dfl` | Fig. 7 — DFL cost/reliability bars |
| :mod:`repro.experiments.fig8_same_energy` | Fig. 8 — random graphs, same energy |
| :mod:`repro.experiments.fig9_diff_energy` | Fig. 9 — random graphs, mixed energy |
| :mod:`repro.experiments.fig10_link_prob` | Fig. 10 — cost vs link probability |
| :mod:`repro.experiments.fig11_13_distributed` | Figs. 11–13 — protocol churn |
| :mod:`repro.experiments.ext_baselines` | extension — wide algorithm panel vs the exact optimum |
| :mod:`repro.experiments.ext_energy_hole` | extension — energy-hole depth profiles |
| :mod:`repro.experiments.ext_latency` | extension — latency/reliability/lifetime triangle |
| :mod:`repro.experiments.ext_estimation` | extension — beacon-budget vs estimation regret |
| :mod:`repro.experiments.ext_stability` | extension — structural churn under estimation noise |
| :mod:`repro.experiments.ext_faulty_control` | extension — maintained tree vs control-plane loss rate |
| :mod:`repro.experiments.ext_portfolio` | extension — portfolio tournament win-rate table |

Every ``run_*`` function is deterministic given its ``base_seed``/``seed``
and accepts reduced trial counts for quick runs; paper-scale defaults
regenerate the full figures.  Fig. 4 (the toy reliability example) lives in
``examples/quickstart.py`` and the test suite.
"""

from repro.experiments.fig1_packets import Fig1Result, run_fig1
from repro.experiments.parallel import default_workers, parallel_map
from repro.experiments.fig2_distance import Fig2Result, run_fig2
from repro.experiments.fig3_energy import Fig3Result, run_fig3
from repro.experiments.fig7_dfl import Fig7Entry, Fig7Result, run_fig7
from repro.experiments.fig8_same_energy import Fig8Result, RandomGraphTrial, run_fig8
from repro.experiments.fig9_diff_energy import Fig9Result, run_fig9
from repro.experiments.fig10_link_prob import Fig10Result, run_fig10
from repro.experiments.ext_baselines import (
    AlgorithmSummary,
    ExtBaselinesResult,
    run_ext_baselines,
)
from repro.experiments.ext_energy_hole import (
    DepthProfile,
    EnergyHoleResult,
    run_energy_hole,
)
from repro.experiments.ext_estimation import (
    EstimationPoint,
    ExtEstimationResult,
    run_ext_estimation,
)
from repro.experiments.ext_stability import (
    ExtStabilityResult,
    run_ext_stability,
)
from repro.experiments.ext_faulty_control import (
    ExtFaultyControlResult,
    FaultSweepPoint,
    run_ext_faulty_control,
)
from repro.experiments.ext_portfolio import (
    CellWinRates,
    ExtPortfolioResult,
    run_ext_portfolio,
)
from repro.experiments.ext_latency import (
    ExtLatencyResult,
    LatencyEntry,
    run_ext_latency,
)
from repro.experiments.fig11_13_distributed import (
    DistributedResult,
    run_distributed_experiment,
)

__all__ = [
    "AlgorithmSummary",
    "CellWinRates",
    "DepthProfile",
    "DistributedResult",
    "EnergyHoleResult",
    "EstimationPoint",
    "ExtBaselinesResult",
    "ExtEstimationResult",
    "ExtFaultyControlResult",
    "ExtPortfolioResult",
    "ExtStabilityResult",
    "ExtLatencyResult",
    "FaultSweepPoint",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig7Entry",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "LatencyEntry",
    "RandomGraphTrial",
    "default_workers",
    "parallel_map",
    "run_distributed_experiment",
    "run_energy_hole",
    "run_ext_baselines",
    "run_ext_estimation",
    "run_ext_faulty_control",
    "run_ext_latency",
    "run_ext_portfolio",
    "run_ext_stability",
    "run_fig1",
    "run_fig10",
    "run_fig2",
    "run_fig3",
    "run_fig7",
    "run_fig8",
    "run_fig9",
]
