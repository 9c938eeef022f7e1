"""The benchmark's calls into gibbs_partition still resolve and reproduce.

``perfbench/stages.py`` is the only module through which the benchmark calls
the package.  Running it here against ``src/`` makes a change that deletes
or renames a name the benchmark calls fail the test suite, not the
benchmark run that follows it.
"""

import sys
from pathlib import Path

import pytest

from gibbs_partition import log_ratio_exact

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 4711
PROBE_KEYS = {
    "samplers.draw_us.fresh_b",
    "samplers.draw_us.repeat_b",
    "samplers.draw_us.mcmc",
    "tpa.run_s",
    "tpa.draws_per_run",
    "streams.spawn_s",
}


@pytest.fixture(scope="module")
def stages():
    sys.path.insert(0, str(PERFBENCH))
    import stages

    return stages


@pytest.mark.parametrize("workload", ["small-exact", "k2-mcmc"])
def test_stages_run_against_src(stages, workload):
    from measure import Tracer

    case = stages.WORKLOADS[workload][0]
    assert case.label == "k2"
    row = stages.estimate(case, SEED)
    staged = stages.replay(case, SEED, Tracer())
    assert staged["log_estimate"] == row["log_estimate"]
    assert staged["draws_total"] == row["draws_total"]
    assert stages.set_up(case) == log_ratio_exact(staged["model"], case.beta)
    probe = stages.probe(case, SEED, staged["model"], staged["schedule"], staged["estimators.r"])
    assert set(probe) == PROBE_KEYS
