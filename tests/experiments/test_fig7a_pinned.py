"""Fig 7a pinned bit for bit.

The floats below are what ``run_fig7a(runs=5, seed=2017)`` produced before
the CBN learner scored families instead of whole networks.  Any later change
to structure learning, CPT fitting or the DM/DR path that moves a single bit
of the headline figure fails here instead of shifting it silently.
"""

from repro.core.metrics import ErrorSummary
from repro.experiments.fig7 import run_fig7a

PER_RUN = [
    (3743917570, 0.05822566544671128, 0.01830876080277838),
    (3728538546, 0.06028298785080957, 0.0019017644427565714),
    (2976030762, 0.054066215312114765, 0.026147397643925867),
    (739891657, 0.06010724859528698, 0.006235383990373966),
    (2053319738, 0.06141300027009899, 0.0011683177251261977),
]

SUMMARIES = {
    "wise": ErrorSummary(
        mean=0.05881902349500432,
        minimum=0.054066215312114765,
        maximum=0.06141300027009899,
        std=0.0028927793923238044,
        runs=5,
    ),
    "dr": ErrorSummary(
        mean=0.010752324920992196,
        minimum=0.0011683177251261977,
        maximum=0.026147397643925867,
        std=0.011007910308727697,
        runs=5,
    ),
}


def test_fig7a_bit_identical():
    result = run_fig7a(runs=5, seed=2017)
    assert [
        (record.seed, record.errors["wise"], record.errors["dr"])
        for record in result.records
    ] == PER_RUN
    assert result.summaries == SUMMARIES
