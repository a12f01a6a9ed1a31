"""Candidate policy specs shared by the offline and serving workloads."""

from __future__ import annotations

from typing import Any, Dict, List

#: Estimators the serving workload asks for, per policy spec.
ESTIMATORS = ("ips", "snips", "dr")


def _decisions():
    from repro.workloads import SyntheticWorkload

    return SyntheticWorkload().space().decisions


def policy_specs(count: int, seed: int) -> List[Dict[str, Any]]:
    """*count* distinct epsilon-greedy specs over the synthetic decisions.

    The seed rotates which decision each spec favours and shifts its
    exploration rate, so different seeds ask different questions.
    """
    decisions = list(_decisions())
    specs = []
    for index in range(count):
        position = seed + index
        specs.append(
            {
                "kind": "epsilon-greedy",
                "options": {
                    "epsilon": round(0.05 + 0.1 * (position % 5), 2),
                    "base": {
                        "kind": "constant",
                        "options": {
                            "space": decisions,
                            "decision": decisions[position % len(decisions)],
                        },
                    },
                },
            }
        )
    return specs


def candidate_spec(seed: int) -> Dict[str, Any]:
    """The one candidate policy the offline workload evaluates."""
    return policy_specs(1, seed)[0]
