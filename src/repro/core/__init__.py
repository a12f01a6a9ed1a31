"""Core off-policy evaluation library — the paper's primary contribution.

Public surface:

* data model — :class:`ClientContext`, :class:`TraceRecord`, :class:`Trace`
* decision spaces — :class:`DecisionSpace`, :class:`ProductDecisionSpace`
* policies — :class:`Policy` and concrete families
* reward models — :mod:`repro.core.models`
* estimators — DM / IPS / DR and variants, :mod:`repro.core.estimators`
* diagnostics, bootstrap CIs, policy selection, error metrics
"""

from repro.core.bootstrap import BootstrapResult, bootstrap_ci, jackknife_std_error
from repro.core.contracts import (
    PropensityCheck,
    WeightCheck,
    check_propensities,
    check_propensity,
    check_trace,
    check_weights,
)
from repro.core.diagnostics import (
    OverlapReport,
    RandomnessReport,
    overlap_report,
    randomness_report,
)
from repro.core.estimators import (
    IPS,
    ClippedIPS,
    DirectMethod,
    DoublyRobust,
    EstimateResult,
    MatchingEstimator,
    OffPolicyEstimator,
    ReplayDoublyRobust,
    SelfNormalizedDR,
    SelfNormalizedIPS,
    SwitchDR,
)
from repro.core.history import (
    FunctionHistoryPolicy,
    History,
    HistoryEntry,
    HistoryPolicy,
    RecentRewardThresholdPolicy,
    StationaryAdapter,
)
from repro.core.models import (
    ConstantRewardModel,
    CrossFitModel,
    DecisionTreeRewardModel,
    EnsembleRewardModel,
    KernelRewardModel,
    KNNRewardModel,
    OneHotEncoder,
    OracleRewardModel,
    RewardModel,
    RidgeRewardModel,
    Standardizer,
    TabularMeanModel,
)
from repro.core.exploration import (
    ExplorationPlan,
    exploration_cost,
    forecast_ess,
    plan_exploration,
)
from repro.core.optimization import DRPolicyLearner, LearnedPolicy, dr_decision_scores
from repro.core.metrics import (
    BiasVarianceSummary,
    ErrorSummary,
    error_reduction,
    paired_error_table,
    relative_error,
)
from repro.core.policy import (
    DeterministicPolicy,
    EpsilonGreedyPolicy,
    FunctionPolicy,
    GreedyModelPolicy,
    MixturePolicy,
    Policy,
    SoftmaxPolicy,
    TabularPolicy,
    UniformRandomPolicy,
    validate_distribution,
)
from repro.core.propensity import (
    EmpiricalPropensityModel,
    FlooredPropensitySource,
    LogisticPropensityModel,
    PropensityModel,
)
from repro.core.random import ensure_rng, seed_stream, spawn
from repro.core.reporting import EvaluationReport
from repro.core.selection import ComparisonResult, PolicyComparator, RankedPolicy
from repro.core.spaces import DecisionSpace, ProductDecisionSpace
from repro.core.types import ClientContext, Decision, Trace, TraceColumns, TraceRecord

__all__ = [
    # data model
    "ClientContext",
    "TraceRecord",
    "Trace",
    "TraceColumns",
    "Decision",
    "DecisionSpace",
    "ProductDecisionSpace",
    # policies
    "Policy",
    "DeterministicPolicy",
    "UniformRandomPolicy",
    "EpsilonGreedyPolicy",
    "SoftmaxPolicy",
    "MixturePolicy",
    "TabularPolicy",
    "FunctionPolicy",
    "GreedyModelPolicy",
    "validate_distribution",
    # history
    "History",
    "HistoryEntry",
    "HistoryPolicy",
    "StationaryAdapter",
    "FunctionHistoryPolicy",
    "RecentRewardThresholdPolicy",
    # reward models
    "RewardModel",
    "OracleRewardModel",
    "ConstantRewardModel",
    "TabularMeanModel",
    "KNNRewardModel",
    "RidgeRewardModel",
    "DecisionTreeRewardModel",
    "KernelRewardModel",
    "EnsembleRewardModel",
    "CrossFitModel",
    "OneHotEncoder",
    "Standardizer",
    # propensities
    "PropensityModel",
    "EmpiricalPropensityModel",
    "LogisticPropensityModel",
    "FlooredPropensitySource",
    # runtime contracts
    "PropensityCheck",
    "WeightCheck",
    "check_propensities",
    "check_propensity",
    "check_trace",
    "check_weights",
    # estimators
    "OffPolicyEstimator",
    "EstimateResult",
    "DirectMethod",
    "IPS",
    "ClippedIPS",
    "SelfNormalizedIPS",
    "MatchingEstimator",
    "DoublyRobust",
    "SelfNormalizedDR",
    "SwitchDR",
    "ReplayDoublyRobust",
    # diagnostics & uncertainty
    "OverlapReport",
    "RandomnessReport",
    "overlap_report",
    "randomness_report",
    "BootstrapResult",
    "bootstrap_ci",
    "jackknife_std_error",
    # reporting
    "EvaluationReport",
    # selection & metrics
    "PolicyComparator",
    "ComparisonResult",
    "RankedPolicy",
    "relative_error",
    "ErrorSummary",
    "BiasVarianceSummary",
    "error_reduction",
    "paired_error_table",
    # policy learning & exploration budgeting
    "DRPolicyLearner",
    "LearnedPolicy",
    "dr_decision_scores",
    "ExplorationPlan",
    "exploration_cost",
    "plan_exploration",
    "forecast_ess",
    # randomness helpers
    "ensure_rng",
    "spawn",
    "seed_stream",
]
