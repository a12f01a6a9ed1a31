"""REP003 vocabulary fixture: __init__ keywords outside the canon (line 9)."""

from repro.core.estimators.base import OffPolicyEstimator


class AliasKeywordEstimator(OffPolicyEstimator):
    """Implements the hook but spells its constructor keywords wrong."""

    def __init__(self, reward_model, max_weight=10.0, **legacy):
        """Non-canonical spellings plus a var-keyword catch-all."""
        self._model = reward_model
        self._clip = max_weight

    @property
    def name(self):
        """Estimator name."""
        return "alias-keywords"

    def _estimate(self, new_policy, trace, propensities):
        """Degenerate estimate."""
        return None
