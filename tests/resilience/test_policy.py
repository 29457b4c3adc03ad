"""Property tests of the retry/backoff policy (hypothesis).

The pool's recovery timing must itself honour the repo's determinism
contract: the backoff schedule is a pure function of (policy, attempt) —
deterministic, monotone non-decreasing and bounded by ``backoff_max``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ResilienceError
from repro.resilience import DEFAULT_RETRY_POLICY, RetryPolicy

policies = st.builds(
    RetryPolicy,
    max_retries=st.integers(min_value=0, max_value=16),
    backoff_base=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    backoff_factor=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    backoff_max=st.floats(min_value=10.0, max_value=100.0, allow_nan=False),
)
attempts = st.integers(min_value=0, max_value=64)


@settings(max_examples=200, deadline=None)
@given(policy=policies, attempt=attempts)
def test_backoff_is_deterministic(policy, attempt):
    assert policy.backoff_delay(attempt) == policy.backoff_delay(attempt)
    clone = RetryPolicy(
        max_retries=policy.max_retries,
        backoff_base=policy.backoff_base,
        backoff_factor=policy.backoff_factor,
        backoff_max=policy.backoff_max,
    )
    assert clone.backoff_delay(attempt) == policy.backoff_delay(attempt)


@settings(max_examples=200, deadline=None)
@given(policy=policies, attempt=attempts)
def test_backoff_is_monotone_non_decreasing(policy, attempt):
    assert policy.backoff_delay(attempt + 1) >= policy.backoff_delay(attempt)


@settings(max_examples=200, deadline=None)
@given(policy=policies, attempt=attempts)
def test_backoff_is_bounded(policy, attempt):
    delay = policy.backoff_delay(attempt)
    assert 0.0 <= delay <= policy.backoff_max


@settings(max_examples=100, deadline=None)
@given(policy=policies, n=st.integers(min_value=0, max_value=32))
def test_schedule_matches_per_attempt_delays(policy, n):
    schedule = policy.backoff_schedule(n)
    assert len(schedule) == n
    assert schedule == tuple(policy.backoff_delay(a) for a in range(n))


def test_default_schedule_length_is_max_retries():
    policy = RetryPolicy(max_retries=5)
    assert len(policy.backoff_schedule()) == 5


def test_geometric_growth_capped_at_max():
    policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_max=3.0)
    assert policy.backoff_schedule(5) == (0.5, 1.0, 2.0, 3.0, 3.0)


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ResilienceError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ResilienceError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ResilienceError, match="backoff_max"):
            RetryPolicy(backoff_base=5.0, backoff_max=1.0)
        with pytest.raises(ResilienceError, match="chunk_timeout"):
            RetryPolicy(chunk_timeout=0.0)
        with pytest.raises(ResilienceError, match="degrade"):
            RetryPolicy(degrade="shrug")
        with pytest.raises(ResilienceError, match="attempt"):
            DEFAULT_RETRY_POLICY.backoff_delay(-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chunk_timeout", float("nan")),
            ("chunk_timeout", float("inf")),
            ("backoff_max", float("nan")),
            ("backoff_base", float("nan")),
            ("backoff_factor", float("nan")),
        ],
    )
    def test_rejects_non_finite_knobs(self, field, value):
        """A NaN deadline never expires and a NaN backoff never pauses."""
        with pytest.raises(ResilienceError, match=f"{field} must be finite"):
            RetryPolicy(**{field: value})

    def test_policy_is_immutable_and_comparable(self):
        assert RetryPolicy() == DEFAULT_RETRY_POLICY
        assert RetryPolicy(max_retries=1) != DEFAULT_RETRY_POLICY
        with pytest.raises(AttributeError):
            DEFAULT_RETRY_POLICY.max_retries = 7
