"""Backoff policy arithmetic and the shared retry loop."""

import pytest

from repro.faults.backoff import BackoffPolicy, retry_with_backoff
from repro.faults.deadline import Deadline, DeadlineExceededError
from repro.faults.plan import InjectedFaultError


class TestBackoffPolicy:
    def test_delays_grow_exponentially_to_the_cap(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=10.0, jitter=0.25)
        for attempt in (1, 2, 3):
            raw = 0.1 * 2 ** (attempt - 1)
            delay = policy.delay(attempt, key="req-7")
            assert delay == policy.delay(attempt, key="req-7")
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_jitter_decorrelates_keys(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=10.0, jitter=0.25)
        assert policy.delay(1, key="a") != policy.delay(1, key="b")

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            BackoffPolicy().delay(0)

    def test_cap_below_base_is_rejected(self):
        with pytest.raises(ValueError, match="cap_s"):
            BackoffPolicy(base_s=1.0, cap_s=0.5)

    def test_negative_base_is_rejected(self):
        with pytest.raises(ValueError, match="base_s must be >= 0"):
            BackoffPolicy(base_s=-0.1)


class TestRetryWithBackoff:
    def _flaky(self, failures, error=OSError("transient")):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise error
            return f"ok after {calls['n']}"
        return fn, calls

    def test_succeeds_after_transient_failures(self):
        fn, calls = self._flaky(2)
        slept = []
        result = retry_with_backoff(
            fn, retries=3, policy=BackoffPolicy(0.01, 0.04, jitter=0.0),
            sleep=slept.append)
        assert result == "ok after 3"
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_exhaustion_reraises_the_last_error(self):
        fn, calls = self._flaky(10, error=OSError("still down"))
        with pytest.raises(OSError, match="still down"):
            retry_with_backoff(fn, retries=2,
                               policy=BackoffPolicy(0.0, 0.0, jitter=0.0),
                               sleep=lambda s: None)
        assert calls["n"] == 3  # 1 try + 2 retries

    def test_non_retryable_errors_propagate_immediately(self):
        fn, calls = self._flaky(1, error=ValueError("logic bug"))
        with pytest.raises(ValueError, match="logic bug"):
            retry_with_backoff(fn, retries=5, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_injected_faults_are_always_retryable(self):
        fn, calls = self._flaky(
            1, error=InjectedFaultError("store.save.write", 1))
        result = retry_with_backoff(
            fn, retries=1, retry_on=(),  # nothing "normally" retryable
            policy=BackoffPolicy(0.0, 0.0, jitter=0.0),
            sleep=lambda s: None)
        assert result == "ok after 2"

    def test_deadline_preempts_a_doomed_sleep(self):
        fn, _ = self._flaky(10)
        with pytest.raises(DeadlineExceededError, match="outlive"):
            retry_with_backoff(
                fn, retries=5,
                policy=BackoffPolicy(base_s=60.0, cap_s=60.0, jitter=0.0),
                deadline=Deadline.after(0.5), sleep=lambda s: None)

    def test_expired_deadline_fails_before_first_attempt(self):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            return "never"
        with pytest.raises(DeadlineExceededError):
            retry_with_backoff(fn, deadline=Deadline.after(0.0))
        assert calls["n"] == 0

    def test_on_retry_observes_each_attempt(self):
        fn, _ = self._flaky(2)
        seen = []
        retry_with_backoff(
            fn, retries=3, policy=BackoffPolicy(0.0, 0.0, jitter=0.0),
            sleep=lambda s: None,
            on_retry=lambda attempt, error: seen.append(
                (attempt, type(error).__name__)))
        assert seen == [(1, "OSError"), (2, "OSError")]
