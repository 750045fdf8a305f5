"""Tests for deterministic fault injection and the resilience layer.

Three tiers:

* **Units** — `FaultInjector` schedules (explicit hits, tail windows,
  seeded probability), `Deadline`, `RetryPolicy`, `CircuitBreaker` (driven
  by a fake clock), `FallbackRouter`, and the `errors` taxonomy/status table.
* **Service semantics** — deadline admission and queued-expiry, bit-identical
  retry replays (inline and through a crashing worker pool), the circuit
  open → half-open → closed cycle, and degraded-mode fallback.
* **The invariant** — under seeded fault schedules (including probabilistic
  ones) over a pool-backed service, **every issued ticket resolves**: a
  response, a typed :class:`~repro.serving.errors.ServingError`, or a
  ``degraded`` result.  No hangs, no lost tickets.
"""

import time

import numpy as np
import pytest

from repro import (
    CircuitBreakerPolicy,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    FallbackRouter,
    ImputationRequest,
    ImputationService,
    ModelRegistry,
    PriSTI,
    PriSTIConfig,
    RetryPolicy,
    ServiceOverloaded,
    WorkerPool,
)
from repro.serving import PoolStopped, WorkerCrashed, faults
from repro.serving.errors import ServingError, classify
from repro.serving.faults import FaultInjector, FaultRule, InjectedFault
from repro.serving.resilience import CircuitBreaker, counts_as_breaker_failure


class FakeClock:
    """A manually advanced monotonic clock for deadline/breaker tests."""

    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _fast_config(**overrides):
    defaults = dict(window_length=10, epochs=1, iterations_per_epoch=1,
                    num_diffusion_steps=6, num_samples=2, batch_size=4)
    defaults.update(overrides)
    return PriSTIConfig.fast(**defaults)


@pytest.fixture(scope="module")
def trained_model(tiny_traffic_dataset):
    return PriSTI(_fast_config()).fit(tiny_traffic_dataset)


@pytest.fixture()
def registry(tmp_path, trained_model):
    registry = ModelRegistry(tmp_path / "models", max_loaded=4)
    registry.publish(trained_model, "traffic")
    return registry


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Every test starts and ends with the injector uninstalled."""
    faults.uninstall()
    yield
    faults.uninstall()


def _requests(dataset, model="traffic", count=4, length=10, num_samples=2):
    values, observed, evaluation = dataset.segment("test")
    mask = observed & ~evaluation
    return [
        ImputationRequest(model=model, values=values[s:s + length],
                          observed_mask=mask[s:s + length],
                          num_samples=num_samples, seed=100 + s)
        for s in range(count)
    ]


# ----------------------------------------------------------------------
# Fault injector units
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_noop_when_uninstalled(self):
        assert not faults.enabled()
        faults.inject("pool.worker_crash")          # must not raise
        assert faults.fired("gateway.connection_drop") is False

    def test_hits_schedule_is_exact(self):
        with faults.active([{"point": "service.flush", "hits": [2, 4]}]):
            for invocation in range(1, 6):
                if invocation in (2, 4):
                    with pytest.raises(InjectedFault):
                        faults.inject("service.flush")
                else:
                    faults.inject("service.flush")

    def test_after_window_with_count(self):
        rules = [{"point": "registry.load", "after": 2, "count": 2}]
        with faults.active(rules) as injector:
            fired = 0
            for _ in range(6):
                try:
                    faults.inject("registry.load")
                except InjectedFault:
                    fired += 1
            assert fired == 2                       # invocations 3 and 4 only
            assert injector.fired_by_point["registry.load"] == 2

    def test_probability_is_seed_deterministic(self):
        def outcomes(seed):
            injector = FaultInjector(
                [{"point": "pool.worker_crash", "probability": 0.5}], seed=seed)
            return [injector.decide("pool.worker_crash")[0] is not None
                    for _ in range(32)]

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)
        assert any(outcomes(7)) and not all(outcomes(7))

    def test_custom_error_type(self):
        with faults.active([{"point": "pool.worker_crash", "hits": [1]}]):
            with pytest.raises(WorkerCrashed):
                faults.inject("pool.worker_crash", error=WorkerCrashed)

    def test_sleep_action_stalls_instead_of_raising(self):
        rules = [{"point": "pool.worker_stall", "hits": [1],
                  "action": "sleep", "seconds": 0.05}]
        with faults.active(rules):
            started = time.monotonic()
            faults.inject("pool.worker_stall")      # stalls, no exception
            assert time.monotonic() - started >= 0.04

    def test_install_rejects_unknown_points(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            faults.install([{"point": "nope.not_a_point", "hits": [1]}])
        assert not faults.enabled()

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(point="service.flush", action="explode")
        with pytest.raises(ValueError):
            FaultRule(point="service.flush", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(point="service.flush", hits=[0])

    def test_active_scoping_restores_previous(self):
        outer = faults.install([{"point": "service.flush", "hits": [99]}])
        try:
            with faults.active([{"point": "registry.load", "hits": [1]}]):
                assert faults.current() is not outer
            assert faults.current() is outer
        finally:
            faults.uninstall()

    def test_env_plan_json_and_file(self, tmp_path):
        plan = {"seed": 3, "rules": [{"point": "service.flush", "hits": [1]}]}
        import json

        assert faults.plan_from_env({faults.ENV_PLAN: json.dumps(plan)}) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert faults.plan_from_env({faults.ENV_PLAN: str(path)}) == plan
        assert faults.plan_from_env({}) is None
        installed = faults.install_from_env({faults.ENV_PLAN: json.dumps(plan)})
        try:
            assert installed.seed == 3 and faults.current() is installed
        finally:
            faults.uninstall()

    def test_stats_counts_invocations_and_fires(self):
        with faults.active([{"point": "service.flush", "hits": [1]}],
                           seed=11) as injector:
            with pytest.raises(InjectedFault):
                faults.inject("service.flush")
            faults.inject("service.flush")
            stats = injector.stats()
        assert stats["seed"] == 11
        assert stats["invocations"] == {"service.flush": 2}
        assert stats["fired"] == {"service.flush": 1}


# ----------------------------------------------------------------------
# Resilience primitive units
# ----------------------------------------------------------------------
class TestDeadline:
    def test_after_remaining_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        assert deadline.remaining(clock()) == pytest.approx(0.5)
        assert not deadline.expired(clock())
        clock.advance(0.6)
        assert deadline.expired(clock())
        assert deadline.remaining(clock()) == pytest.approx(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)
        with pytest.raises(ValueError):
            Deadline.after(float("inf"))


class TestRetryPolicy:
    def test_retries_only_configured_types_up_to_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(WorkerCrashed("x"), 1)
        assert policy.should_retry(OSError("x"), 2)
        assert not policy.should_retry(WorkerCrashed("x"), 3)
        assert not policy.should_retry(ValueError("x"), 1)
        assert not policy.should_retry(ServiceOverloaded("x"), 1)

    def test_backoff_is_capped_exponential_with_jitter(self):
        policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=0.3,
                             jitter=0.5)
        rng = np.random.default_rng(0)
        first = policy.backoff_seconds(1, rng)
        assert 0.1 <= first <= 0.15
        deep = policy.backoff_seconds(10, rng)
        assert 0.3 <= deep <= 0.45                  # capped at max * (1+jitter)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def _breaker(self, threshold=3, reset=10.0, probes=1):
        clock = FakeClock()
        policy = CircuitBreakerPolicy(failure_threshold=threshold,
                                      reset_timeout_seconds=reset,
                                      half_open_probes=probes)
        return CircuitBreaker(policy, clock=clock), clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_cycle(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0, probes=1)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.1)
        assert breaker.state == "half_open"
        assert breaker.allow()                      # the single probe
        assert not breaker.allow()                  # probe budget spent
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker(threshold=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_total == 2

    def test_retry_after_counts_down(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)
        error = breaker.reject_error("traffic@1")
        assert isinstance(error, CircuitOpen)
        assert error.retry_after == pytest.approx(6.0)

    def test_breaker_failure_taxonomy(self):
        assert counts_as_breaker_failure(WorkerCrashed("x"))
        assert counts_as_breaker_failure(InjectedFault("x"))
        assert counts_as_breaker_failure(OSError("x"))
        assert not counts_as_breaker_failure(ServiceOverloaded("x"))
        assert not counts_as_breaker_failure(PoolStopped("x"))
        assert not counts_as_breaker_failure(DeadlineExceeded("x"))
        assert not counts_as_breaker_failure(CircuitOpen("x"))


class TestFallbackRouter:
    def test_shapes_and_observed_passthrough(self):
        fallback = FallbackRouter()
        values = np.array([[1.0, np.nan], [2.0, 4.0], [np.nan, 5.0]])
        raw = fallback.impute(values, num_samples=3)
        assert raw.median.shape == (3, 2)
        assert raw.samples.shape == (3, 3, 2)
        observed = np.isfinite(values)
        assert np.array_equal(raw.median[observed], values[observed])
        assert np.isfinite(raw.median).all()
        # Degraded samples carry no posterior spread: all equal the median.
        assert np.array_equal(raw.samples[0], raw.median)
        assert np.array_equal(raw.samples[2], raw.median)
        assert fallback.served == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FallbackRouter().impute(np.zeros((2, 2)), num_samples=0)


class TestErrorTaxonomy:
    def test_status_table_most_specific_first(self):
        assert classify(ServiceOverloaded("x")) == (429, "overloaded")
        assert classify(DeadlineExceeded("x")) == (429, "deadline_exceeded")
        assert classify(CircuitOpen("x")) == (503, "circuit_open")
        assert classify(PoolStopped("x")) == (503, "pool_stopped")
        assert classify(WorkerCrashed("x")) == (500, "worker_crashed")
        assert classify(InjectedFault("x")) == (500, "serving_error")
        assert classify(ValueError("x")) == (500, "internal")

    def test_every_serving_error_is_catchable_as_base(self):
        for error in (ServiceOverloaded("x"), PoolStopped("x"),
                      WorkerCrashed("x"), CircuitOpen("x"),
                      DeadlineExceeded("x"), InjectedFault("x")):
            assert isinstance(error, ServingError)


# ----------------------------------------------------------------------
# Service semantics: deadlines
# ----------------------------------------------------------------------
class TestServiceDeadlines:
    def test_unmeetable_deadline_rejected_at_admission(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(registry, max_delay_seconds=0.05)
        request = _requests(tiny_traffic_dataset, count=1)[0]
        request.deadline = Deadline.after(0.01, clock=service.clock)
        with pytest.raises(DeadlineExceeded):
            service.submit(request)
        assert service.metrics_snapshot()["service.rejections.deadline"] == 1
        assert service.pending() == 0               # no ticket was issued

    def test_meetable_deadline_is_served_bit_identically(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(registry, max_delay_seconds=0.001)
        request = _requests(tiny_traffic_dataset, count=1)[0]
        reference = service.serve(request)
        request.deadline = Deadline.after(300.0, clock=service.clock)
        ticket = service.submit(request)
        service.flush()
        response = ticket.result(timeout=30)
        assert np.array_equal(response.samples, reference.samples)
        assert response.degraded is False

    def test_deadline_expiring_in_queue_rejects_at_flush(
            self, registry, tiny_traffic_dataset):
        clock = FakeClock()
        service = ImputationService(registry, max_delay_seconds=10.0,
                                    clock=clock)
        request = _requests(tiny_traffic_dataset, count=1)[0]
        request.deadline = Deadline.after(11.0, clock=clock)
        ticket = service.submit(request)            # meetable at admission
        clock.advance(60.0)                         # ...but it sat too long
        service.flush()
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=5)
        assert service.metrics_snapshot()["service.deadline.expired"] == 1

    def test_no_headroom_deadline_degrades_with_fallback(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(registry, max_delay_seconds=0.05,
                                    fallback=FallbackRouter())
        request = _requests(tiny_traffic_dataset, count=1)[0]
        request.deadline = Deadline.after(0.01, clock=service.clock)
        response = service.submit(request).result(timeout=5)
        assert response.degraded is True
        observed = request.observed_mask & np.isfinite(request.values)
        assert np.array_equal(response.median[observed],
                              request.values[observed])
        assert service.metrics_snapshot()["service.requests.degraded"] == 1


# ----------------------------------------------------------------------
# Service semantics: retries are bit-identical replays
# ----------------------------------------------------------------------
class TestServiceRetries:
    def test_inline_retry_replays_bit_identically(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(
            registry,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_seconds=0.001,
                                     retry_on=(InjectedFault,)))
        requests = _requests(tiny_traffic_dataset, count=2)
        reference = [service.serve(request) for request in requests]
        with faults.active([{"point": "service.flush", "hits": [1]}]):
            tickets = [service.submit(request) for request in requests]
            service.flush()                         # attempt 1 fails, 2 lands
        for ticket, clean in zip(tickets, reference):
            response = ticket.result(timeout=30)
            assert np.array_equal(response.samples, clean.samples)
            assert np.array_equal(response.median, clean.median)
        assert service.metrics_snapshot()["service.retries"] == 1

    def test_exhausted_retries_fail_tickets_with_the_error(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(
            registry,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_seconds=0.001,
                                     retry_on=(InjectedFault,)))
        request = _requests(tiny_traffic_dataset, count=1)[0]
        with faults.active([{"point": "service.flush", "after": 0}]):
            ticket = service.submit(request)
            with pytest.raises(InjectedFault):
                service.flush()
        with pytest.raises(InjectedFault):
            ticket.result(timeout=5)
        assert service.metrics_snapshot()["service.retries"] == 1      # one retry, then give up

    def test_pool_crash_retry_replays_bit_identically(
            self, registry, tiny_traffic_dataset):
        pool = WorkerPool(num_workers=2)
        service = ImputationService(
            registry, executor=pool,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_seconds=0.001))
        requests = _requests(tiny_traffic_dataset, count=3)
        reference = [service.serve(request) for request in requests]
        with pool:
            with faults.active([{"point": "pool.worker_crash", "hits": [1]}]):
                tickets = [service.submit(request) for request in requests]
                service.flush()
                responses = [ticket.result(timeout=120) for ticket in tickets]
        for response, clean in zip(responses, reference):
            assert np.array_equal(response.samples, clean.samples)
        assert service.metrics_snapshot()["service.retries"] == 1
        assert pool.metrics_snapshot()["pool.batches.crashed"] == 1


# ----------------------------------------------------------------------
# Service semantics: circuit breaker cycle + degraded mode
# ----------------------------------------------------------------------
class TestServiceCircuit:
    def _service(self, registry, clock, **kwargs):
        return ImputationService(
            registry, clock=clock,
            circuit_policy=CircuitBreakerPolicy(failure_threshold=2,
                                                reset_timeout_seconds=30.0),
            **kwargs)

    def _trip(self, service, dataset, failures=2):
        """Fail ``failures`` flushes through an injected flush fault."""
        with faults.active([{"point": "service.flush", "after": 0,
                             "count": failures}]):
            for _ in range(failures):
                ticket = service.submit(_requests(dataset, count=1)[0])
                with pytest.raises(InjectedFault):
                    service.flush()
                with pytest.raises(InjectedFault):
                    ticket.result(timeout=5)

    def test_open_half_open_closed_cycle(self, registry, tiny_traffic_dataset):
        clock = FakeClock()
        service = self._service(registry, clock)
        self._trip(service, tiny_traffic_dataset)
        snapshot = service.circuits()["traffic@1"]
        assert snapshot["state"] == "open"
        assert service.any_circuit_open()
        # Open circuit: rejected at admission, with a retry estimate.
        request = _requests(tiny_traffic_dataset, count=1)[0]
        with pytest.raises(CircuitOpen) as excinfo:
            service.submit(request)
        assert excinfo.value.retry_after == pytest.approx(30.0)
        assert service.metrics_snapshot()["service.rejections.circuit"] == 1
        # After the reset timeout a probe is admitted; success closes.
        clock.advance(31.0)
        assert not service.any_circuit_open()       # half-open, probing
        ticket = service.submit(request)
        service.flush()
        assert ticket.result(timeout=30).median.shape[0] == 10
        assert service.circuits()["traffic@1"]["state"] == "closed"

    def test_open_circuit_degrades_with_fallback(
            self, registry, tiny_traffic_dataset):
        clock = FakeClock()
        service = self._service(registry, clock, fallback=FallbackRouter())
        self._trip(service, tiny_traffic_dataset)
        request = _requests(tiny_traffic_dataset, count=1)[0]
        response = service.submit(request).result(timeout=5)
        assert response.degraded is True
        assert service.metrics_snapshot()["service.requests.degraded"] == 1

    def test_capacity_rejections_do_not_trip_the_breaker(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(
            registry, max_queue_depth=1,
            circuit_policy=CircuitBreakerPolicy(failure_threshold=1))
        requests = _requests(tiny_traffic_dataset, count=3)
        service.submit(requests[0])
        for request in requests[1:]:
            with pytest.raises(ServiceOverloaded):
                service.submit(request)
        assert not service.any_circuit_open()
        service.flush()


# ----------------------------------------------------------------------
# The invariant: every issued ticket resolves under seeded fault schedules
# ----------------------------------------------------------------------
class TestEveryTicketResolves:
    SCHEDULES = [
        # Deterministic burst: the first three worker executions crash.
        {"seed": 0, "rules": [
            {"point": "pool.worker_crash", "hits": [1, 2, 3]},
        ]},
        # Mixed probabilistic chaos: crashes, load failures, stalls.
        {"seed": 7, "rules": [
            {"point": "pool.worker_crash", "probability": 0.3},
            {"point": "backend.load", "probability": 0.25},
            {"point": "pool.worker_stall", "probability": 0.25,
             "action": "sleep", "seconds": 0.02},
        ]},
        # Hostile: everything fails for a while, then recovers.
        {"seed": 13, "rules": [
            {"point": "backend.load", "after": 0, "count": 4},
            {"point": "pool.worker_crash", "hits": [5, 6]},
            {"point": "service.queue_stall", "hits": [2],
             "action": "sleep", "seconds": 0.02},
        ]},
    ]

    @pytest.mark.parametrize("plan", SCHEDULES,
                             ids=[f"seed{p['seed']}" for p in SCHEDULES])
    def test_pool_backed_service_resolves_all_tickets(
            self, registry, tiny_traffic_dataset, plan):
        pool = WorkerPool(num_workers=2)
        service = ImputationService(
            registry, executor=pool, max_batch_requests=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_seconds=0.001,
                                     retry_on=(WorkerCrashed, OSError,
                                               InjectedFault)),
            circuit_policy=CircuitBreakerPolicy(failure_threshold=4,
                                                reset_timeout_seconds=0.05),
            fallback=FallbackRouter())
        requests = _requests(tiny_traffic_dataset, count=8)
        outcomes = {"ok": 0, "degraded": 0}
        with pool:
            with faults.active(plan):
                tickets = []
                for request in requests:
                    try:
                        tickets.append(service.submit(request))
                    except ServingError as error:
                        outcomes[type(error).__name__] = (
                            outcomes.get(type(error).__name__, 0) + 1)
                deadline = time.monotonic() + 120.0
                while service.pending() and time.monotonic() < deadline:
                    try:
                        service.flush()
                    except ServingError:
                        pass                        # tickets carry their error
                    time.sleep(0.005)
                for ticket in tickets:
                    try:
                        response = ticket.result(timeout=120)
                        outcomes["degraded" if response.degraded
                                 else "ok"] += 1
                    except ServingError as error:
                        outcomes[type(error).__name__] = (
                            outcomes.get(type(error).__name__, 0) + 1)
        # Every issued request is accounted for: response, degraded response,
        # or typed error — nothing hung (result() would have raised
        # TimeoutError, which is not a ServingError and would fail the test).
        assert sum(outcomes.values()) == len(requests)
        assert service.pending() == 0
        assert pool.backlog() == 0

    def test_disabled_injector_is_bit_identical_to_clean_run(
            self, registry, tiny_traffic_dataset):
        """With no plan installed, a service wired with the full resilience
        stack serves the same bits as a bare one (defaults-off contract)."""
        bare = ImputationService(registry)
        wired = ImputationService(
            registry,
            retry_policy=RetryPolicy(),
            circuit_policy=CircuitBreakerPolicy(),
            fallback=FallbackRouter())
        requests = _requests(tiny_traffic_dataset, count=3)
        for request in requests:
            clean = bare.serve(request)
            response = wired.serve(request)
            assert np.array_equal(response.samples, clean.samples)
            assert np.array_equal(response.median, clean.median)
            assert response.degraded is False

    def test_registry_load_fault_is_typed_and_counts_toward_breaker(
            self, registry, tiny_traffic_dataset):
        service = ImputationService(
            registry,
            circuit_policy=CircuitBreakerPolicy(failure_threshold=1))
        request = _requests(tiny_traffic_dataset, count=1)[0]
        with faults.active([{"point": "registry.load", "hits": [1]}]):
            ticket = service.submit(request)
            with pytest.raises(InjectedFault):
                service.flush()
            with pytest.raises(InjectedFault):
                ticket.result(timeout=5)
        assert service.circuits()["traffic@1"]["state"] == "open"
        with pytest.raises(CircuitOpen):
            service.submit(request)


class TestWorkerStall:
    def test_stall_delays_but_does_not_fail(self, registry,
                                            tiny_traffic_dataset):
        pool = WorkerPool(num_workers=1)
        service = ImputationService(registry, executor=pool)
        request = _requests(tiny_traffic_dataset, count=1)[0]
        reference = service.serve(request)
        with pool:
            with faults.active([{"point": "pool.worker_stall", "hits": [1],
                                 "action": "sleep", "seconds": 0.05}]):
                ticket = service.submit(request)
                service.flush()
                response = ticket.result(timeout=120)
        assert np.array_equal(response.samples, reference.samples)
        assert pool.metrics_snapshot()["pool.batches.crashed"] == 0
