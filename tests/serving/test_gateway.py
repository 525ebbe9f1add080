"""Tests for the network serving gateway (HTTP edge + request coalescing).

The load-bearing contract: coalescing is an execution strategy, not a
semantic change — concurrent single ``/recommend`` calls through the
gateway must return byte-identical (ids, scores) answers to direct
``MatchingService.recommend`` calls, including while a hot swap lands
mid-traffic.  Caches are off on both sides so every comparison hits the
compute path.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serving import (
    TIERS,
    GatewayConfig,
    GatewayThread,
    LoadMix,
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    request_to_payload,
    synth_requests,
)
from repro.serving.gateway import result_to_payload
from repro.serving.service import MatchResult

K = 5


def _call(port, method, path, payload=None, timeout=30.0):
    """One blocking HTTP round trip; returns (status, parsed body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _no_cache_service(bundle):
    return MatchingService(
        ModelStore(bundle), MatchingServiceConfig(default_k=K, cache_size=0)
    )


@pytest.fixture()
def direct(serving_bundle):
    """The ground truth: the same bundle answered without a network."""
    return _no_cache_service(serving_bundle)


@pytest.fixture()
def gateway(serving_bundle):
    service = _no_cache_service(serving_bundle)
    config = GatewayConfig(port=0, max_batch=8, default_k=K)
    with GatewayThread(service, config) as gw:
        yield gw


def _wait_for_counter(metrics, name: str, value: int) -> None:
    """Block until ``metrics.counter(name)`` reaches ``value`` (or fail)."""
    deadline = time.monotonic() + 20.0
    while metrics.counter(name) < value and time.monotonic() < deadline:
        time.sleep(0.005)
    assert metrics.counter(name) >= value, f"{name} never reached {value}"


@contextlib.contextmanager
def _plugged(gw):
    """Hold the swap gate exclusive with one request parked behind it.

    Inside the block every executor slot of a one-thread gateway is
    taken by that "plug" request (dispatched, blocked on the gate), so
    later arrivals can only queue.  Leaving the block releases the gate;
    the plug was dispatched fresh and is merely slow, so it is served.
    """
    metrics = gw.gateway.service.metrics
    gate_held = threading.Event()
    release = threading.Event()

    def blocker():
        gate_held.set()
        assert release.wait(30.0)

    holder = threading.Thread(target=gw.swap_gate, args=(blocker,))
    holder.start()
    with ThreadPoolExecutor(max_workers=1) as pool:
        try:
            assert gate_held.wait(10.0)
            plug = pool.submit(_call, gw.port, "POST", "/recommend", {"item_id": 0})
            _wait_for_counter(metrics, "gateway_coalesced_batches", 1)
            yield
        finally:
            release.set()
            holder.join(timeout=30.0)
        assert plug.result(timeout=30.0)[0] == 200


def _assert_identical(payload: dict, expected) -> None:
    """Wire answer == in-process answer, down to the exact float values."""
    assert payload["items"] == [int(item) for item in expected.items]
    assert payload["scores"] == [float(score) for score in expected.scores]
    assert payload["tier"] == expected.tier


class TestResultPayload:
    """`ndarray.tolist()` must encode to the bytes the per-element form did."""

    @pytest.mark.parametrize(
        "items, scores, version",
        [
            (np.array([7, 0, 2**40]), np.array([0.1, 1 / 3, 1e-30], np.float32), 3),
            (np.array([7, 0, 2**40]), np.array([0.1, 1 / 3, np.pi], np.float64), 3),
            (np.array([5, 6], np.int32), np.array([0.5, np.nan], np.float32), (2, 1)),
            (np.empty(0, np.int64), np.empty(0, np.float32), [4, 4]),
        ],
    )
    def test_json_bytes_equal_elementwise_form(self, items, scores, version):
        result = MatchResult(items, scores, "ann", version, False, 0.25)
        payload = result_to_payload(result)
        assert all(type(i) is int for i in payload["items"])
        assert all(type(x) is float for x in payload["scores"])
        elementwise = {
            "items": [int(item) for item in items],
            "scores": [float(score) for score in scores],
            "tier": "ann",
            "version": list(version) if isinstance(version, (tuple, list)) else version,
            "cached": False,
            "latency_s": 0.25,
        }
        assert json.dumps(payload) == json.dumps(elementwise)


class TestEndpoints:
    def test_healthz(self, gateway):
        status, body = _call(gateway.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["store_version"] == 0
        assert body["uptime_s"] >= 0.0

    @pytest.mark.parametrize("step", [3600.0, -3600.0])
    def test_uptime_survives_wall_clock_steps(self, gateway, monkeypatch, step):
        """Regression: ``uptime_s`` subtracted ``time.time()`` readings,
        so an NTP step reported an hour of uptime — or a negative one."""
        import repro.serving.gateway as gateway_module

        real = time.time
        monkeypatch.setattr(gateway_module.time, "time", lambda: real() + step)
        _status, health = _call(gateway.port, "GET", "/healthz")
        _status, metrics = _call(gateway.port, "GET", "/metrics")
        for uptime in (health["uptime_s"], metrics["gateway"]["uptime_s"]):
            assert 0.0 <= uptime < 600.0

    def test_metrics_shape(self, gateway):
        _call(gateway.port, "GET", "/recommend?item_id=0")
        status, body = _call(gateway.port, "GET", "/metrics")
        assert status == 200  # json.loads in _call already proved JSON-strict
        assert body["counters"]["gateway_requests"] == 1
        edge = body["gateway"]
        assert edge["max_batch"] == 8
        assert edge["queue_depth"] == 0
        assert "gateway" in body["tiers"]  # end-to-end latency histogram

    def test_get_recommend_matches_direct(self, gateway, direct):
        status, body = _call(gateway.port, "GET", f"/recommend?item_id=3&k={K}")
        assert status == 200
        from repro.serving import MatchRequest

        _assert_identical(body, direct.recommend(MatchRequest(item_id=3), K))
        assert body["tier"] in TIERS
        assert body["version"] == 0
        assert body["cached"] is False

    def test_post_recommend_every_kind(self, gateway, direct, tiny_split):
        train, _ = tiny_split
        requests = synth_requests(
            train, 12, mix=LoadMix(0.25, 0.25, 0.25, 0.25), seed=7
        )
        for request in requests:
            payload = {**request_to_payload(request), "k": K}
            status, body = _call(gateway.port, "POST", "/recommend", payload)
            assert status == 200
            _assert_identical(body, direct.recommend(request, K))

    def test_default_k_applies(self, gateway):
        status, body = _call(gateway.port, "POST", "/recommend", {"item_id": 0})
        assert status == 200
        assert len(body["items"]) == K

    def test_recommend_batch_matches_direct(self, gateway, direct, tiny_split):
        train, _ = tiny_split
        requests = synth_requests(train, 6, seed=3)
        payload = {
            "requests": [request_to_payload(r) for r in requests],
            "k": K,
        }
        status, body = _call(gateway.port, "POST", "/recommend_batch", payload)
        assert status == 200
        expected = direct.recommend_batch(requests, K)
        assert len(body["results"]) == len(expected)
        for entry, answer in zip(body["results"], expected):
            _assert_identical(entry, answer)
        assert body["latency_s"] > 0.0

    def test_recommend_batch_honors_per_entry_k(self, gateway, direct):
        """Regression: per-entry ``k`` used to be validated then silently
        dropped — every entry got the batch-level (or default) ``k``."""
        from repro.serving import MatchRequest

        payload = {
            "requests": [
                {"item_id": 3, "k": 2},
                {"item_id": 9},  # falls back to the batch-level k
                {"item_id": 3, "k": 7},
            ],
            "k": 4,
        }
        status, body = _call(gateway.port, "POST", "/recommend_batch", payload)
        assert status == 200
        for entry, (item, k) in zip(body["results"], [(3, 2), (9, 4), (3, 7)]):
            assert len(entry["items"]) == k
            _assert_identical(entry, direct.recommend(MatchRequest(item_id=item), k))


class TestErrorPaths:
    def test_unknown_endpoint_404(self, gateway):
        status, body = _call(gateway.port, "GET", "/nope")
        assert status == 404
        assert "error" in body

    def test_wrong_method_405(self, gateway):
        assert _call(gateway.port, "POST", "/healthz", {})[0] == 405
        assert _call(gateway.port, "GET", "/recommend_batch")[0] == 405

    def test_invalid_json_400(self, gateway):
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request(
                "POST", "/recommend", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "invalid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_400(self, gateway, length):
        """Regression: a non-numeric or negative ``Content-Length`` raised a
        bare ``ValueError`` — no response, connection dropped, and an
        unhandled-task traceback."""
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            sock.sendall(
                f"POST /recommend HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            while chunk := sock.recv(4096):  # the gateway answers, then closes
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert _call(gateway.port, "GET", "/healthz")[0] == 200

    def test_unknown_field_400(self, gateway):
        status, body = _call(
            gateway.port, "POST", "/recommend", {"item_id": 0, "bogus": 1}
        )
        assert status == 400
        assert "bogus" in body["error"]

    def test_unknown_query_param_400(self, gateway):
        status, body = _call(gateway.port, "GET", "/recommend?item_id=0&junk=1")
        assert status == 400
        assert "junk" in body["error"]

    def test_nonpositive_k_400(self, gateway):
        status, _ = _call(gateway.port, "POST", "/recommend", {"item_id": 0, "k": 0})
        assert status == 400

    def test_empty_batch_400(self, gateway):
        status, _ = _call(gateway.port, "POST", "/recommend_batch", {"requests": []})
        assert status == 400

    def test_port_conflict_surfaces_at_start(self, gateway, serving_bundle):
        rival = GatewayThread(
            _no_cache_service(serving_bundle),
            GatewayConfig(port=gateway.port),
        )
        with pytest.raises(RuntimeError, match="startup failed"):
            rival.start(timeout=5.0)


class TestCoalescing:
    def test_lone_request_is_a_batch_of_one(self, gateway):
        """Nothing to wait for: an idle gateway dispatches at once."""
        status, _ = _call(gateway.port, "POST", "/recommend", {"item_id": 3})
        metrics = gateway.gateway.service.metrics
        assert status == 200
        assert metrics.counter("gateway_coalesced_batches") == 1
        assert metrics.counter("gateway_coalesced_requests") == 1

    def test_concurrent_singles_identical_to_direct(
        self, serving_bundle, direct, tiny_split
    ):
        """The tentpole contract: coalesced answers == direct answers."""
        train, _ = tiny_split
        requests = synth_requests(train, 48, seed=11)
        expected = [direct.recommend(request, K) for request in requests]

        config = GatewayConfig(port=0, max_batch=16, default_k=K)
        with GatewayThread(_no_cache_service(serving_bundle), config) as gw:
            with ThreadPoolExecutor(max_workers=16) as pool:
                responses = list(
                    pool.map(
                        lambda request: _call(
                            gw.port,
                            "POST",
                            "/recommend",
                            {**request_to_payload(request), "k": K},
                        ),
                        requests,
                    )
                )
            metrics = gw.gateway.service.metrics

        for (status, body), answer in zip(responses, expected):
            assert status == 200
            _assert_identical(body, answer)
        assert metrics.counter("gateway_coalesced_requests") == len(requests)

    def test_backlog_leaves_in_full_batches(self, serving_bundle, direct, tiny_split):
        """Batch size follows load: N requests that queued while the only
        slot was busy come out as exactly ceil(N / max_batch) batches."""
        train, _ = tiny_split
        requests = synth_requests(train, 20, seed=13)
        expected = [direct.recommend(request, K) for request in requests]

        config = GatewayConfig(
            port=0, max_batch=8, executor_threads=1, latency_budget_ms=None,
            default_k=K,
        )
        with GatewayThread(_no_cache_service(serving_bundle), config) as gw:
            metrics = gw.gateway.service.metrics
            with ThreadPoolExecutor(max_workers=len(requests)) as pool:
                with _plugged(gw):
                    futures = [
                        pool.submit(
                            _call,
                            gw.port,
                            "POST",
                            "/recommend",
                            {**request_to_payload(request), "k": K},
                        )
                        for request in requests
                    ]
                    _wait_for_counter(metrics, "gateway_requests", 1 + len(requests))
                    # The plug was dispatched alone; everything else waits.
                    assert metrics.counter("gateway_coalesced_batches") == 1
                responses = [future.result(timeout=30.0) for future in futures]

        for (status, body), answer in zip(responses, expected):
            assert status == 200
            _assert_identical(body, answer)
        assert metrics.counter("gateway_coalesced_requests") == 1 + len(requests)
        assert metrics.counter("gateway_coalesced_batches") == 1 + 3  # ceil(20 / 8)

    def test_mixed_k_traffic_coalesces_correctly(self, serving_bundle, direct):
        from repro.serving import MatchRequest

        jobs = [(item, 3 if item % 2 else 7) for item in range(20)]
        config = GatewayConfig(port=0, max_batch=16, default_k=K)
        with GatewayThread(_no_cache_service(serving_bundle), config) as gw:
            with ThreadPoolExecutor(max_workers=10) as pool:
                responses = list(
                    pool.map(
                        lambda job: _call(
                            gw.port,
                            "POST",
                            "/recommend",
                            {"item_id": job[0], "k": job[1]},
                        ),
                        jobs,
                    )
                )
        for (status, body), (item, k) in zip(responses, jobs):
            assert status == 200
            assert len(body["items"]) == k
            _assert_identical(body, direct.recommend(MatchRequest(item_id=item), k))


class TestHotSwap:
    def test_swap_mid_traffic_never_breaks_answers(
        self, serving_bundle, direct, tiny_split
    ):
        """A promotion through the swap gate overlaps live traffic; every
        response must still be byte-identical to the direct answer."""
        train, _ = tiny_split
        requests = synth_requests(train, 40, mix=LoadMix(1, 0, 0, 0), seed=5)
        expected = [direct.recommend(request, K) for request in requests]

        store = ModelStore(serving_bundle)
        service = MatchingService(
            store, MatchingServiceConfig(default_k=K, cache_size=0)
        )
        config = GatewayConfig(port=0, max_batch=8, default_k=K)
        with GatewayThread(service, config) as gw:

            def shoot(request):
                return _call(
                    gw.port,
                    "POST",
                    "/recommend",
                    {**request_to_payload(request), "k": K},
                )

            with ThreadPoolExecutor(max_workers=12) as pool:
                futures = [pool.submit(shoot, r) for r in requests]
                # Promote the same bundle while requests are in flight:
                # answers stay identical, the version counter proves the
                # swap really happened mid-run.
                gw.swap_gate(lambda: store.swap(serving_bundle))
                responses = [f.result() for f in futures]

            metrics = gw.gateway.service.metrics
            # The gate released with traffic still flowing: a follow-up
            # request serves the promoted generation.
            status, after = _call(gw.port, "GET", "/recommend?item_id=0")
            assert status == 200
            assert after["version"] == 1

        versions = set()
        for (status, body), answer in zip(responses, expected):
            assert status == 200
            _assert_identical(body, answer)
            versions.add(body["version"])
        assert versions <= {0, 1}
        assert store.version == 1
        assert metrics.counter("gateway_swap_gates") == 1


class TestLoadShedding:
    def test_queue_past_high_water_sheds_429(self, serving_bundle):
        """Admission counts what is actually waiting: with the one slot
        busy nothing leaves the queue, so a burst of N against a high
        water of H admits exactly H and sheds exactly N - H."""
        n_burst, high_water = 24, 4
        config = GatewayConfig(
            port=0,
            max_batch=4,
            queue_high_water=high_water,
            latency_budget_ms=None,
            executor_threads=1,
            default_k=K,
        )
        with GatewayThread(_no_cache_service(serving_bundle), config) as gw:
            metrics = gw.gateway.service.metrics
            with ThreadPoolExecutor(max_workers=n_burst) as pool:
                with _plugged(gw):
                    futures = [
                        pool.submit(
                            _call, gw.port, "POST", "/recommend", {"item_id": 0}
                        )
                        for _ in range(n_burst)
                    ]
                    # Admitted requests cannot answer until the gate drops
                    # (the admission counter bumps before any queueing).
                    _wait_for_counter(metrics, "gateway_requests", 1 + n_burst)
                statuses = [future.result(timeout=30.0)[0] for future in futures]

        assert statuses.count(200) == high_water
        assert statuses.count(429) == n_burst - high_water
        assert metrics.counter("gateway_shed_queue_full") == n_burst - high_water
        assert metrics.counter("gateway_shed") == n_burst - high_water

    def test_latency_budget_expiry_sheds_429(self, serving_bundle):
        """Expiry is judged when a slot frees up: a request that aged past
        its budget behind a held gate is shed, not served late."""
        config = GatewayConfig(
            port=0, max_batch=8, latency_budget_ms=50.0, executor_threads=1,
            default_k=K,
        )
        with GatewayThread(_no_cache_service(serving_bundle), config) as gw:
            metrics = gw.gateway.service.metrics
            with ThreadPoolExecutor(max_workers=1) as pool:
                with _plugged(gw):
                    future = pool.submit(
                        _call, gw.port, "POST", "/recommend", {"item_id": 1}
                    )
                    _wait_for_counter(metrics, "gateway_requests", 2)
                    time.sleep(0.25)  # let it age well past the 50 ms budget
                status, body = future.result(timeout=30.0)

        assert status == 429
        assert "latency budget" in body["error"]
        assert metrics.counter("gateway_shed_expired") == 1
        assert metrics.counter("gateway_shed") == 1
