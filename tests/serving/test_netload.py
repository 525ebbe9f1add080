"""Tests for the multi-process open-loop network load generator."""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.serving import (
    GatewayConfig,
    GatewayThread,
    LoadMix,
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    NetLoadConfig,
    fetch_json,
    netload,
    run_netload,
    wait_for_gateway,
)

K = 5


@pytest.fixture()
def gateway(serving_bundle):
    service = MatchingService(
        ModelStore(serving_bundle),
        MatchingServiceConfig(default_k=K, cache_size=0),
    )
    config = GatewayConfig(port=0, max_batch=8, default_k=K)
    with GatewayThread(service, config) as gw:
        yield gw


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestControlPlane:
    def test_fetch_json_healthz(self, gateway):
        body = fetch_json("127.0.0.1", gateway.port, "/healthz")
        assert body["status"] == "ok"

    def test_fetch_json_rejects_error_status(self, gateway):
        with pytest.raises(ValueError, match="404"):
            fetch_json("127.0.0.1", gateway.port, "/nope")

    def test_wait_for_gateway_returns_health(self, gateway):
        body = wait_for_gateway("127.0.0.1", gateway.port, timeout_s=5.0)
        assert body["store_version"] == 0

    def test_wait_for_gateway_times_out_on_dead_port(self):
        with pytest.raises(TimeoutError, match="not healthy"):
            wait_for_gateway("127.0.0.1", _free_port(), timeout_s=0.3)


class TestRunNetload:
    def test_single_process_report(self, gateway, tiny_split):
        train, _ = tiny_split
        report = run_netload(
            train,
            NetLoadConfig(
                port=gateway.port,
                n_requests=80,
                rate=2000.0,
                n_processes=1,
                connections=4,
                k=K,
            ),
            seed=0,
        )
        assert report["n_requests"] == 80
        assert report["errors"] == 0
        assert report["ok"] + report["shed"] == 80
        assert report["shed"] == 0  # default high water is far away
        assert report["qps"] > 0
        assert report["processes"] == 1
        assert set(report["latency_s"]) == {"p50", "p95", "p99"}
        assert report["latency_s"]["p50"] <= report["latency_s"]["p99"]
        assert report["late_p99_ms"] >= 0.0
        # The server-side view rides along: every request was admitted
        # through the coalescer.
        counters = report["gateway"]["counters"]
        assert counters["gateway_requests"] == 80
        assert counters["gateway_coalesced_requests"] == 80
        assert 1 <= counters["gateway_coalesced_batches"] <= 80

    def test_multi_process_workers(self, gateway, tiny_split):
        train, _ = tiny_split
        report = run_netload(
            train,
            NetLoadConfig(
                port=gateway.port,
                n_requests=60,
                rate=2000.0,
                n_processes=2,
                connections=4,
                k=K,
            ),
            mix=LoadMix(0.5, 0.2, 0.2, 0.1),
            seed=1,
        )
        assert report["processes"] == 2
        assert report["errors"] == 0
        assert report["ok"] == 60

    def test_replays_explicit_payloads(self, gateway, tiny_split):
        train, _ = tiny_split
        report = run_netload(
            train,
            NetLoadConfig(
                port=gateway.port,
                n_requests=10,  # ignored when payloads are given
                rate=1000.0,
                n_processes=1,
                connections=2,
            ),
            payloads=[{"item_id": 0, "k": 3}] * 20,
        )
        assert report["n_requests"] == 20
        assert report["ok"] == 20
        assert report["errors"] == 0

    def test_late_wakeup_is_charged_to_the_request(self, gateway, monkeypatch):
        """Regression: the clock started after the sleep that waits for the
        due time, so a stalled generator under-reported latency."""
        stall_s, due_s = 0.4, 0.15
        open_connection = netload._open_connection

        async def open_then_stall(host, port):
            conn = await open_connection(host, port)
            # Block the client's event loop across the scheduled arrival.
            asyncio.get_running_loop().call_later(0.01, time.sleep, stall_s)
            return conn

        monkeypatch.setattr(netload, "_open_connection", open_then_stall)
        outcome = asyncio.run(
            netload._drive(
                "127.0.0.1", gateway.port, [{"item_id": 0}], [due_s], 1, 10.0
            )
        )
        # Woken at ~0.41 s for an arrival due at 0.15 s.
        assert outcome["errors"] == 0
        assert outcome["lateness"][0] > 0.2
        assert outcome["ok_latencies"][0] > outcome["lateness"][0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetLoadConfig(n_requests=0).validate()
        with pytest.raises(ValueError):
            NetLoadConfig(rate=0.0).validate()
        with pytest.raises(ValueError):
            NetLoadConfig(port=0).validate()
