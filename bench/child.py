"""The gateway under test, in a process of its own.

The load generator and the gateway must not share an interpreter: a
shared GIL halves the measured throughput.  The runner spawns this
module's ``main`` with the trained model and the datasets, and drives it
over a pipe:

====================  =====================================================
command               reply
====================  =====================================================
(start-up)            ``("ready", {port, t_entered, t_built, t_listening, speed})``
``("refresh",d1,n)``  ``n`` day-1 ``RefreshDaemon.run_once()`` cycles under the gate
``("stream_init",d)`` builds the ``StreamApplier`` over dataset ``d``
``("window", evs)``   appends one window, ``run_pending()``, the reports
``("answers", ...)``  in-process answers to request bodies (the reference
                      the wire answers are compared with)
``("spans",)``        spans recorded in this process, gate waits
``("stop",)``         stops the gateway and exits
====================  =====================================================

Replies to ``refresh`` and ``window`` carry ``speed``: host-speed samples
(``bench.hostspeed``) taken on this process's core right before and right
after the work.

In a traced run the gateway is handed a delegating proxy that records a
span around ``recommend`` / ``recommend_batch``, and the promote gate is
wrapped to time how long a flip waits for in-flight batches.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass

from bench.hostspeed import Calibrator
from bench.trace import Tracer, now
from bench.workloads import K


@dataclass
class ChildConfig:
    """What the child needs to stand the stack up (all picklable)."""

    model: object  # EmbeddingModel
    dataset: object  # BehaviorDataset the day-0 model was trained on
    shards: int
    cache: bool
    table_coverage: float
    train_config: object  # SGNSConfig for the day-1 warm start
    traced: bool
    #: Core the gateway is pinned to, or ``None`` to leave it unpinned.
    cpu: "int | None" = None


class ServiceProxy:
    """Delegates to the service; times the two calls the gateway makes."""

    def __init__(self, service, tracer: Tracer) -> None:
        self._service = service
        self._tracer = tracer

    def recommend(self, request, k=None):
        with self._tracer.span("service.call") as span:
            span["n"] = 1
            return self._service.recommend(request, k)

    def recommend_batch(self, requests, k=None):
        with self._tracer.span("service.call") as span:
            span["n"] = len(requests)
            return self._service.recommend_batch(requests, k)

    def __getattr__(self, name):
        return getattr(self._service, name)


def _build_service(config: ChildConfig):
    """Bundle build + store + service, unsharded or HBGP-sharded."""
    from repro.serving import MatchingService, MatchingServiceConfig, ModelStore
    from repro.serving import store as store_module

    service_config = MatchingServiceConfig(
        **({} if config.cache else {"cache_size": 0})
    )
    if config.shards >= 2:
        from repro.graph import HBGPConfig
        from repro.graph import hbgp as hbgp_module
        from repro.serving import ShardedMatchingService, ShardedModelStore

        partition = hbgp_module.hbgp_partition(
            config.dataset, HBGPConfig(n_partitions=config.shards)
        )
        store = ShardedModelStore.build(
            config.model, config.dataset, partition, table_coverage=config.table_coverage
        )
        return ShardedMatchingService(store, service_config)
    bundle = store_module.build_bundle(
        config.model, config.dataset, table_coverage=config.table_coverage
    )
    return MatchingService(ModelStore(bundle), service_config)


def _answers(service, path: str, bodies: list[bytes]) -> list[dict]:
    """What the wire must say: ``result_to_payload`` of the direct call."""
    from repro.serving.gateway import request_from_payload, result_to_payload

    out = []
    for body in bodies:
        payload = json.loads(body)
        if path == "/recommend":
            result = service.recommend(request_from_payload(payload), payload.get("k", K))
            out.append(result_to_payload(result))
        else:
            requests = [request_from_payload(entry) for entry in payload["requests"]]
            results = service.recommend_batch(requests, payload.get("k", K))
            out.append({"results": [result_to_payload(r) for r in results]})
    return out


def main(conn, config: ChildConfig) -> None:
    """Child entry point: stand the stack up, then serve pipe commands."""
    t_entered = now()
    if config.cpu is not None:
        os.sched_setaffinity(0, {config.cpu})
    tracer = Tracer()
    calibrator = Calibrator()
    gateway = None
    service = None
    try:
        from repro.serving import GatewayConfig, GatewayThread, RefreshConfig, RefreshDaemon
        from repro.streaming import EventLog, StreamApplier, StreamConfig

        if config.traced:
            tracer.install()
        with tracer.span("child.build_service", op_id="publish"):
            service = _build_service(config)
        t_built = now()
        edge = ServiceProxy(service, tracer) if config.traced else service
        gateway = GatewayThread(edge, GatewayConfig(port=0)).start()
        gate_waits: list[float] = []

        def promote_gate(flip):
            asked = now()

            def timed_flip():
                gate_waits.append(now() - asked)
                with tracer.span("gateway.flip"):
                    return flip()

            return gateway.swap_gate(timed_flip)

        conn.send(
            ("ready", {"port": gateway.port, "t_entered": t_entered, "t_built": t_built,
                       "t_listening": now(), "speed": calibrator.sample()})
        )

        build_kwargs = {"table_coverage": config.table_coverage}
        applier = None
        log = None
        while True:
            command, *args = conn.recv()
            if command == "stop":
                break
            if command == "refresh":
                day1, cycles = args
                daemon = RefreshDaemon(
                    service,
                    lambda _cycle: day1,
                    RefreshConfig(train_config=config.train_config, build_kwargs=build_kwargs),
                    promote_gate=promote_gate,
                )
                done = []
                speed = calibrator.sample()
                for _ in range(cycles):
                    start = now()
                    with tracer.span("refresh.run_once", op_id="refresh"):
                        report = daemon.run_once()
                    end = now()
                    before, speed = speed, calibrator.sample()
                    done.append({"report": report.as_dict(), "start": start, "end": end,
                                 "speed": [before, speed]})
                conn.send(("refreshed", done))
            elif command == "stream_init":
                (dataset,) = args
                log = EventLog()
                applier = StreamApplier(
                    service, log, dataset, StreamConfig(build_kwargs=build_kwargs),
                    promote_gate=promote_gate,
                )
                conn.send(("stream_ready", None))
            elif command == "window":
                index, events = args
                before = calibrator.sample()
                start = now()
                log.extend(events)
                appended = now()
                with tracer.span("applier.run_pending", op_id=f"window-{index}"):
                    reports = applier.run_pending()
                end = now()
                conn.send(
                    ("applied", {"reports": [r.as_dict() for r in reports],
                                 "start": start, "appended": appended, "end": end,
                                 "n_events": len(events),
                                 "speed": [before, calibrator.sample()]})
                )
            elif command == "answers":
                path, bodies = args
                conn.send(("answers", _answers(service, path, bodies)))
            elif command == "spans":
                conn.send(("spans", {"spans": tracer.finished(), "gate_waits": gate_waits}))
            else:
                raise ValueError(f"unknown command {command!r}")
    except EOFError:
        pass  # the parent went away; fall through to shutdown
    except Exception:  # noqa: BLE001 - report to the parent, then exit non-zero
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
        raise
    finally:
        if gateway is not None:
            gateway.stop()
        if service is not None and hasattr(service, "close"):
            service.close()
        tracer.uninstall()
        conn.close()
