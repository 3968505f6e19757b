"""End-to-end tests for the scenario server.

A real ScenarioServer on an ephemeral port, a real ScenarioClient over
HTTP, real spawn-context workers.  The load-bearing assertions are the
acceptance criteria of the subsystem: two identical POSTs return
byte-identical bodies with the second served from the cache (no second
simulation), and /healthz answers while a scenario run is in flight.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.server import ScenarioClient, ScenarioServer
from repro.server.handlers import IDLE_TIMEOUT_SECONDS, ScenarioRequestHandler

#: rounds= sizes for the synthetic workload: SMALL finishes in
#: milliseconds, SLOW takes a second or two on this hardware -- long
#: enough to observe in-flight behavior (the tests below sleep up to
#: 0.5 s before probing it), short enough for CI.
SMALL = 4
SLOW = 6000


def _workload_doc(seed, rounds=SMALL):
    return {"workload": "synthetic", "processes": 2, "seed": seed,
            "params": {"rounds": rounds}}


@pytest.fixture(scope="module")
def server():
    with ScenarioServer(port=0, jobs=1, request_timeout=120.0,
                        max_pending=16) as live:
        yield live


@pytest.fixture(scope="module")
def client(server):
    live = ScenarioClient(server.base_url, timeout=300.0)
    assert live.wait_ready()
    return live


# ----------------------------------------------------------------------
# the core contract: miss -> hit, byte-identical, no second simulation
# ----------------------------------------------------------------------

def test_identical_posts_hit_the_cache_byte_identically(server, client):
    doc = _workload_doc(seed=31)
    before = client.metrics()["scenario"]

    first = client.scenario(doc)
    assert first.status == 200
    assert first.cache_status == "miss"
    assert first.body.endswith(b"\n")

    second = client.scenario(doc)
    assert second.status == 200
    assert second.cache_status == "hit"
    assert second.body == first.body

    after = client.metrics()["scenario"]
    assert after["cache_hits"] == before["cache_hits"] + 1
    assert after["runs_executed"] == before["runs_executed"] + 1  # one, not two
    result = second.json["result"]
    assert result["completed"] is True
    assert result["verified"] is True


def test_different_seed_is_a_different_scenario(client):
    a = client.scenario(_workload_doc(seed=41))
    b = client.scenario(_workload_doc(seed=42))
    assert a.cache_status == b.cache_status == "miss"
    assert a.body != b.body


def test_experiment_scenario_round_trip(client):
    doc = {"kind": "experiment", "experiment": "E1-figure1", "quick": True}
    first = client.scenario(doc)
    assert first.status == 200, first.body
    assert first.cache_status == "miss"
    assert first.json["result"]["claim_holds"] is True
    second = client.scenario(doc)
    assert second.cache_status == "hit"
    assert second.body == first.body


# ----------------------------------------------------------------------
# liveness and coalescing while a run is in flight
# ----------------------------------------------------------------------

def test_healthz_responsive_during_inflight_run(client):
    replies = []
    runner = threading.Thread(
        target=lambda: replies.append(
            client.scenario(_workload_doc(seed=66, rounds=SLOW))))
    runner.start()
    try:
        time.sleep(0.3)  # let the POST reach a worker
        for _ in range(5):
            t0 = time.monotonic()
            health = client.health()
            elapsed = time.monotonic() - t0
            assert health["status"] == "ok"
            assert elapsed < 2.0, f"healthz took {elapsed:.2f}s mid-run"
            time.sleep(0.1)
    finally:
        runner.join(timeout=120.0)
    assert replies and replies[0].status == 200


def test_concurrent_identical_requests_coalesce(server, client):
    doc = _workload_doc(seed=55, rounds=SLOW)
    before = client.metrics()["scenario"]
    replies = [None, None]

    def post(slot):
        replies[slot] = client.scenario(doc)

    threads = [threading.Thread(target=post, args=(i,)) for i in range(2)]
    threads[0].start()
    time.sleep(0.4)  # let the leader register its in-flight computation
    threads[1].start()
    for thread in threads:
        thread.join(timeout=180.0)

    assert all(r is not None and r.status == 200 for r in replies)
    assert replies[0].body == replies[1].body
    statuses = sorted(r.cache_status for r in replies)
    assert statuses == ["coalesced", "miss"]
    after = client.metrics()["scenario"]
    assert after["runs_executed"] == before["runs_executed"] + 1
    assert after["coalesced_hits"] == before["coalesced_hits"] + 1


# ----------------------------------------------------------------------
# error surfaces
# ----------------------------------------------------------------------

def test_invalid_scenario_answers_400_naming_choices(client):
    reply = client.scenario({"workload": "nope"})
    assert reply.status == 400
    assert "unknown workload" in reply.json["error"]
    assert "synthetic" in reply.json["error"]  # names the valid choices
    assert client.metrics()["scenario"]["validation_errors"] >= 1


def test_non_object_body_answers_400(server):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        server.base_url + "/scenario", data=b"[1,2,3]", method="POST",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=10.0)
    assert caught.value.code == 400


def test_unknown_path_answers_404(server, client):
    import urllib.error
    import urllib.request

    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(server.base_url + "/nope", timeout=10.0)
    assert caught.value.code == 404


def test_version_and_registry_documents(server, client):
    version = client.version()
    assert version["code_version"] == server.code_version
    assert version["package"]
    registry = client.registry()
    assert "synthetic" in registry["workloads"]
    assert "disom" in registry["baselines"]
    assert "E1-figure1" in registry["experiments"]
    assert registry["consistency_models"] == ["entry", "sequential"]


def test_metrics_document_shape(client):
    metrics = client.metrics()
    assert metrics["requests"]["total"] >= 1
    assert "/scenario" in metrics["requests"]["by_path"]
    assert set(metrics["latency_ms"]) == {"window", "p50", "p99", "max"}
    assert metrics["pool"]["workers"] == 1
    assert metrics["cache"]["entries"] >= 1


@pytest.mark.parametrize("path,length", [
    ("/nope", "25"),
    ("/scenario", str(2 << 20)),
    ("/scenario", "twelve"),
    ("/scenario", None),
], ids=["unknown-path", "oversized", "bad-length", "missing-length"])
def test_unread_body_closes_the_connection(server, path, length):
    # An error reply that leaves the body unread must close the
    # connection, or a keep-alive client's next request is parsed from
    # the leftover bytes.
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        connection.putrequest("POST", path)
        if length is not None:
            connection.putheader("Content-Length", length)
        connection.endheaders(b'{"workload": "synthetic"}')
        response = connection.getresponse()
        assert response.status in (400, 404)
        assert response.getheader("Connection") == "close"
        response.read()
        connection.request("GET", "/healthz")  # reopens if closed
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        connection.close()


# ----------------------------------------------------------------------
# keep-alive connections
# ----------------------------------------------------------------------

def test_sequential_hits_do_not_wait_for_delayed_acks(client):
    # Each reply is two sends; with Nagle on, the second waits ~40 ms
    # for the client's delayed ACK, so 50 hits would take >= 2 s.
    doc = _workload_doc(seed=91)
    assert client.scenario(doc).status == 200
    started = time.monotonic()
    for _ in range(50):
        assert client.scenario(doc).cache_status == "hit"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"50 hits took {elapsed:.2f}s"


def test_stale_connection_is_retried_once_on_a_fresh_one():
    with ScenarioServer(port=0, jobs=1) as first:
        client = ScenarioClient(first.base_url, timeout=60.0)
        assert client.wait_ready()
        stale = client._local.connection
        port = first.address[1]
    with ScenarioServer(port=port, jobs=1):
        assert client.health()["status"] == "ok"
        assert client._local.connection is not stale


def test_idle_connection_is_closed_and_the_client_reconnects(monkeypatch):
    assert ScenarioRequestHandler.timeout == IDLE_TIMEOUT_SECONDS
    monkeypatch.setattr(ScenarioRequestHandler, "timeout", 0.2)
    with ScenarioServer(port=0, jobs=1) as server:
        client = ScenarioClient(server.base_url, timeout=60.0)
        assert client.wait_ready()
        idle = client._local.connection
        time.sleep(0.6)  # past the idle timeout: the server hangs up
        assert client.health()["status"] == "ok"
        assert client._local.connection is not idle


def test_fresh_connection_failure_is_not_retried():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = ScenarioClient(f"http://127.0.0.1:{port}", timeout=5.0)
    with pytest.raises(OSError):
        client.health()
    assert client.wait_ready(attempts=3, delay_seconds=0.01) is False


def test_close_is_prompt_while_a_client_holds_an_idle_connection():
    server = ScenarioServer(port=0, jobs=1).start()
    try:
        client = ScenarioClient(server.base_url, timeout=60.0)
        assert client.wait_ready()
        assert client._local.connection is not None
    finally:
        started = time.monotonic()
        server.close()
    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"close() took {elapsed:.2f}s"


def test_close_returns_when_the_server_never_served():
    server = ScenarioServer(port=0, jobs=1)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=5.0)
    assert not closer.is_alive(), "close() hung on a server never started"


def test_a_failed_bind_leaves_no_worker_behind():
    with ScenarioServer(port=0, jobs=1) as live:
        before = len(multiprocessing.active_children())
        with pytest.raises(OSError):
            ScenarioServer(port=live.address[1], jobs=1)
        assert len(multiprocessing.active_children()) == before


def test_serve_on_a_busy_port_is_a_one_line_error(capsys):
    from repro.cli import main

    with ScenarioServer(port=0, jobs=1) as live:
        assert main(["serve", "--port", str(live.address[1])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro serve: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# ----------------------------------------------------------------------
# load shedding and deadlines (dedicated small servers)
# ----------------------------------------------------------------------

def test_queue_full_answers_429_with_retry_after():
    with ScenarioServer(port=0, jobs=1, request_timeout=120.0,
                        max_pending=1) as server:
        client = ScenarioClient(server.base_url, timeout=300.0)
        assert client.wait_ready()
        blocker_reply = []
        blocker = threading.Thread(
            target=lambda: blocker_reply.append(
                client.scenario(_workload_doc(seed=71, rounds=SLOW))))
        blocker.start()
        time.sleep(0.5)  # let the blocker occupy the admission slot
        try:
            deadline = time.monotonic() + 30.0
            rejected = None
            probe_seed = 72
            while time.monotonic() < deadline:
                # Fresh seed per probe: a repeated seed would be served
                # from the cache and never reach admission control.
                reply = client.scenario(_workload_doc(seed=probe_seed))
                probe_seed += 1
                if reply.status == 429:
                    rejected = reply
                    break
                time.sleep(0.05)
            assert rejected is not None, "never saw a 429"
            assert rejected.headers.get("retry-after") == "1"
            assert "capacity" in rejected.json["error"]
        finally:
            blocker.join(timeout=120.0)
        assert blocker_reply and blocker_reply[0].status == 200
        assert client.metrics()["scenario"]["rejected_queue_full"] >= 1


def test_deadline_answers_504_and_service_recovers():
    with ScenarioServer(port=0, jobs=1, request_timeout=0.5,
                        max_pending=4) as server:
        client = ScenarioClient(server.base_url, timeout=300.0)
        assert client.wait_ready()
        slow = client.scenario(_workload_doc(seed=81, rounds=4000))
        assert slow.status == 504
        assert "deadline" in slow.json["error"]
        metrics = client.metrics()
        assert metrics["scenario"]["run_timeouts"] == 1
        assert metrics["pool"]["worker_restarts"] >= 1
        # The respawned worker serves the next (fast) scenario.
        quick = client.scenario(_workload_doc(seed=82))
        assert quick.status == 200
