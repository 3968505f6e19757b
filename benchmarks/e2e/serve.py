"""serve_mix: a live ``python -m repro serve`` subprocess under three phases.

*miss*: unique scenario documents from one client, each simulated by the
server's worker.  *hit*: two clients re-requesting those documents, every
reply served from the result cache.  *dup*: barrier-synchronised pairs
of one fresh document from two clients, which the server must coalesce
onto a single run.  Closed loop throughout: every client waits for its
reply before sending the next request.
"""

from __future__ import annotations

import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import stats
from benchmarks.e2e.spans import SpanRecorder, installed, layer_metrics
from benchmarks.e2e.workload import Budget, Workload

#: Caps at full size (the time budget usually ends a phase first).
MISS_DOCUMENTS = 200
HIT_REQUESTS = 6000
DUP_PAIRS = 40
#: Host seconds of hit traffic per host-speed probe.
HIT_SEGMENT_S = 0.1


def _timed_us(fn: Callable[[int], Any], calls: int) -> float:
    """Median microseconds of ``fn(i)`` over ``calls`` calls."""
    samples = []
    for index in range(calls):
        started = time.perf_counter()
        fn(index)
        samples.append(time.perf_counter() - started)
    return stats.median(samples) * 1e6


class ServeWorkload(Workload):
    #: The server side: its largest process, once the server is reaped.
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str) -> None:
        super().__init__(name, seed, smoke, work_dir)
        self.scale = 0.05 if smoke else 1.0
        self._rng = random.Random(f"{name}:{self.seed}")
        # Distinct simulation seeds make distinct documents (cache keys).
        self._seeds = iter(self._rng.sample(range(1 << 20), 2048))
        self._server: Optional[subprocess.Popen] = None
        self._url = ""

    # -- lifecycle ------------------------------------------------------
    def _document(self) -> Dict[str, Any]:
        return {"kind": "workload", "workload": "synthetic", "processes": 8,
                "seed": next(self._seeds), "params": {"rounds": 40}}

    def _client(self) -> Any:
        from repro.server.client import ScenarioClient

        return ScenarioClient(self._url, timeout=60.0)

    def setup(self) -> None:
        # A session of its own: the pool worker is a grandchild that a
        # plain terminate() would orphan, holding our stdout pipe open.
        self._server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)
        self.process_groups.append(self._server.pid)
        assert self._server.stdout is not None
        banner = self._server.stdout.readline()
        match = re.search(r"http://\S+", banner)
        if match is None:
            raise RuntimeError(f"server did not announce a URL: {banner!r}")
        self._url = match.group(0)
        client = self._client()
        if not client.wait_ready():
            raise RuntimeError("server never answered /healthz")
        reply = client.scenario(self._document())
        if reply.status != 200:
            raise RuntimeError(f"warm-up scenario answered {reply.status}")

    def close(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        try:
            # SIGINT is the server's clean shutdown (it reaps its worker).
            os.killpg(server.pid, signal.SIGINT)
            server.wait(timeout=10.0)
        except (subprocess.TimeoutExpired, ProcessLookupError):
            pass
        finally:
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait()
            if server.stdout is not None:
                server.stdout.close()

    # -- phases ---------------------------------------------------------
    def _miss_phase(self, budget: float) -> Tuple[List[float], List[float], List[Dict[str, Any]], List[bytes]]:
        """One client, unique documents.  Returns (latencies at reference
        host speed, as read, the documents, the reply bodies)."""
        client = self._client()
        raw: List[float] = []
        documents: List[Dict[str, Any]] = []
        bodies: List[bytes] = []
        going = Budget(budget, floor=max(4, int(30 * self.scale)),
                       cap=max(4, int(MISS_DOCUMENTS * self.scale)))
        first = self.pace.probe()
        while going.more(len(documents)):
            document = self._document()
            sent = time.perf_counter()
            reply = client.scenario(document)
            raw.append(time.perf_counter() - sent)
            self.pace.probe()
            self.note(reply.status == 200 and reply.cache_status == "miss",
                       f"miss request answered {reply.status} "
                       f"{reply.cache_status}")
            documents.append(document)
            bodies.append(reply.body)
        return self.pace.corrected_run(raw, first), raw, documents, bodies

    def _hit_phase(self, budget: float, documents: List[Dict[str, Any]],
                   bodies: List[bytes]) -> Dict[str, Any]:
        """Two clients over the served documents, in segments of
        ``HIT_SEGMENT_S``; the host's slowness is probed between
        segments, while both clients wait at a barrier."""
        gate = threading.Barrier(3)
        state = {"deadline": 0.0, "stop": False}
        segments: List[List[List[float]]] = [[], []]
        verdicts: List[List[Tuple[bool, str]]] = [[], []]
        picks = [random.Random(self._rng.random()) for _ in range(2)]

        def client_loop(slot: int) -> None:
            client = self._client()
            notes, pick = verdicts[slot], picks[slot]
            while True:
                gate.wait()
                if state["stop"]:
                    return
                segment: List[float] = []
                while time.perf_counter() < state["deadline"]:
                    index = pick.randrange(len(documents))
                    sent = time.perf_counter()
                    reply = client.scenario(documents[index])
                    segment.append(time.perf_counter() - sent)
                    same = reply.body == bodies[index]
                    notes.append((
                        reply.status == 200 and reply.cache_status == "hit"
                        and same,
                        f"hit request answered {reply.status} "
                        f"{reply.cache_status}, body identical: {same}"))
                segments[slot].append(segment)
                gate.wait()

        threads = [threading.Thread(target=client_loop, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        walls: List[float] = []
        requests = 0
        going = Budget(budget, floor=max(20, int(1000 * self.scale)),
                       cap=max(20, int(HIT_REQUESTS * self.scale)))
        first = self.pace.probe()
        while going.more(requests):
            state["deadline"] = time.perf_counter() + HIT_SEGMENT_S
            gate.wait()
            begun = time.perf_counter()
            gate.wait()
            walls.append(time.perf_counter() - begun)
            self.pace.probe()
            requests += sum(len(mine[-1]) for mine in segments)
        state["stop"] = True
        gate.wait()
        for thread in threads:
            thread.join()
        wall = sum(self.pace.corrected_run(walls, first))
        corrected = [self.pace.corrected(took, first + index)
                     for mine in segments
                     for index, segment in enumerate(mine)
                     for took in segment]
        for notes in verdicts:
            for ok, why in notes:
                self.note(ok, why)
        return {"latencies": corrected, "per_s": requests / wall,
                "raw_per_s": requests / sum(walls)}

    def _dup_phase(self, budget: float) -> float:
        """Returns the share of pairs the server coalesced."""
        clients = [self._client(), self._client()]
        before = clients[0].metrics()["scenario"]
        pairs = 0
        going = Budget(budget, floor=max(2, int(10 * self.scale)),
                       cap=max(2, int(DUP_PAIRS * self.scale)))
        while going.more(pairs):
            document = self._document()
            barrier = threading.Barrier(2)
            replies: List[Any] = [None, None]

            def post(slot: int) -> None:
                barrier.wait()
                replies[slot] = clients[slot].scenario(document)

            threads = [threading.Thread(target=post, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            pairs += 1
            for reply in replies:
                self.note(reply is not None and reply.status == 200,
                           "a dup request failed")
            self.note(replies[0] is not None and replies[1] is not None
                       and replies[0].body == replies[1].body,
                       "the two replies of a dup pair differ")
        after = clients[0].metrics()["scenario"]
        runs = after["runs_executed"] - before["runs_executed"]
        self.note(runs == pairs, f"{pairs} dup pairs executed {runs} runs")
        return (after["coalesced_hits"] - before["coalesced_hits"]) / pairs

    # -- measuring ------------------------------------------------------
    @staticmethod
    def _tails(miss: List[float], hit: List[float]) -> Dict[str, float]:
        return {"server.miss_ms_p90": stats.percentile(miss, 0.90) * 1000.0,
                "server.hit_ms_p50": stats.median(hit) * 1000.0,
                "server.hit_ms_p99": stats.percentile(hit, 0.99) * 1000.0}

    def measure(self, seconds: float) -> Dict[str, Any]:
        miss, raw_miss, documents, bodies = self._miss_phase(seconds * 0.5)
        hit = self._hit_phase(seconds * 0.4, documents, bodies)
        coalesced = self._dup_phase(seconds * 0.1)
        return self.outcome(
            {"ops_per_s": hit["per_s"],
             "op_ms_p50": stats.median(miss) * 1000.0},
            {"samples": len(miss), "hit_samples": len(hit["latencies"]),
             **self._tails(miss, hit["latencies"]),
             "server.coalesced_ratio": coalesced,
             "uncorrected": {"ops_per_s": hit["raw_per_s"],
                             "op_ms_p50": stats.median(raw_miss) * 1000.0}})

    def measure_traced(self, seconds: float) -> Dict[str, Any]:
        """The three phases at reduced length, then each server stage
        driven in-process through its public function."""
        miss, _, documents, bodies = self._miss_phase(seconds * 0.25)
        hit = self._hit_phase(seconds * 0.2, documents, bodies)["latencies"]
        coalesced = self._dup_phase(seconds * 0.05)
        client = self._client()
        floor_us = _timed_us(lambda _: client.health(),
                             20 if self.smoke else 200)
        served = client.metrics()["scenario"]
        self.close()   # the stage drivers want the processor to themselves

        metrics = {
            **self._tails(miss, hit),
            "server.http_floor_ms": floor_us / 1000.0,
            "server.coalesced_ratio": coalesced,
            "server.runs_executed": served["runs_executed"],
            "server.rejected": served["rejected_queue_full"],
        }
        metrics.update(self._stage_drivers(documents, bodies))
        return self.outcome(metrics, {"samples": len(miss),
                                      "hit_samples": len(hit)})

    def _stage_drivers(self, documents: List[Dict[str, Any]],
                       bodies: List[bytes]) -> Dict[str, float]:
        from repro.parallel.service import PoolService
        from repro.server.cache import ResultCache
        from repro.server.scenario import (
            encode_response,
            run_scenario,
            validate_scenario,
        )

        calls = 20 if self.smoke else 200
        specs = [validate_scenario(document) for document in documents]
        metrics: Dict[str, float] = {}
        metrics["server.validate_us"] = _timed_us(
            lambda i: validate_scenario(
                documents[i % len(documents)]).cache_key("bench"), calls)

        # Re-simulate a few served documents: timed, and byte-compared
        # with what the server sent for them.
        runs = min(len(specs), 4 if self.smoke else 20)
        payloads: List[Any] = []
        samples = []
        for spec in specs[:runs]:
            started = time.perf_counter()
            payloads.append(run_scenario(spec.as_dict()))
            samples.append(time.perf_counter() - started)
        metrics["server.run_scenario_ms"] = stats.median(samples) * 1000.0
        for payload, body in zip(payloads, bodies):
            self.note(encode_response(payload) == body,
                       "a fresh in-process run differs from the served body")
        metrics["server.encode_us"] = _timed_us(
            lambda i: encode_response(payloads[i % runs]), calls)

        cache = ResultCache(None, max_entries=calls)
        keys = [specs[i % len(specs)].cache_key(f"bench-{i}")
                for i in range(calls)]
        metrics["server.cache_put_us"] = _timed_us(
            lambda i: cache.put(keys[i], bodies[i % len(bodies)]), calls)
        metrics["server.cache_get_us"] = _timed_us(
            lambda i: cache.get(keys[i]), calls)

        with PoolService(jobs=1) as service:
            for _ in range(3):
                service.run(int)
            metrics["parallel.dispatch_ms"] = _timed_us(
                lambda _: service.run(int), calls) / 1000.0

        # Where a miss's simulation time goes: spans around the layers.
        recorder = SpanRecorder()
        folds = []
        traced = []
        with installed(recorder):
            for spec in specs[:max(2, runs // 2)]:
                recorder.reset()
                started = time.perf_counter()
                run_scenario(spec.as_dict())
                traced.append(time.perf_counter() - started)
                folds.append(recorder.fold())
        metrics.update(layer_metrics(folds, traced))
        metrics["trace.overhead_ratio"] = (stats.median(traced)
                                           / stats.median(samples))
        return metrics
