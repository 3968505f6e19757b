"""A trace row is rendered when it is read.

Rows keep the values they were emitted with (scalars of a message, the
frozen ``MemEvent``) and render their text on first read.  The rendered
trace must be exactly what eager formatting produced: the two digests
below were recorded with rows formatted at emit time.  A disabled log
must format nothing, and a row must not change when the message it
describes is edited after the fact.
"""

import hashlib
import pickle

import pytest

from repro import run_workload
from repro.errors import InvariantViolation
from repro.net import network
from repro.net.message import Message
from repro.sim.tracing import TraceLog, set_fast_mode
from repro.verify import events

#: CI's checked overlapping-recovery run, and a jittered sor run with
#: one crash; each with the (rows, sha256) of its rendered trace.
RUNS = {
    "ci_concurrent_recovery": (
        dict(workload="synthetic", processes=4, interval=30.0, seed=11,
             crashes=[(1, 35.0), (2, 35.5)], check=True),
        (559, "85c762a9d1c0498b2968e7b1958782e929d88521f0545e929fd90c21d75f7686")),
    "sor_jitter_crash": (
        dict(workload="sor", processes=4, seed=5, interval=40.0,
             crashes=[(2, 60.0)], latency={"jitter": 0.5}),
        (943, "a2a27fffcde1fdf7772aa994b4af77b7d115f1dfb0a8acc5aa0855ab3f6b58d5")),
}


def _digest(trace: TraceLog):
    sha = hashlib.sha256()
    for record in trace.iter_records():
        sha.update(f"{record}\0{record.message}\0{sorted(record.fields)}\n"
                   .encode())
    return len(trace), sha.hexdigest()


def _traced(name, monkeypatch=None):
    """Run one of :data:`RUNS` traced; with ``monkeypatch``, also return
    every message the network sent."""
    params, _ = RUNS[name]
    params = dict(params)
    sent = []
    if monkeypatch is not None:
        send = network.Network.send

        def spy(self, message):
            sent.append(message)
            send(self, message)

        monkeypatch.setattr(network.Network, "send", spy)
    system, result = run_workload(params.pop("workload"), trace=True,
                                  **params)
    assert result.completed
    return system.kernel.trace, sent


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rendered_trace_is_pinned(name):
    trace, _ = _traced(name)
    assert trace.count("net", "drop") > 0 and trace.count("mem") > 0
    assert _digest(trace) == RUNS[name][1]


def test_editing_sent_messages_leaves_their_rows_alone(monkeypatch):
    trace, sent = _traced("ci_concurrent_recovery", monkeypatch)
    assert any(m.piggyback is not None and m.piggyback.ckp_sets for m in sent)
    for message in sent:
        if message.piggyback is not None:
            message.piggyback.dummies.append(object())
            message.piggyback.ckp_sets.clear()
            message.piggyback.control = None
        message.msg_id = -1
    assert _digest(trace) == RUNS["ci_concurrent_recovery"][1]


def _raise(*_args, **_kwargs):
    raise AssertionError("a row was rendered")


def test_a_disabled_log_formats_nothing(monkeypatch):
    """With fast mode off every gated site is live, yet a disabled log
    renders no message and no ``mem`` row."""
    monkeypatch.setattr(Message, "__str__", _raise)
    monkeypatch.setattr(network, "net_row", _raise)
    monkeypatch.setattr(events, "mem_row", _raise)
    previous = set_fast_mode(False)
    try:
        system, result = run_workload("synthetic", processes=4, seed=11,
                                      interval=30.0, crashes=[(1, 35.0)])
    finally:
        set_fast_mode(previous)
    assert result.completed
    assert len(system.kernel.trace) == 0


def test_an_enabled_log_renders_only_the_rows_read(monkeypatch):
    rendered = []

    def counting(render):
        def wrapper(*args):
            rendered.append(render)
            return render(*args)
        return wrapper

    monkeypatch.setattr(network, "net_row", counting(network.net_row))
    monkeypatch.setattr(events, "mem_row", counting(events.mem_row))
    trace, _ = _traced("sor_jitter_crash")
    assert rendered == []
    rows = [r for r in trace.iter_records() if r.category in ("net", "mem")]
    text = [str(row) for row in rows[-3:]]
    assert len(rendered) == 3 and all(text)
    assert [str(row) for row in rows[-3:]] == text
    assert len(rendered) == 3  # a row renders once


def test_pickled_violation_renders_the_same_slice():
    trace, _ = _traced("sor_jitter_crash")
    rows = trace.tail(16)
    assert {row.category for row in rows} >= {"net"}
    violation = InvariantViolation("rule", "detail", trace_slice=rows)
    clone = pickle.loads(pickle.dumps(violation))  # before any row is read
    assert clone.format_slice(16) == violation.format_slice(16)
    assert [(r.message, r.fields) for r in clone.trace_slice] == \
        [(r.message, r.fields) for r in rows]


def test_emit_keeps_text_rows_and_renderer_rows_apart():
    log = TraceLog()
    log.emit(1.0, "cat", "plain", n=3)
    log.emit(2.0, "cat", lambda a, b: (f"{a}+{b}", {"sum": a + b}), 1, 2)
    plain, rendered = log.records
    assert (plain.message, plain.fields) == ("plain", {"n": 3})
    assert (rendered.message, rendered.fields) == ("1+2", {"sum": 3})
    assert str(rendered) == "[     2.000] cat          1+2 sum=3"
    assert [r.time for r in log.filter(contains="+")] == [2.0]
    TraceLog(enabled=False).emit(3.0, "cat", _raise, 1)
