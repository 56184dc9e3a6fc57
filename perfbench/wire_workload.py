"""``wire``: the scheduling service over its socket, in two phases.

Why: this is the serving path.  Transport and service do most of the
work and the engine little, because requests are small.  Edits are
writes beside the reads.

* Phase A is an open loop on one connection, one sender thread and one
  receiver thread, at a fixed light rate well under the rate where one
  connection stops keeping up.  Each request is timed from its
  *scheduled* send time to its decoded answer, so a stall also charges
  the requests queued behind it.  One connection is served
  sequentially, so coalescing is bypassed here.
* Phase B is a closed loop on the same connection sending ``bulk``
  frames of a fixed depth back to back; it depends on coalescing.

The server is ``python -m repro.service serve`` with one worker and
default settings, in a child process; ``launcher.py`` serves the
traced run.  Every answer is compared, after the run, with the answer
of a local ``Session`` given the same calls in the same order, in the
canonical wire form (``encode_result``).
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import traffic
from common import (
    SETUP_REPEATS,
    Measurement,
    median,
    process_peak_rss_mib,
    quantile,
    stop_process,
)

#: Phase A offered load, requests per second (Poisson arrivals).
OPEN_LOOP_RATE = 100.0
#: Share of the run spent in Phase A; Phase B gets the rest.
PHASE_A_SHARE = 0.6
#: Requests per Phase B ``bulk`` frame.
BULK_DEPTH = 64
#: Phase A is invalid when the generator sends this late (p99, ms) ...
MAX_LATE_P99_MS = 20.0
#: ... achieves less than this share of the offered rate ...
MIN_ACHIEVED_SHARE = 0.95
#: ... or the median latency of the last tenth exceeds the first
#: tenth's by more than this factor: the backlog grew.
MAX_BACKLOG_RATIO = 3.0
#: Interpreter switch interval (s) while the open loop's threads run.
GENERATOR_SWITCH_INTERVAL = 1e-4
#: Seconds any one socket read or write may block before the run fails.
SOCKET_TIMEOUT = 60.0


class _CountingReader:
    """A buffered socket reader that counts the bytes read through it."""

    def __init__(self, raw) -> None:
        self._raw = raw
        self.bytes = 0

    def readline(self, limit: int = -1) -> bytes:
        data = self._raw.readline(limit)
        self.bytes += len(data)
        return data

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        self.bytes += len(data)
        return data


class _CountingWriter:
    """A buffered socket writer that counts the bytes written through it."""

    def __init__(self, raw) -> None:
        self._raw = raw
        self.bytes = 0

    def write(self, data: bytes) -> int:
        self.bytes += len(data)
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()


class Server:
    """One server child process and one client connection to it."""

    def __init__(self, ctx, *, traced: bool) -> None:
        from repro.service.transport import wire

        self._wire = wire
        self._snapshots = 0
        self.snapshot_dir = Path(tempfile.mkdtemp(dir=ctx.tmp))
        if traced:
            command = [sys.executable,
                       str(Path(__file__).with_name("launcher.py")),
                       str(self.snapshot_dir), "--announce"]
        else:
            command = [sys.executable, "-m", "repro.service", "serve",
                       "--announce"]
        self.process = subprocess.Popen(command, cwd=ctx.root, env=ctx.env,
                                        stdout=subprocess.PIPE, text=True)
        self.sock = None
        try:
            line = self.process.stdout.readline()
            address = json.loads(line)
            self.sock = socket.create_connection(
                (address["host"], address["port"]), timeout=SOCKET_TIMEOUT)
        except (ValueError, KeyError, OSError):
            self.close()
            raise
        self._raw_rfile = self.sock.makefile("rb")
        self._raw_wfile = self.sock.makefile("wb")
        if traced:
            self.rfile = _CountingReader(self._raw_rfile)
            self.wfile = _CountingWriter(self._raw_wfile)
        else:
            self.rfile, self.wfile = self._raw_rfile, self._raw_wfile

    @property
    def frame_bytes(self) -> int:
        return getattr(self.rfile, "bytes", 0) + getattr(self.wfile,
                                                         "bytes", 0)

    def call(self, op: str, session_id=None, payload=None):
        """One request, outside any timed phase; its decoded answer."""
        wire = self._wire
        wire.write_frame(self.wfile, wire.encode_request(op, session_id,
                                                         payload))
        response = wire.read_frame(self.rfile)
        if response is None:
            raise RuntimeError(f"server closed the connection on {op!r}")
        if not response.get("ok"):
            raise wire.decode_error(response["error"])
        return wire.decode_result(response["result"])

    def open_sessions(self) -> dict:
        """Open the session population; returns the sessions as sent."""
        from repro.api import Box, Session

        tiling = Session.for_chebyshev(1, window=Box(*traffic.TILING_WINDOW))
        mapping = tiling.restrict(Box(*traffic.MAPPING_WINDOW))
        sent = {}
        for session_id, kind in traffic.WIRE_SESSIONS:
            envelope = self._wire.encode_session(
                tiling if kind == "tiling" else mapping, session_id)
            self.call("open", payload={"envelope": envelope})
            sent[session_id] = envelope
        return sent

    def trace_snapshot(self) -> dict:
        """Ping; a traced server answers after writing its span totals."""
        self.call("ping")
        path = self.snapshot_dir / f"snap-{self._snapshots}.json"
        self._snapshots += 1
        with open(path, encoding="utf-8") as snap:
            return json.load(snap)

    def peak_rss_mib(self) -> float:
        return process_peak_rss_mib(self.process.pid)

    def close(self) -> None:
        """Ask the server to stop, close the connection, reap the child."""
        if self.sock is not None:
            try:
                self.call("shutdown")
            except Exception:  # the child is reaped below either way
                pass
            for closer in (self._raw_wfile.close, self._raw_rfile.close,
                           self.sock.close):
                try:
                    closer()
                except OSError:
                    pass
            self.sock = None
        if self.process.stdout is not None:
            self.process.stdout.close()
        stop_process(self.process)


def setup_samples(ctx) -> list[float]:
    """Server start to all sessions opened, timed ``SETUP_REPEATS`` times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        server = Server(ctx, traced=False)
        try:
            server.open_sessions()
            samples.append(time.perf_counter() - started)
        finally:
            server.close()
    return samples


def _decode_answer(wire, item: dict):
    """``(ok, canonical result or error text)`` of one response body."""
    if item.get("ok") and isinstance(item.get("result"), dict):
        wire.decode_result(item["result"])
        return True, item["result"]
    error = item.get("error")
    if isinstance(error, dict):
        return False, repr(wire.decode_error(error))
    return False, f"malformed response {item!r}"


def _open_loop(server: Server, ops: list, offsets: list) -> dict:
    """Phase A: send on schedule from one thread, receive on another."""
    wire = server._wire
    count = len(ops)
    sent_at = [0.0] * count
    done_at = [0.0] * count
    answers: list = [None] * count
    errors: list = []
    start = time.perf_counter() + 0.05
    due = [start + offset for offset in offsets]

    def sender() -> None:
        try:
            for index, (op, session_id, payload) in enumerate(ops):
                delay = due[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at[index] = time.perf_counter()
                wire.write_frame(server.wfile, wire.encode_request(
                    op, session_id, payload))
        except Exception as error:  # reported as a run problem below
            errors.append(f"sender: {error!r}")

    def receiver() -> None:
        try:
            for index in range(count):
                response = wire.read_frame(server.rfile)
                if response is None:
                    raise RuntimeError("server closed the connection")
                answers[index] = _decode_answer(wire, response)
                done_at[index] = time.perf_counter()
        except Exception as error:  # reported as a run problem below
            errors.append(f"receiver: {error!r}")

    threads = [threading.Thread(target=sender, name="perfbench-sender"),
               threading.Thread(target=receiver, name="perfbench-receiver")]
    # A sender due to send waits for the receiver to drop the interpreter
    # lock; at the default 5 ms switch interval a burst of arrivals runs
    # the generator late.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise RuntimeError("; ".join(errors))
    latencies = [done - scheduled for done, scheduled in zip(done_at, due)]
    late = [max(0.0, sent - scheduled) for sent, scheduled in
            zip(sent_at, due)]
    tenth = max(1, count // 10)
    return {
        "answers": answers,
        "latencies": latencies,
        "round_trips": [done - sent for done, sent in zip(done_at, sent_at)],
        "late_p99_ms": quantile(late, 0.99) * 1e3,
        "late_max_ms": max(late) * 1e3,
        "achieved_rps": count / (max(done_at) - start),
        "backlog_ratio": (median(latencies[-tenth:])
                          / median(latencies[:tenth])),
    }


def _closed_loop(server: Server, script, seconds: float) -> dict:
    """Phase B: ``bulk`` frames of ``BULK_DEPTH`` requests, back to back.

    Only the frame round trips are timed; drawing the next frame's ops
    from the script happens between them.
    """
    wire = server._wire
    ops: list = []
    answers: list = []
    busy = 0.0
    frames = 0
    started = time.perf_counter()
    while frames == 0 or time.perf_counter() - started < seconds:
        batch = script.take(BULK_DEPTH)
        begin = time.perf_counter()
        wire.write_frame(server.wfile, wire.encode_bulk(
            [wire.encode_request(op, sid, payload)
             for op, sid, payload in batch]))
        response = wire.read_frame(server.rfile)
        if response is None or not isinstance(response.get("results"),
                                              list):
            raise RuntimeError(f"bad bulk response {response!r}")
        batch_answers = [_decode_answer(wire, item)
                         for item in response["results"]]
        busy += time.perf_counter() - begin
        frames += 1
        ops.extend(batch)
        answers.extend(batch_answers)
    return {"ops": ops, "answers": answers, "busy": busy, "frames": frames}


def _expected_answers(envelopes: dict, ops: list) -> list:
    """The canonical answers of local sessions given the same calls."""
    from repro.service.server import EditAck
    from repro.service.transport import wire

    sessions = {sid: wire.decode_session(envelope)[1]
                for sid, envelope in envelopes.items()}
    expected = []
    for op, session_id, payload in ops:
        session = sessions[session_id]
        if op == "assign":
            answer = session.assign(list(payload["points"]))
        elif op == "verify":
            answer = session.verify(payload["window"],
                                    offsets=payload["offsets"],
                                    use_cache=payload["use_cache"],
                                    stream_chunk=payload["stream_chunk"])
        else:
            edited = session.edit(payload["updates"])
            sessions[session_id] = edited
            answer = EditAck(points_changed=len(payload["updates"]),
                             num_slots=edited.num_slots)
        expected.append(wire.encode_result(answer))
    return expected


def _in_service(before, after) -> tuple[float, float]:
    """``(seconds, requests)`` served between two metrics snapshots."""
    seconds = count = 0.0
    for op, histogram in after.latencies.items():
        earlier = before.latencies.get(op)
        seconds += histogram.sum_seconds - (earlier.sum_seconds
                                            if earlier else 0.0)
        count += histogram.total - (earlier.total if earlier else 0)
    return seconds, count


def _counted(before, after, *names: str) -> int:
    """Growth of the named service counters between two snapshots."""
    return sum(after.counter(name) - before.counter(name) for name in names)


def measure(ctx, seconds: float, tracer=None) -> Measurement:
    num_slots = _tiling_slots()
    script_a = traffic.WireScript(ctx.seed, "wire-a", num_slots)
    script_b = traffic.WireScript(ctx.seed, "wire-b", num_slots)
    ops_a = script_a.take(round(OPEN_LOOP_RATE * seconds * PHASE_A_SHARE))
    offsets = traffic.arrivals(ctx.seed, OPEN_LOOP_RATE, len(ops_a))
    server = Server(ctx, traced=tracer is not None)
    try:
        envelopes = server.open_sessions()
        client_trace: list = []
        server_trace: list = []
        metrics: list = []

        def boundary() -> None:
            """Between phases: span totals of both sides, and metrics."""
            if tracer is not None:
                tracer.enabled = False
                client_trace.append(tracer.snapshot())
                server_trace.append(server.trace_snapshot())
            metrics.append(server.call("metrics"))
            if tracer is not None:
                tracer.enabled = True

        boundary()
        phase_a = _open_loop(server, ops_a, offsets)
        boundary()
        phase_b = _closed_loop(server, script_b,
                               seconds * (1 - PHASE_A_SHARE))
        boundary()
        if tracer is not None:
            tracer.enabled = False
        peak_rss = server.peak_rss_mib()
        frame_bytes = server.frame_bytes
    finally:
        server.close()

    ops = ops_a + phase_b["ops"]
    answers = phase_a["answers"] + phase_b["answers"]
    expected = _expected_answers(envelopes, ops)
    failed = sum(1 for (ok, got), want in zip(answers, expected)
                 if not ok or got != want)
    problems = [f"{failed} of {len(ops)} wire answers were errors or "
                f"differ from the in-process Session answers"] \
        if failed else []

    offered = OPEN_LOOP_RATE
    if phase_a["late_p99_ms"] > MAX_LATE_P99_MS:
        problems.append(f"open loop invalid: generator p99 lateness "
                        f"{phase_a['late_p99_ms']:.2f} ms > "
                        f"{MAX_LATE_P99_MS} ms")
    if phase_a["achieved_rps"] < MIN_ACHIEVED_SHARE * offered:
        problems.append(f"open loop invalid: achieved "
                        f"{phase_a['achieved_rps']:.1f} of {offered} rps")
    if phase_a["backlog_ratio"] > MAX_BACKLOG_RATIO:
        problems.append(f"open loop invalid: backlog grew (last/first "
                        f"tenth latency {phase_a['backlog_ratio']:.2f})")

    p50 = median(phase_a["latencies"]) * 1e3
    p99 = quantile(phase_a["latencies"], 0.99) * 1e3
    completed_b = sum(1 for ok, _ in phase_b["answers"] if ok)
    pipelined = completed_b / phase_b["busy"]
    layers = {
        "loadgen.late_p99_ms": phase_a["late_p99_ms"],
        "loadgen.late_max_ms": phase_a["late_max_ms"],
        "loadgen.offered_rps": offered,
        "loadgen.achieved_rps": phase_a["achieved_rps"],
        "loadgen.backlog_ratio": phase_a["backlog_ratio"],
    }
    if tracer is not None:
        layers.update(_wire_layers(
            phase_a, phase_b, len(ops_a), client_trace, server_trace,
            metrics))
        layers["transport.frame_bytes"] = frame_bytes
    return Measurement(
        e2e={"rate_per_s": pipelined, "rate2_per_s": phase_a["achieved_rps"],
             "p50_ms": p50, "p99_ms": p99, "peak_rss_mib": peak_rss},
        named={"wire.p50_ms": (p50, "ms"),
               "wire.p99_ms": (p99, "ms"),
               "wire.pipelined_rps": (pipelined, "req/s"),
               "wire.offered_rps": (offered, "req/s"),
               "wire.achieved_rps": (phase_a["achieved_rps"], "req/s"),
               "wire.server_peak_rss_mib": (peak_rss, "MiB"),
               "loadgen.late_p99_ms": (phase_a["late_p99_ms"], "ms"),
               "loadgen.late_max_ms": (phase_a["late_max_ms"], "ms"),
               "loadgen.backlog_ratio": (phase_a["backlog_ratio"], "ratio")},
        layers=layers, attempted=len(ops), failed=failed,
        problems=problems,
        server_trace=([_diff(server_trace[0], server_trace[2])]
                      if tracer is not None else []))


def _tiling_slots() -> int:
    from repro.api import Box, Session

    return Session.for_chebyshev(
        1, window=Box(*traffic.TILING_WINDOW)).num_slots


def _diff(before: dict, after: dict) -> dict:
    """Span totals accumulated between two snapshots."""
    return {key: {name: value - before[key].get(name, 0)
                  for name, value in after[key].items()}
            for key in after}


def _total(snapshot: dict, *names: str) -> float:
    return sum(snapshot["total"].get(name, 0.0) for name in names)


def _wire_layers(phase_a, phase_b, requests_a, client_trace, server_trace,
                 metrics) -> dict:
    """Transport and service per-layer figures, per phase.

    Phase A figures are per request and Phase B figures per frame.  The
    socket share is what is left of the client's round trip once the
    client's encode and decode and the server's whole frame (read, not
    counting time blocked on the socket; handle; write) are taken out.
    """
    layers = {}
    phases = (("", requests_a, phase_a["round_trips"]),
              ("_b", phase_b["frames"], None))
    for index, (suffix, frames, round_trips) in enumerate(phases):
        client = _diff(client_trace[index], client_trace[index + 1])
        server = _diff(server_trace[index], server_trace[index + 1])
        encode = _total(client, "transport.encode_request",
                        "transport.encode_bulk", "transport.write_frame")
        decode = _total(client, "transport.read_frame",
                        "transport.decode_result")
        server_decode = _total(server, "transport.read_frame",
                               "transport.decode_request")
        server_encode = _total(server, "transport.encode_result",
                               "transport.write_frame")
        server_frame = _total(server, "transport.read_frame",
                              "transport.server_handle",
                              "transport.write_frame")
        round_trip = (sum(round_trips) if round_trips is not None
                      else phase_b["busy"])
        layers[f"transport.client_encode_us{suffix}"] = encode / frames * 1e6
        layers[f"transport.client_decode_us{suffix}"] = decode / frames * 1e6
        layers[f"transport.server_decode_us{suffix}"] = \
            server_decode / frames * 1e6
        layers[f"transport.server_encode_us{suffix}"] = \
            server_encode / frames * 1e6
        layers[f"transport.socket_ms{suffix}"] = (
            round_trip - encode - decode - server_frame) / frames * 1e3
        in_service, served = _in_service(metrics[index], metrics[index + 1])
        served = max(served, 1)
        session_time = _total(server, "api.assign", "api.verify", "api.edit")
        phase = "a" if index == 0 else "b"
        layers[f"service.in_service_ms_{phase}"] = in_service / served * 1e3
        layers[f"service.queue_wait_ms_{phase}"] = \
            (in_service - session_time) / served * 1e3
        dispatches = server["calls"].get("api.assign", 0)
        layers[f"service.coalesce_ratio_{phase}"] = (
            _counted(metrics[index], metrics[index + 1], "assign.completed")
            / dispatches if dispatches else 0.0)
    verifies = _counted(metrics[0], metrics[2], "verify.submitted")
    layers["service.fast_path_frac"] = (
        _counted(metrics[0], metrics[2], "batch.certificate_fast_path")
        / verifies if verifies else 0.0)
    layers["service.rejected"] = _counted(
        metrics[0], metrics[2], "rejected.overload", "rejected.deadline")
    return layers
