"""The three benchmark workloads, each driven from one process through ismkit's API.

Each workload has `setup()`, which makes its inputs from the seed (repeated
by the caller to time set-up), and `run(seconds, tracer)`, which measures
and returns an `Outcome`. With a tracer, every other unit of work (job,
buffer or pass) is traced and the rest run bare, so the tracing overhead is
measured on interleaved units under the same host conditions.
"""

from __future__ import annotations

import math
import os
import select
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from ismkit import (End, Frame, FrameSender, Hello, IntensityOnly,
                    IntensityProfile, NormalizationConfig, PoseSample, ReplayClock, Session,
                    SessionWriter, StreamingAnalyzer, Waveform, analyze, build_trajectory,
                    emd_decompose, export_ply, fuse_channels, lowfreq_extract, map_color,
                    normalize, record, replay, synthesize)
from ismkit.wire import Decoder

import inputs
import tracing

RATE = inputs.SAMPLE_RATE_HZ
CHANNELS = 4
BUFFER_S = 0.1
BUFFER_LEN = int(round(BUFFER_S * RATE))
SEGMENT_MS = inputs.SEGMENT_MS
SEGMENTS_PER_BUFFER = int(round(BUFFER_S * 1000.0 / SEGMENT_MS))
NORM = NormalizationConfig(3.0)
HELLO = Hello(channels=CHANNELS, sample_rate_hz=int(RATE), segment_ms_x10=int(SEGMENT_MS * 10))
DELIVERY_TIMEOUT_S = 2.0
# Percentile for the latency tail: the highest whole percentile that keeps at
# least 10 samples beyond it in every live_4ch run (800 buffers in 20 s).
TAIL_PCT = 98


@dataclass
class Outcome:
    attempted: int
    failed: int
    e2e: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def unit_tracer(tracer, unit: int):
    """The tracer for one unit of work: even units are traced, odd ones run bare."""
    return tracer if tracer is not None and unit % 2 == 0 else tracing.NULL


def overhead_pct(traced: list[float], bare: list[float]) -> float:
    if not traced or not bare:
        return 0.0
    return (float(np.median(traced)) / float(np.median(bare)) - 1.0) * 100.0


def emd_layer(tracer: tracing.Tracer, channel: np.ndarray, n_buffers: int) -> dict[str, float]:
    """Decompose single-channel 100 ms buffers directly, chunked as `analyze` chunks them."""
    imfs = []
    decompose = tracer.call("emd.decompose", emd_decompose)
    for k in range(n_buffers):
        offset = 1 if k else 0
        chunk = channel[k * BUFFER_LEN - offset:(k + 1) * BUFFER_LEN]
        imfs.append(len(decompose(Waveform(chunk, RATE)).imfs))
    ms = np.asarray(tracer.durations("emd.decompose")) * 1e3
    return {"emd.ms_per_buffer_p50": percentile(ms, 50),
            "emd.ms_per_buffer_p95": percentile(ms, 95),
            "emd.ms_mean": float(ms.mean()),
            "emd.imfs_per_buffer": float(np.mean(imfs))}


class Loopback:
    """One loopback connection: a FrameSender and a non-blocking receiving socket.

    The receiving end has no thread of its own; the main thread drains it
    with `poll`, which decodes whatever has arrived. `tamper`, when given, sees
    each received chunk with its stream offset and may alter it (the smoke
    test corrupts a byte this way).
    """

    def __init__(self, tracer, policy: str, tamper=None):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            host, port = server.getsockname()[:2]
            self.sender = FrameSender(f"{host}:{port}", policy=policy)
            self.conn, _ = server.accept()
        finally:
            server.close()
        self.conn.setblocking(False)
        self.decoder = Decoder()
        self._feed = tracer.tally("wire.decode", self.decoder.feed)
        self._tamper = tamper
        self.traced = tracer.enabled
        self.received_bytes = 0
        self.feeds = 0
        self.decoded = 0
        self.ended = False

    def poll(self, timeout: float = 0.0) -> list:
        """Decode everything readable now, waiting up to `timeout` for the first byte."""
        messages = []
        if timeout > 0:
            select.select([self.conn], [], [], timeout)
        while True:
            try:
                data = self.conn.recv(1 << 16)
            except BlockingIOError:
                return messages
            if not data:
                self.ended = True
                return messages
            if self._tamper is not None:
                data = self._tamper(self.received_bytes, data)
            self.received_bytes += len(data)
            self.feeds += 1
            decoded = self._feed(data)
            self.decoded += len(decoded)
            messages.extend(decoded)

    def close(self, tracer) -> list:
        """Send End, stop the writer thread and collect the rest of the stream."""
        with tracer.span("wire.close"):
            self.sender.close()
        messages = []
        deadline = time.perf_counter() + DELIVERY_TIMEOUT_S
        while not self.ended and time.perf_counter() < deadline:
            batch = self.poll(0.05)
            messages.extend(batch)
            if any(isinstance(m, End) for m in batch):
                break
        self.conn.close()
        return messages


class Ledger:
    """Data messages sent and not yet received, keyed by (type, t_us).

    A received message is checked against the one sent under its key, and
    after a Hello equal to the one sent. A message whose key was corrupted
    matches nothing, so the original stays pending and counts as missing.
    """

    def __init__(self):
        self.pending: dict[tuple, tuple[object, object]] = {}
        self._hello_ok = False

    def sent(self, msg, tag) -> None:
        self.pending[(type(msg), msg.t_us)] = (msg, tag)

    def received(self, messages) -> list[tuple[object, object, bool]]:
        """(message, tag given when sent, whether it matches) per known data message."""
        matched = []
        for msg in messages:
            if isinstance(msg, Hello):
                self._hello_ok = msg == HELLO
            elif not isinstance(msg, End):
                entry = self.pending.pop((type(msg), msg.t_us), None)
                if entry is not None:
                    matched.append((msg, entry[1], self._hello_ok and msg == entry[0]))
        return matched


def wait_until(deadline: float) -> None:
    """Spin until `deadline`.

    A sleeping thread lets the host park the idle CPU, and waking it adds
    jitter that belongs to the host, not to ismkit. `sleep(0)` releases the
    GIL on every turn, so FrameSender's writer thread still runs.
    """
    while time.perf_counter() < deadline:
        time.sleep(0)


def wire_layers(tracer: tracing.Tracer, links: list[Loopback]) -> dict[str, float]:
    decode_s = tracer.tallies["wire.decode"][1]
    build_n, build_s = tracer.tallies["wire.msg_build"]
    send_n, send_s = tracer.tallies["wire.send"]
    map_n, map_s = tracer.tallies["colormap.map"]
    decoded = sum(link.decoded for link in links if link.traced)
    closes = tracer.durations("wire.close")
    return {
        "colormap.map_us_per_call": map_s / map_n * 1e6 if map_n else 0.0,
        "wire.msg_build_us_per_msg": build_s / build_n * 1e6 if build_n else 0.0,
        "wire.send_us_per_msg": send_s / send_n * 1e6 if send_n else 0.0,
        "wire.close_ms": float(np.median(closes)) * 1e3 if closes else 0.0,
        "wire.decode_msgs_per_s": decoded / decode_s if decode_s else 0.0,
        "wire.bytes_per_feed": (sum(link.received_bytes for link in links)
                                / max(1, sum(link.feeds for link in links))),
        "wire.drops": float(sum(link.sender.drops for link in links)),
        "wire.resync_bytes": float(sum(link.decoder.resync_bytes for link in links)),
    }


def _make_frame(t_us: int, position, orientation, intensity: float, rgb) -> Frame:
    return Frame(t_us=t_us, position=position, quaternion=orientation,
                 intensity=intensity, rgb=rgb)


def _color(intensity: float):
    return map_color(normalize(intensity, NORM))


def _pose_times(poses: list[PoseSample]) -> np.ndarray:
    return np.fromiter((p.t_us for p in poses), dtype=np.int64, count=len(poses))


class Offline:
    """Closed loop of batch jobs: a 60 s 4-channel capture, analyzed, fused, synthesized."""

    def __init__(self, seed: int, job_s: float = 60.0):
        self.seed = seed
        self.job_s = job_s

    def setup(self) -> None:
        capture = inputs.make_capture(self.seed, self.job_s)
        self.channels = [Waveform(np.ascontiguousarray(capture.vibration[:, c]), RATE)
                         for c in range(CHANNELS)]
        warm = [analyze(Waveform(ch.samples[:BUFFER_LEN * 5], RATE)) for ch in self.channels]
        synthesize(fuse_channels([r.profile for r in warm]), warm[0].lowfreq)

    def _job(self, tr) -> tuple[IntensityProfile, Waveform]:
        run_analyze = tr.call("ism.analyze", analyze)
        results = [run_analyze(ch) for ch in self.channels]
        fused = tr.call("ism.fuse", fuse_channels)([r.profile for r in results])
        out = tr.call("ism.synthesize", synthesize)(fused, results[0].lowfreq)
        return fused, out

    def run(self, seconds: float, tracer=None) -> Outcome:
        n_seg = len(self.channels[0]) // (BUFFER_LEN // SEGMENTS_PER_BUFFER)
        job_s, traced_s, bare_s = [], [], []
        failed = 0
        deadline = time.perf_counter() + seconds
        while not job_s or time.perf_counter() < deadline:
            tr = unit_tracer(tracer, len(job_s))
            start = time.perf_counter()
            with tr.span("job", len(job_s)):
                fused, out = self._job(tr)
            elapsed = time.perf_counter() - start
            (traced_s if tr.enabled else bare_s).append(elapsed)
            job_s.append(elapsed)
            values = fused.values
            if not (values.size == n_seg and np.all(np.isfinite(values)) and np.all(values >= 0)
                    and len(out) == len(self.channels[0])):
                failed += 1
        if not self._streaming_matches_batch():
            failed = min(len(job_s), failed + 1)
        latency_ms = np.asarray(job_s) * 1e3
        e2e = {"realtime_x": self.job_s * len(job_s) / sum(job_s),
               "latency_p50_ms": percentile(latency_ms, 50),
               f"latency_p{TAIL_PCT}_ms": percentile(latency_ms, TAIL_PCT)}
        outcome = Outcome(len(job_s), failed, e2e)
        if tracer is not None:
            outcome.layers = self._layers(tracer, traced_s, bare_s)
        return outcome

    def _streaming_matches_batch(self) -> bool:
        """Batch `analyze` equals `StreamingAnalyzer` bit for bit on a 1 s prefix."""
        prefix = self.channels[0].samples[:BUFFER_LEN * 10]
        batch = analyze(Waveform(prefix, RATE)).profile.values
        streaming = StreamingAnalyzer(RATE)
        fed = np.concatenate([streaming.feed(prefix[i:i + BUFFER_LEN])[0]
                              for i in range(0, prefix.size, BUFFER_LEN)])
        return np.array_equal(batch, fed)

    def _layers(self, tracer, traced_s, bare_s) -> dict[str, float]:
        samples = len(self.channels[0])
        analyzed = tracer.count("ism.analyze")
        buffers_per_channel = math.ceil(samples / BUFFER_LEN)
        analyze_ms = tracer.total("ism.analyze") / (analyzed * buffers_per_channel) * 1e3
        emd = emd_layer(tracer, self.channels[0].samples, buffers_per_channel)
        lowfreq = tracer.call("signal.lowfreq", lowfreq_extract)
        for ch in self.channels:
            lowfreq(ch)
        lowfreq_ns = float(np.median(tracer.durations("signal.lowfreq"))) / samples * 1e9
        return {
            **{k: v for k, v in emd.items() if k != "emd.ms_mean"},
            "ism.analyze_ms_per_buffer": analyze_ms,
            "ism.self_ms_per_buffer": analyze_ms - emd["emd.ms_mean"]
            - lowfreq_ns * BUFFER_LEN / 1e6,
            "ism.fuse_us_per_call": float(np.median(tracer.durations("ism.fuse"))) * 1e6,
            "ism.synthesize_ns_per_sample":
                float(np.median(tracer.durations("ism.synthesize"))) / samples * 1e9,
            "signal.lowfreq_ns_per_sample": lowfreq_ns,
            "trace.overhead_pct": overhead_pct(traced_s, bare_s),
        }


class Live:
    """Open loop at 4x real time: one 100 ms 4-channel buffer falls due every 25 ms."""

    PACE = 4.0
    FLUSH_EVERY = 10       # buffers between SessionWriter flushes: 1 s of capture
    PREFIX_BUFFERS = 10    # buffers checked against batch analyze

    def __init__(self, seed: int, workdir: str, seconds: float, tamper=None):
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.tamper = tamper

    def setup(self) -> None:
        capture_s = inputs.PIECE_S * (math.ceil(self.seconds * self.PACE / inputs.PIECE_S) + 1)
        self.capture = inputs.make_capture(self.seed, capture_s)
        self.pose_t = _pose_times(self.capture.poses)
        warm = StreamingAnalyzer(RATE)
        warm.feed(self.capture.vibration[:BUFFER_LEN, 0])
        fuse_channels([IntensityProfile(np.zeros(SEGMENTS_PER_BUFFER))] * CHANNELS)

    def run(self, seconds: float, tracer=None) -> Outcome:
        cap = self.capture
        n_buffers = min(max(1, int(seconds * self.PACE / BUFFER_S)),
                        cap.vibration.shape[0] // BUFFER_LEN)
        analyzers = [StreamingAnalyzer(RATE) for _ in range(CHANNELS)]
        session_path = os.path.join(self.workdir, "live.isms")
        writer = SessionWriter(session_path, RATE, CHANNELS, SEGMENT_MS)
        link = Loopback(tracing.NULL if tracer is None else tracer, "drop-oldest", self.tamper)
        link.sender.send(HELLO)
        ledger = Ledger()
        failed_buffers: set[int] = set()
        delivered: dict[int, float] = {}
        due, busy, late, backlog, traced_busy, bare_busy = [], [], [], [], [], []
        streamed_prefix = [[] for _ in range(CHANNELS)]
        held = 0.0

        def receive(messages):
            now = time.perf_counter()
            for _, (buffer_id, last), ok in ledger.received(messages):
                if not ok:
                    failed_buffers.add(buffer_id)
                if last:
                    delivered[buffer_id] = now

        t0 = time.perf_counter()
        for k in range(n_buffers):
            tr = unit_tracer(tracer, k)
            due_k = t0 + (k + 1) * BUFFER_S / self.PACE
            wait_until(due_k)
            start = time.perf_counter()
            due.append(due_k)
            late.append(start - due_k)
            backlog.append(int((start - t0) * self.PACE / BUFFER_S) - (k + 1))

            chunk = cap.vibration[k * BUFFER_LEN:(k + 1) * BUFFER_LEN]
            with tr.span("buffer", k):
                feeds = [tr.call("ism.feed", a.feed, k) for a in analyzers]
                values = [feed(chunk[:, c])[0] for c, feed in enumerate(feeds)]
                if k < self.PREFIX_BUFFERS:
                    for c in range(CHANNELS):
                        streamed_prefix[c].append(values[c])
                fused = tr.call("ism.fuse", lambda vs: fuse_channels(
                    [IntensityProfile(v, SEGMENT_MS) for v in vs]).values, k)(values)
                held = self._send(tr, link, ledger, k, fused, held)
                with tr.span("session.append", k):
                    self._append(writer, k, chunk, fused)
                deadline = start + DELIVERY_TIMEOUT_S
                while k not in delivered and time.perf_counter() < deadline:
                    receive(link.poll(0.05))
            elapsed = time.perf_counter() - start
            busy.append(elapsed)
            (traced_busy if tr.enabled else bare_busy).append(elapsed)

        receive(link.close(tracing.NULL if tracer is None else tracer))
        writer.close()
        failed_buffers.update(buffer_id for _, (buffer_id, _) in ledger.pending.values())
        failed_buffers.update(k for k in range(n_buffers) if k not in delivered)
        if not self._prefix_matches(streamed_prefix, n_buffers):
            failed_buffers.update(range(min(self.PREFIX_BUFFERS, n_buffers)))
        if not self._session_matches(session_path, n_buffers):
            failed_buffers.update(range(n_buffers))

        latency_ms = [(delivered[k] - due[k]) * 1e3 for k in range(n_buffers) if k in delivered]
        e2e = {"realtime_x": n_buffers * BUFFER_S / sum(busy),
               "latency_p50_ms": percentile(latency_ms, 50),
               f"latency_p{TAIL_PCT}_ms": percentile(latency_ms, TAIL_PCT)}
        outcome = Outcome(n_buffers, len(failed_buffers), e2e)
        if tracer is not None:
            feed_ms = np.asarray(tracer.durations("ism.feed")) * 1e3
            emd = emd_layer(tracer, np.ascontiguousarray(cap.vibration[:, 0]),
                            min(n_buffers, 600))
            emd.pop("emd.ms_mean")
            outcome.layers = {
                **emd,
                **wire_layers(tracer, [link]),
                "ism.feed_ms_p50": percentile(feed_ms, 50),
                "ism.feed_ms_p95": percentile(feed_ms, 95),
                "ism.fuse_us_per_call": float(np.median(tracer.durations("ism.fuse"))) * 1e6,
                "session.append_us_per_buffer":
                    float(np.median(tracer.durations("session.append"))) * 1e6,
                "live.gen_late_ms_p95": percentile(late, 95) * 1e3,
                "live.backlog_max_buffers": float(max(backlog)),
                "trace.overhead_pct": overhead_pct(traced_busy, bare_busy),
            }
        return outcome

    def _send(self, tr, link, ledger, k, fused, held) -> float:
        """Send the buffer's intensities and poses merged in timestamp order.

        Frames hold the last intensity at or before their timestamp; on a tie
        the pose goes first, as in `replay`.
        """
        cap = self.capture
        seg_us = SEGMENT_MS * 1000.0
        first_seg = k * SEGMENTS_PER_BUFFER
        t_int = [int(round((first_seg + j + 0.5) * seg_us)) for j in range(SEGMENTS_PER_BUFFER)]
        lo, hi = np.searchsorted(self.pose_t, [int(k * BUFFER_S * 1e6),
                                               int((k + 1) * BUFFER_S * 1e6)])
        events = sorted([(int(self.pose_t[i]), 0, i) for i in range(lo, hi)]
                        + [(t, 1, j) for j, t in enumerate(t_int)])
        build_intensity = tr.tally("wire.msg_build", IntensityOnly)
        build_frame = tr.tally("wire.msg_build", _make_frame)
        color = tr.tally("colormap.map", _color)
        send = tr.tally("wire.send", link.sender.send)
        last_j = SEGMENTS_PER_BUFFER - 1
        for t_us, kind, i in events:
            if kind == 1:
                held = float(fused[i])
                msg = build_intensity(t_us, held)
                ledger.sent(msg, (k, i == last_j))
            else:
                pose = cap.poses[i]
                msg = build_frame(t_us, pose.position, pose.orientation, held, color(held))
                ledger.sent(msg, (k, False))
            send(msg)
        return held

    def _append(self, writer, k, chunk, fused) -> None:
        cap = self.capture
        writer.append_vibration(chunk)
        lo, hi = np.searchsorted(self.pose_t, [int(k * BUFFER_S * 1e6),
                                               int((k + 1) * BUFFER_S * 1e6)])
        for pose in cap.poses[lo:hi]:
            writer.append_pose(pose)
        seg_us = SEGMENT_MS * 1000.0
        for j, value in enumerate(fused):
            writer.append_intensity(
                int(round((k * SEGMENTS_PER_BUFFER + j + 0.5) * seg_us)), float(value))
        if (k + 1) % self.FLUSH_EVERY == 0:
            writer.flush()

    def _prefix_matches(self, streamed_prefix, n_buffers) -> bool:
        """The streamed intensities equal batch `analyze` over the same samples."""
        n = min(self.PREFIX_BUFFERS, n_buffers)
        for c in range(CHANNELS):
            samples = self.capture.vibration[:n * BUFFER_LEN, c]
            batch = analyze(Waveform(samples, RATE)).profile.values
            if not np.array_equal(batch, np.concatenate(streamed_prefix[c][:n])):
                return False
        return True

    def _session_matches(self, path, n_buffers) -> bool:
        """The recorded session reopens with the appended counts."""
        session = Session.open(path)
        poses = int(np.searchsorted(self.pose_t, int(n_buffers * BUFFER_S * 1e6)))
        return (session.vibration.shape == (n_buffers * BUFFER_LEN, CHANNELS)
                and len(session.poses) == poses
                and session.intensities.shape[0] == n_buffers * SEGMENTS_PER_BUFFER)


class Roundtrip:
    """Closed loop of passes over one recorded 10 min session: replay, stream, re-record, render."""

    DRAIN_EVERY = 200  # sends between drains of the receiving socket

    def __init__(self, seed: int, workdir: str, session_s: float = 600.0, tamper=None):
        self.seed = seed
        self.session_s = session_s
        self.source = os.path.join(workdir, "source.isms")
        self.copy = os.path.join(workdir, "received.isms")
        self.ply = os.path.join(workdir, "trajectory.ply")
        self.tamper = tamper

    def setup(self) -> None:
        capture = inputs.make_capture(self.seed, self.session_s)
        record(self.source, vibration=capture.vibration.astype(np.float32),
               poses=capture.poses, intensities=capture.intensities,
               sample_rate_hz=RATE, channels=CHANNELS, segment_ms=SEGMENT_MS)

    def run(self, seconds: float, tracer=None) -> Outcome:
        pass_s, traced_s, bare_s, latency_ms, links = [], [], [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while not pass_s or time.perf_counter() < deadline:
            tr = unit_tracer(tracer, len(pass_s))
            start = time.perf_counter()
            with tr.span("pass", len(pass_s)):
                session, link, failures, points = self._pass(tr, latency_ms)
            elapsed = time.perf_counter() - start
            pass_s.append(elapsed)
            (traced_s if tr.enabled else bare_s).append(elapsed)
            links.append(link)
            n_msgs = len(session.poses) + session.intensities.shape[0]
            attempted += n_msgs
            failed += min(n_msgs, failures + self._mismatches(session, points))
            self._poses, self._points = len(session.poses), len(points)
        e2e = {"realtime_x": self.session_s * len(pass_s) / sum(pass_s),
               "latency_p50_ms": percentile(latency_ms, 50),
               f"latency_p{TAIL_PCT}_ms": percentile(latency_ms, TAIL_PCT)}
        outcome = Outcome(attempted, failed, e2e)
        if tracer is not None:
            outcome.layers = self._layers(tracer, links, traced_s, bare_s)
        return outcome

    def _pass(self, tr, latency_ms: list):
        session = tr.call("session.open", Session.open)(self.source)
        link = Loopback(tr, "block", self.tamper)
        writer = SessionWriter(self.copy, RATE, CHANNELS, SEGMENT_MS)
        append_pose = tr.tally("session.write", writer.append_pose)
        append_intensity = tr.tally("session.write", writer.append_intensity)
        build_intensity = tr.tally("wire.msg_build", IntensityOnly)
        build_frame = tr.tally("wire.msg_build", _make_frame)
        color = tr.tally("colormap.map", _color)
        send = tr.tally("wire.send", link.sender.send)
        clock = time.perf_counter
        ledger = Ledger()
        held = 0.0
        sent = mismatched = 0

        def receive(messages):
            nonlocal mismatched
            now = clock()
            for msg, t_sent, ok in ledger.received(messages):
                if not ok:
                    mismatched += 1
                    continue
                latency_ms.append((now - t_sent) * 1e3)
                if isinstance(msg, Frame):
                    append_pose(PoseSample(msg.t_us, msg.position, msg.quaternion))
                else:
                    append_intensity(msg.t_us, msg.intensity)

        def deliver(msg):
            nonlocal sent
            ledger.sent(msg, clock())
            send(msg)
            sent += 1
            if sent % self.DRAIN_EVERY == 0:
                # wait for the writer thread to catch up: otherwise whether a
                # message makes this drain or the next one depends on where
                # the GIL's switch interval falls
                key = (type(msg), msg.t_us)
                deadline = clock() + DELIVERY_TIMEOUT_S
                receive(link.poll())
                while key in ledger.pending and clock() < deadline:
                    receive(link.poll(0.05))

        def on_pose(pose):
            deliver(build_frame(pose.t_us, pose.position, pose.orientation, held, color(held)))

        def on_intensity(t_us, value):
            nonlocal held
            held = value
            deliver(build_intensity(t_us, value))

        send(HELLO)
        tr.call("session.replay", replay)(
            session, ReplayClock(speed=math.inf),
            on_pose=tr.tally("session.replay.callbacks", on_pose),
            on_intensity=tr.tally("session.replay.callbacks", on_intensity))
        receive(link.close(tr))
        tr.call("session.write_close", writer.close)()
        profile = IntensityProfile(session.intensities[:, 1], session.segment_ms)
        points = tr.call("trajectory.build", build_trajectory)(session.poses, profile, norm=NORM)
        tr.call("trajectory.export_ply", export_ply)(points, self.ply)
        return session, link, len(ledger.pending) + mismatched, points

    def _mismatches(self, session, points) -> int:
        """Rows of the re-recorded session that differ from the source, plus a PLY check."""
        copy = Session.open(self.copy)
        bad = 0
        if len(copy.poses) != len(session.poses):
            bad += abs(len(copy.poses) - len(session.poses))
        else:
            bad += sum(1 for a, b in zip(copy.poses, session.poses)
                       if a.t_us != b.t_us or not np.array_equal(a.position, b.position)
                       or not np.array_equal(a.orientation, b.orientation))
        if copy.intensities.shape != session.intensities.shape:
            bad += abs(copy.intensities.shape[0] - session.intensities.shape[0])
        else:
            bad += int(np.count_nonzero(np.any(copy.intensities != session.intensities, axis=1)))
        with open(self.ply, "r", encoding="ascii") as fh:
            header = [next(fh) for _ in range(3)]
        if header[2].split() != ["element", "vertex", str(len(points))]:
            bad += 1
        return bad

    def _layers(self, tracer, links, traced_s, bare_s) -> dict[str, float]:
        file_mb = os.path.getsize(self.source) / 1e6
        copy_mb = os.path.getsize(self.copy) / 1e6
        opens = tracer.durations("session.open")
        replays = tracer.total("session.replay")
        callback_s = tracer.tallies["session.replay.callbacks"][1]
        events = tracer.tallies["session.replay.callbacks"][0]
        write_s = (tracer.tallies["session.write"][1]
                   + tracer.total("session.write_close"))
        channel = np.ascontiguousarray(Session.open(self.source).vibration[:, 0],
                                       dtype=np.float64)
        emd = emd_layer(tracer, channel, min(600, channel.size // BUFFER_LEN))
        emd.pop("emd.ms_mean")
        return {
            **emd,
            **wire_layers(tracer, links),
            "session.open_mb_per_s": file_mb / float(np.median(opens)),
            "session.replay_self_events_per_s": events / (replays - callback_s),
            "session.write_mb_per_s": copy_mb * tracer.count("session.write_close") / write_s,
            "trajectory.build_us_per_pose":
                float(np.median(tracer.durations("trajectory.build"))) / self._poses * 1e6,
            "trajectory.export_ply_us_per_point":
                float(np.median(tracer.durations("trajectory.export_ply"))) / self._points * 1e6,
            "trace.overhead_pct": overhead_pct(traced_s, bare_s),
        }
