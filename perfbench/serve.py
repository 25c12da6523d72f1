"""Driving ``repro serve`` as a child process, and its client.

The server is started exactly as users run it (``python -m repro serve
data.nt --wal DIR``, default ``--durability flush``) or, for the traced
run, under ``serve_traced.py``, which installs the layer spans first.
Traffic is one client on one keep-alive connection, closed loop: each
request is sent when the previous response has arrived.
"""

from __future__ import annotations

import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import ROOT, SpeedProbe, child_env

JSON_RESULTS = "application/sparql-results+json"


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    started: float
    setup_s: float

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait for the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -9


def start_server(data: Path, wal: Path, probe: SpeedProbe,
                 spans_out: Path | None = None, timeout: float = 120.0) -> Server:
    """Spawn the server; ``setup_s`` runs from spawn to the first
    ``/health`` 200. ``probe`` ticks while the client waits."""
    args = ["serve", str(data), "--wal", str(wal), "--port", "0"]
    if spans_out is None:
        command = [sys.executable, "-m", "repro", *args]
    else:
        launcher = Path(__file__).resolve().parent / "serve_traced.py"
        command = [sys.executable, str(launcher), str(spans_out), *args]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    lines: queue.Queue[str] = queue.Queue()

    def pump() -> None:
        for line in process.stderr:
            lines.put(line)
        lines.put("")

    threading.Thread(target=pump, daemon=True).start()
    port = None
    deadline = started + timeout
    while port is None:
        probe.tick()
        try:
            line = lines.get(timeout=0.02)
        except queue.Empty:
            if time.perf_counter() < deadline:
                continue
            line = ""
        if not line:
            process.kill()
            process.wait()
            raise RuntimeError("server exited or never announced its port")
        if "serving SPARQL on http://" in line:
            port = int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
    while True:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("GET", "/health")
            if connection.getresponse().status == 200:
                break
        except OSError:
            pass
        finally:
            connection.close()
        if time.perf_counter() > deadline:
            process.kill()
            process.wait()
            raise RuntimeError("server never answered /health")
        probe.tick()
        time.sleep(0.005)
    return Server(process, port, started, time.perf_counter() - started)


def get_json(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def query_once(port: int, text: str) -> tuple[int, bytes]:
    """One read on a fresh connection (the final-state read-back)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        return post(connection, "read", text)
    finally:
        connection.close()


def post(connection: http.client.HTTPConnection, kind: str, text: str):
    if kind == "write":
        path, headers = "/update", {"Content-Type": "application/sparql-update"}
    else:
        path = "/sparql"
        headers = {"Content-Type": "application/sparql-query",
                   "Accept": JSON_RESULTS}
    connection.request("POST", path, body=text.encode("utf-8"), headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


@dataclass
class Sent:
    index: int
    kind: str
    sent: float
    latency: float
    status: int
    body: bytes


def run_closed_loop(port: int, ops: list[tuple[str, str]], seconds: float,
                    probe: SpeedProbe) -> list[Sent]:
    """Send ``ops`` in order, each after the previous response, until
    ``seconds`` have passed (or the ops run out)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    records: list[Sent] = []
    deadline = time.perf_counter() + seconds
    try:
        for index, (kind, text) in enumerate(ops):
            if time.perf_counter() >= deadline:
                break
            probe.tick()
            sent = time.perf_counter()
            try:
                status, body = post(connection, kind, text)
            except (OSError, http.client.HTTPException):
                connection.close()
                status, body = 0, b""
            records.append(
                Sent(index, kind, sent, time.perf_counter() - sent, status, body)
            )
    finally:
        connection.close()
    return records
