"""The read/write mix's client and the `repro serve` process handle.

:class:`HttpExecutor` is one keep-alive HTTP/1.1 connection to a
``repro serve`` process; after a commit it polls ``/v1/health`` until the
new generation is served, so every run advances at the same points.  It
returns the exact response bytes, so sampled responses can be compared
byte for byte with an offline recomputation.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from pipebench.tracer import Tracer


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def program_env(root: Path) -> dict:
    """The environment a program process runs in: the checkout's sources
    first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class HttpExecutor:
    """One keep-alive connection to a running `repro serve`."""

    #: Pause between health polls while waiting for an advance.
    poll_pause_s = 0.002

    def __init__(self, host: str, port: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        self.tracer = tracer

    def _request(self, target: str) -> tuple[int, bytes]:
        self.connection.request("GET", target)
        response = self.connection.getresponse()
        return response.status, response.read()

    def get(self, target: str) -> tuple[int, bytes]:
        with _span(self.tracer, "serve.client"):
            return self._request(target)

    def advance(self, generation: int) -> None:
        with _span(self.tracer, "serve.advance_wait"):
            while True:
                status, body = self._request("/v1/health")
                if status != 200:
                    raise RuntimeError(f"/v1/health answered {status}")
                served = json.loads(body)["generation"]
                if served >= generation:
                    break
                time.sleep(self.poll_pause_s)
        if served != generation:
            raise RuntimeError(f"served generation {served} after "
                               f"committing {generation}")

    def cache_stats(self) -> dict:
        status, body = self._request("/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)["cache"]

    def close(self) -> None:
        self.connection.close()


class ServerProcess:
    """A `repro serve` process started through the span-installing launcher."""

    def __init__(self, root: Path, store: Path, log: Path, *,
                 refresh_s: float, trace_out: Optional[Path] = None,
                 cpu: Optional[int] = None) -> None:
        command = [sys.executable, str(root / "pipebench" / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        command += ["--", str(store), "--port", "0",
                    "--refresh", str(refresh_s)]
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            command, cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=self._log)
        self.host, self.port = self._read_address()

    def _read_address(self) -> tuple[str, int]:
        # `repro serve` prints "... on http://HOST:PORT" once it is bound.
        line = self.process.stdout.readline().decode()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        return host, int(port)

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                connection = http.client.HTTPConnection(self.host, self.port,
                                                        timeout=10)
                try:
                    connection.request("GET", "/v1/health")
                    if connection.getresponse().status == 200:
                        return
                finally:
                    connection.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)

    def pause(self) -> None:
        """Stop the server's threads (SIGSTOP) while the mix is idle, so its
        refresh thread takes no CPU from repetitions, set-ups and the host
        reference computation."""
        self.process.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        self.process.send_signal(signal.SIGCONT)

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process (VmHWM)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the server (it exits like on Ctrl-C) and wait for it."""
        if self.process.poll() is None:
            self.resume()
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
