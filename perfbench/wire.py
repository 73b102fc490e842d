"""The daemon as a separate process, and a minimal JSON-lines client.

The client is the benchmark's own (a socket and a line reader), so the
measured latency includes exactly the daemon's work and the transport.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Conn:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, payload: dict) -> dict:
        self.sock.sendall((json.dumps(dict(payload, v=1)) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not reported")


class Daemon:
    """One ``repro serve`` process on a free port, default config, with
    a fresh cache directory and the given ``PYTHONHASHSEED``.  ``setup_s``
    runs from launch to the first answered health probe."""

    def __init__(self, root: str, workdir: str, hash_seed: int,
                 spans_file: str | None = None) -> None:
        self.workdir = workdir
        port_file = os.path.join(workdir, "port")
        serve = ["serve", "--port", "0", "--port-file", port_file,
                 "--cache-dir", os.path.join(workdir, "cache")]
        if spans_file is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), spans_file] + serve
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=str(hash_seed))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            while not os.path.exists(port_file):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        "daemon exited at start: " + self.proc.stderr.read().decode()[-2000:]
                    )
                if time.perf_counter() - start > 60:
                    raise RuntimeError("daemon did not bind within 60 s")
                time.sleep(0.002)
            with open(port_file) as handle:
                self.port = int(handle.read())
            probe = Conn(self.port)
            answer = probe.call({"op": "health"})
            self.setup_s = time.perf_counter() - start
            probe.close()
            if answer.get("status") != "ok":
                raise RuntimeError(f"health probe answered {answer}")
        except BaseException:
            self.kill()
            raise

    def stop(self) -> float:
        """Drain the daemon; returns its peak RSS in MiB."""
        try:
            rss = peak_rss_mb(self.proc.pid)
            conn = Conn(self.port)
            conn.call({"op": "shutdown"})
            conn.close()
            code = self.proc.wait(timeout=60)
            if code != 0:
                raise RuntimeError(f"daemon exited with {code}: "
                                   + self.proc.stderr.read().decode()[-2000:])
            return rss
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
