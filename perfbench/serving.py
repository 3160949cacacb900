"""Drives `essns_cli serve` from outside: process start and stop, a blocking
line client, an open-loop load generator and /proc readings of the server
process (CPU seconds, peak RSS)."""

import json
import os
import selectors
import socket
import subprocess
import time

from derive import BenchError

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _cpu_split():
    """(generator CPUs, compute CPUs): the load generator keeps the first
    CPU to itself, the program under test gets the rest. Taken once, before
    anything is pinned."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


GENERATOR_CPUS, COMPUTE_CPUS = _cpu_split()


def pin_compute():
    os.sched_setaffinity(0, COMPUTE_CPUS)


def pin_generator():
    os.sched_setaffinity(0, GENERATOR_CPUS)


class LineClient:
    """One blocking connection; one response line per request line."""

    def __init__(self, port, timeout=120.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError(f"server closed the connection on: {line}")
            self.buffer += chunk
        response, self.buffer = self.buffer.split(b"\n", 1)
        return response.decode()

    def close(self):
        self.sock.close()


class ServerProcess:
    """An `essns_cli serve` child. Use as a context manager: the process is
    always stopped and reaped on exit."""

    def __init__(self, cli, run_dir, name, flags):
        self.port_file = os.path.join(run_dir, f"{name}.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log_path = os.path.join(run_dir, f"{name}.log")
        self.log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [cli, "serve", "--port-file", self.port_file] + flags,
            stdout=self.log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            preexec_fn=pin_compute)
        self.port = self._wait_port()
        self.ready = time.perf_counter()
        self.client = LineClient(self.port)

    def _wait_port(self, timeout=120.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early; see {self.log_path}")
            try:
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.0005)
        raise BenchError("server did not start listening")

    def request(self, line):
        return self.client.request(line)

    def metrics(self):
        response = self.request("metrics")
        if not response.startswith("ok "):
            raise BenchError(f"metrics scrape failed: {response}")
        return json.loads(response[3:])

    def cpu_seconds(self):
        """User + system CPU seconds of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def shutdown(self):
        if self.proc.poll() is None:
            try:
                self.request("shutdown")
            except (OSError, BenchError):
                pass
        self.close()

    def close(self):
        try:
            self.client.close()
        except (OSError, AttributeError):
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()
        return False


def open_loop(port, schedule, drain_timeout=60.0):
    """Send each (offset_seconds, line) at its scheduled time on a fresh
    connection, whatever earlier requests are doing, from this one process.

    Returns one dict per request: scheduled, sent and received times
    (seconds from the schedule start) and the response line (None when it
    never arrived)."""
    sel = selectors.DefaultSelector()
    results = [{"scheduled": t, "sent": None, "received": None, "response": None}
               for t, _ in schedule]
    buffers = {}
    pending = 0
    nxt = 0
    start = time.perf_counter() + 0.05
    last_due = schedule[-1][0] if schedule else 0.0
    deadline = start + last_due + drain_timeout
    try:
        while nxt < len(schedule) or pending:
            now = time.perf_counter()
            if now > deadline:
                break
            while nxt < len(schedule) and now - start >= schedule[nxt][0]:
                sock = socket.create_connection(("127.0.0.1", port))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(schedule[nxt][1].encode() + b"\n")
                results[nxt]["sent"] = time.perf_counter() - start
                sock.setblocking(False)
                sel.register(sock, selectors.EVENT_READ, nxt)
                buffers[nxt] = b""
                pending += 1
                nxt += 1
                now = time.perf_counter()
            wait = deadline - now
            if nxt < len(schedule):
                wait = min(wait, start + schedule[nxt][0] - now)
            for key, _ in sel.select(timeout=max(0.0, wait)):
                index = key.data
                chunk = key.fileobj.recv(1 << 16)
                buffers[index] += chunk
                if b"\n" in buffers[index] or not chunk:
                    if b"\n" in buffers[index]:
                        results[index]["received"] = time.perf_counter() - start
                        results[index]["response"] = (
                            buffers[index].split(b"\n", 1)[0].decode())
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
                    pending -= 1
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    return results
