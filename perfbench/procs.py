"""Service processes owned by the benchmark, and the checks that they are gone.

Every server runs ``repro-mtv serve`` in its own session (so its pool
workers share the session id), on an ephemeral port and over a fresh store
directory.  Stopping sends SIGINT to the server and waits for it to exit,
then SIGKILLs the whole process group as a backstop.  ``survivors()``
scans ``/proc`` for any process still in one of those sessions.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

#: What ``repro-mtv serve`` logs once its socket is bound.
_READY = re.compile(r"(?:serving|routing) on (http://\S+)")

START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def _proc_stat(pid: str) -> tuple[str, int, int] | None:
    """``(state, ppid, session)`` of one process, or ``None`` if it is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2 :].split()
    return fields[0], int(fields[1]), int(fields[3])


def processes_in_sessions(sessions: set[int], token: str | None = None) -> list[int]:
    """Live (non-zombie) pids whose session id is one of ``sessions``, or
    whose command line contains ``token``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _proc_stat(entry)
        if stat is None or stat[0] == "Z":
            continue
        if stat[2] in sessions or (token and token in _cmdline(entry)):
            found.append(int(entry))
    return found


def _cmdline(pid: str) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().decode(errors="replace")
    except OSError:
        return ""


def child_pids(parent: int) -> list[int]:
    """Live (non-zombie) direct children of ``parent``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _proc_stat(entry)
        if stat is not None and stat[1] == parent and stat[0] != "Z":
            found.append(int(entry))
    return found


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


class Server:
    """One ``repro-mtv serve`` process in its own session."""

    def __init__(self, args: list[str], *, env: dict, cwd: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", *args],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            text=True,
        )
        self.url: str | None = None
        self.output: list[str] = []
        self._ready = threading.Event()
        # drain the pipe for the server's whole life so logging never blocks it
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read(self) -> None:
        for line in self.process.stdout:
            if len(self.output) < 200:
                self.output.append(line.rstrip())
            match = _READY.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()

    def wait_ready(self, deadline: float) -> str:
        self._ready.wait(max(0.0, deadline - time.monotonic()))
        if self.url is None:
            tail = "\n".join(self.output[-10:])
            raise RuntimeError(f"server {self.pid} did not start:\n{tail}")
        return self.url

    def stop(self) -> None:
        """SIGINT, wait for exit, then SIGKILL the process group regardless."""
        if self.process.poll() is None:
            try:
                self.process.send_signal(signal.SIGINT)
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self._reader.join(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


class Owned:
    """Every server the benchmark started, for teardown and survivor checks.

    Each server's command line carries ``token``, so a server whose pid was
    never recorded (a signal landed mid-start) is still found and killed.
    """

    def __init__(self) -> None:
        self.servers: list[Server] = []
        self.sessions: set[int] = set()
        self.token = f"perfbench-{os.getpid()}"
        self._lock = threading.Lock()

    def start(self, args: list[str], *, env: dict, cwd: Path) -> Server:
        server = Server([*args, "--name", f"{self.token}-{len(self.sessions)}"], env=env, cwd=cwd)
        with self._lock:
            self.servers.append(server)
            self.sessions.add(server.pid)
        print(f"[perfbench] started server pid={server.pid} session={server.pid}",
              file=sys.stderr, flush=True)
        return server

    def stop(self, servers) -> None:
        """Stop ``servers`` and forget them (their sessions stay checked)."""
        servers = [server for server in servers if server is not None]
        with self._lock:
            self.servers = [server for server in self.servers if server not in servers]
        for server in servers:
            server.stop()

    def stop_all(self) -> None:
        self.stop(list(self.servers))
        for pid in processes_in_sessions(set(), self.token):
            try:
                os.killpg(os.getpgid(pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

    def survivors(self, grace: float = 3.0) -> list[int]:
        """Processes still alive in any owned session after ``grace`` seconds."""
        deadline = time.monotonic() + grace
        while True:
            alive = processes_in_sessions(self.sessions, self.token)
            if not alive or time.monotonic() >= deadline:
                return alive
            time.sleep(0.05)


class Cluster:
    """A router in front of ``shards`` services, each with ``workers`` workers."""

    def __init__(self, owned: Owned, workdir: Path, *, env: dict, cwd: Path,
                 shards: int = 2, workers: int = 1) -> None:
        self.owned = owned
        self.workdir = workdir
        self.env = env
        self.cwd = cwd
        self.shard_count = shards
        self.workers = workers
        self.shards: list[Server] = []
        self.router: Server | None = None

    def start(self) -> "Cluster":
        deadline = time.monotonic() + START_TIMEOUT
        for index in range(self.shard_count):
            store = self.workdir / f"store-{index}"
            self.shards.append(self.owned.start(
                ["--workers", str(self.workers), "--store-dir", str(store),
                 "--log-level", "info"],
                env=self.env, cwd=self.cwd,
            ))
        urls = [shard.wait_ready(deadline) for shard in self.shards]
        self.router = self.owned.start(
            ["--shard-of", ",".join(urls), "--log-level", "info"], env=self.env, cwd=self.cwd
        )
        self.router.wait_ready(deadline)
        while True:  # the router's /healthz probes every shard
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5.0) as answer:
                    if answer.status == 200:
                        return self
            except OSError:
                pass
            if time.monotonic() >= deadline:
                raise RuntimeError("cluster did not become healthy")
            time.sleep(0.02)

    @property
    def url(self) -> str:
        assert self.router is not None and self.router.url is not None
        return self.router.url

    @property
    def shard_urls(self) -> list[str]:
        return [shard.url for shard in self.shards]

    def pids(self) -> list[int]:
        """Every live process of the cluster: servers and their pool workers."""
        sessions = {server.pid for server in [*self.shards, self.router] if server}
        return processes_in_sessions(sessions)

    def stop(self) -> None:
        self.owned.stop([self.router, *self.shards])
