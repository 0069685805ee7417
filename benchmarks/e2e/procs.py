"""Launching the system under test and reading it from outside (``/proc``)."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from typing import Dict, List

from spec import HERE, SRC_DIR

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as stream:
        # The command name may hold spaces; fields are counted after its ")".
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def vm_hwm_mb(pid: int) -> float:
    """High-water resident set of one process, MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class SutProcess:
    """``sut.py`` in its own process, spoken to in JSON lines."""

    def __init__(self, config: dict) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, HERE] + env.get("PYTHONPATH", "").split(os.pathsep))
        self._process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready = self.read()
        except BaseException:
            self.kill()
            raise
        self.ports: List[int] = ready["ports"]
        self.pid: int = ready["pid"]
        self.readers: List[int] = ready["readers"]
        self.timings: Dict[str, float] = ready["timings"]
        # A reader the program lost takes its /proc entry with it; its last
        # reading stands in, so a death skews one phase instead of ending the run.
        self._cpu_seen: Dict[int, float] = {}
        self._rss_seen: Dict[int, float] = {}

    def read(self) -> dict:
        """Block for the driver's next reply."""
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"the system under test exited with code {self._process.wait()}")
        return json.loads(line)

    def send(self, op: str, **arguments) -> None:
        self._process.stdin.write(json.dumps({"op": op, **arguments}) + "\n")
        self._process.stdin.flush()

    def command(self, op: str, **arguments) -> dict:
        """Send one command and block for its reply."""
        self.send(op, **arguments)
        return self.read()

    def _sample(self, read, seen: Dict[int, float]) -> None:
        for pid in [self.pid] + self.readers:
            try:
                seen[pid] = max(seen.get(pid, 0.0), read(pid))
            except (FileNotFoundError, ProcessLookupError):
                pass

    def cpu(self) -> Dict[str, float]:
        """CPU seconds so far: the event-loop process and the readers together."""
        self._sample(cpu_seconds, self._cpu_seen)
        seen = self._cpu_seen
        return {"eventloop": seen.get(self.pid, 0.0), "readers": sum(seen.get(pid, 0.0) for pid in self.readers)}

    def peak_rss_mb(self) -> float:
        """High-water RSS summed over the tree, over every reading so far."""
        self._sample(vm_hwm_mb, self._rss_seen)
        return sum(self._rss_seen.values())

    def stop(self) -> int:
        """Stop the tree and wait for it; returns the segments it leaked.

        A driver that already died has nothing to report: whatever killed it
        is the error worth showing, so none is raised from here.
        """
        try:
            return self.command("stop")["segments_leaked"]
        except (OSError, RuntimeError):
            return 0
        finally:
            self.kill()

    def kill(self) -> None:
        """Reap the tree whatever state it is in (idempotent).

        Closing stdin is a stop request the driver honours, so its readers
        are joined by the driver itself; the kill is for a wedged driver.
        """
        process = self._process
        if process.stdin and not process.stdin.closed:
            try:
                process.stdin.close()
            except OSError:  # the driver already went away
                pass
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout:
            process.stdout.close()
