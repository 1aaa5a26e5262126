#!/usr/bin/env python
"""CI gate: SIGKILL a journaled campaign mid-run, resume, diff.

The crash-consistency contract of ``repro.exec.journal`` is that a
coordinator killed at an arbitrary instant — including mid-append —
loses nothing but the unit in flight: resuming from the journal
replays the completed units and produces canonical JSON bit-identical
to a run that was never interrupted.

This script proves it the hard way:

1. run the reference campaign serially (``--workers 0 --canonical``);
2. start the same campaign journaled at ``--workers 2``, wait until
   the journal holds at least one completed unit, and ``SIGKILL`` the
   coordinator (no atexit handlers, no flush, no goodbye);
3. check that every worker process of the killed coordinator has
   exited within ``ORPHAN_GRACE_S`` (Linux ``/proc`` only);
4. resume from the journal (``--resume``) and byte-compare the
   resumed canonical JSON against the reference.

Exit code 0 on a byte-identical diff with no orphaned worker, 1
otherwise.
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

#: Seconds the killed coordinator's workers get to exit before they
#: count as orphans.
ORPHAN_GRACE_S = 5.0


def repro_cmd(*extra):
    return [sys.executable, "-m", "repro", "campaign", *extra]


def _stat_fields(pid):
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def child_pids(pid):
    """PIDs of the live processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[1]) == pid:
                children.append(int(entry))
    return children


def running(pid):
    """True while ``pid`` exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def wait_for_exit(pids, grace_s):
    """The subset of ``pids`` still running after ``grace_s`` seconds."""
    deadline = time.monotonic() + grace_s
    alive = [pid for pid in pids if running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [pid for pid in alive if running(pid)]
    return alive


def wait_for_journal(path, process, min_bytes, timeout_s):
    """Block until the journal exceeds ``min_bytes`` or the run ends.

    Returns True if the coordinator is still alive (there is something
    to kill), False if the campaign finished before the threshold.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            return False
        if os.path.exists(path) and os.path.getsize(path) >= min_bytes:
            return True
        time.sleep(0.02)
    raise SystemExit(
        f"journal never reached {min_bytes} bytes within {timeout_s}s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=4)
    parser.add_argument("--benchmarks", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--min-journal-bytes", type=int, default=200,
                        help="journal size proving >=1 completed unit")
    parser.add_argument("--settle-seconds", type=float, default=0.0,
                        help="extra runtime granted after the "
                             "threshold so the kill lands mid-campaign")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args()

    common = ["--resolution", str(args.resolution),
              "--benchmarks", str(args.benchmarks)]

    with tempfile.TemporaryDirectory(prefix="crash-resume-") as tmp:
        serial_json = os.path.join(tmp, "serial.json")
        resumed_json = os.path.join(tmp, "resumed.json")
        journal = os.path.join(tmp, "run.journal")

        print("[gate] reference: uninterrupted serial campaign")
        subprocess.run(repro_cmd(*common, "--workers", "0",
                                 "--json", serial_json, "--canonical"),
                       check=True, timeout=args.timeout)

        print(f"[gate] journaled campaign at --workers {args.workers}")
        victim = subprocess.Popen(
            repro_cmd(*common, "--workers", str(args.workers),
                      "--journal", journal),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        orphans = []
        try:
            alive = wait_for_journal(journal, victim,
                                     args.min_journal_bytes,
                                     args.timeout)
            if alive:
                time.sleep(args.settle_seconds)
                alive = victim.poll() is None
            if alive:
                size = os.path.getsize(journal)
                workers = child_pids(victim.pid) \
                    if os.path.isdir("/proc") else []
                print(f"[gate] SIGKILL coordinator pid {victim.pid} "
                      f"(journal at {size} bytes, "
                      f"{len(workers)} worker(s))")
                os.kill(victim.pid, signal.SIGKILL)
                orphans = wait_for_exit(workers, ORPHAN_GRACE_S)
            else:
                # The campaign beat us to the finish line (fast host,
                # tiny grid). Resume still must replay bit-identically.
                print("[gate] campaign finished before the kill; "
                      "resume degrades to a full journal replay")
            victim.wait(timeout=args.timeout)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        if orphans:
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            print(f"[gate] FAIL: {len(orphans)} worker(s) of the killed "
                  f"coordinator still alive {ORPHAN_GRACE_S:g} s "
                  f"after the kill: {orphans}")
            return 1

        print("[gate] resume from the journal")
        subprocess.run(repro_cmd(*common, "--workers",
                                 str(args.workers),
                                 "--resume", journal,
                                 "--json", resumed_json,
                                 "--canonical"),
                       check=True, timeout=args.timeout)

        with open(serial_json, "rb") as handle:
            reference = handle.read()
        with open(resumed_json, "rb") as handle:
            resumed = handle.read()
        if reference != resumed:
            print("[gate] FAIL: resumed canonical JSON differs from "
                  "the uninterrupted serial run")
            return 1
        print(f"[gate] OK: resumed canonical JSON is byte-identical "
              f"({len(reference)} bytes)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
