"""Line coverage of src/recurfit with the standard library only.

Run a Python command in this process under `sys.settrace`, recording the
lines it executes in frames whose code lives under src/recurfit, and
merge them into a JSON file of hits:

    python3 tools/linecov.py -- -m pytest -q
    python3 tools/linecov.py -- bench/run.py --workload deep --seconds 5 --trace 1

Each file's hits are stored with the SHA-256 of the source they were
recorded against; a merge replaces the hits of a file whose source has
changed since, and `--report` ignores (and names) hits that do not
match the file as it is now. `--report` prints, per file, the executable
lines (from every code object's `co_lines()`) that no recorded run
executed. A child forked by the traced command keeps tracing; when it
leaves through `os._exit`, as `recurfit.evaluate`'s worker does, it
first writes its hits to a per-pid side file, which this process merges
after the command. Code run in a new interpreter (`subprocess`) is not
traced. Tracing slows Python-bound code about twofold, so wall-clock
bounds in the traced command may fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recurfit"


def trace_command(command: list) -> tuple:
    """Run `command` (`-m module args...` or `script args...`) in-process;
    return (exit code, {absolute file name: set of line numbers})."""
    prefix = str(PACKAGE) + "/"
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    # sys.path[0] and sys.argv as `python -m module ...` or `python script ...`
    if command[0] == "-m":
        sys.path[0] = str(Path.cwd())
        sys.argv = command[1:]
        run = lambda: runpy.run_module(command[1], run_name="__main__",
                                       alter_sys=True)
    else:
        sys.path[0] = str(Path(command[0]).resolve().parent)
        sys.argv = list(command)
        run = lambda: runpy.run_path(command[0], run_name="__main__")
    code = 0
    tracer_pid, real_exit = os.getpid(), os._exit
    side_dir = Path(tempfile.mkdtemp(prefix="linecov-"))

    def exit_with_hits(status):
        """`os._exit` that, in a forked child, first saves the child's hits."""
        if os.getpid() != tracer_pid:
            sys.settrace(None)
            (side_dir / f"{os.getpid()}.json").write_text(json.dumps(
                {name: sorted(lines) for name, lines in hits.items()}))
        real_exit(status)

    os._exit = exit_with_hits
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
        for side in sorted(side_dir.glob("*.json")):
            for name, lines in json.loads(side.read_text()).items():
                hits.setdefault(name, set()).update(lines)
            side.unlink()
        side_dir.rmdir()
    return code, hits


def executable_lines(source: str, filename: str) -> set:
    """Line numbers that carry bytecode in the module or any code object
    nested in it."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def source_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def current_lines(entry, path: Path) -> list | None:
    """The stored lines of `entry` ({"sha256": ..., "lines": [...]}) if it
    was recorded against `path`'s source as it is now, else None."""
    if isinstance(entry, dict) and entry.get("sha256") == source_hash(path):
        return entry["lines"]
    return None


def merge(data_path: Path, hits: dict) -> None:
    """Add `hits` ({absolute file name: lines}) to the JSON file, dropping
    the stored lines of a file whose source has changed since."""
    merged = json.loads(data_path.read_text()) if data_path.exists() else {}
    for name, lines in hits.items():
        key = str(Path(name).relative_to(PACKAGE))
        path = PACKAGE / key
        kept = current_lines(merged.get(key), path) or []
        merged[key] = {"sha256": source_hash(path),
                       "lines": sorted(set(kept) | lines)}
    data_path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")


def report(data_path: Path) -> None:
    """Print each file's never-executed lines and their count, counting
    only hits recorded against the file's current source, and name the
    files whose stored hits were ignored."""
    hits = json.loads(data_path.read_text())
    missed_total, stale = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        key = str(path.relative_to(PACKAGE))
        ran = current_lines(hits.get(key), path)
        if ran is None and key in hits:
            stale.append(key)
        source = path.read_text()
        missed = sorted(executable_lines(source, str(path)) - set(ran or []))
        missed_total += len(missed)
        lines = source.splitlines()
        for line in missed:
            print(f"{key}:{line}: {lines[line - 1].strip()}")
    if stale:
        print(f"ignored hits recorded against other source: {', '.join(stale)}")
    print(f"{missed_total} executable lines never ran")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="linecov", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--data", default="linecov.json",
                        help="JSON file of hits to merge into and report from")
    parser.add_argument("--report", action="store_true",
                        help="print the executable lines no run executed")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="after --: -m module args, or script args")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    data_path = Path(args.data)
    if command:
        code, hits = trace_command(command)
        merge(data_path, hits)
        if code:
            print(f"linecov: traced command exited {code}", file=sys.stderr)
            return code
    if args.report:
        report(data_path)
    elif not command:
        parser.error("give a command to trace, --report, or both")
    return 0


if __name__ == "__main__":
    sys.exit(main())
