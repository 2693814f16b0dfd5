#!/usr/bin/env python
"""Record which entry points reach each function in ``src/``.

Usage::

    python scripts/callmap.py [--out docs/callmap.json] [--raw DIR]
                              [--only ENTRY ...] [--skip-run]

Every entry point — the tier-1 suite, the ``bench/`` self-test, each
``benchmarks/*.py`` module, each ``scripts/*.py`` in its smoke mode and
each ``examples/*.py`` — runs in a subprocess with a ``sitecustomize``
prepended to ``PYTHONPATH``.  That hook installs a global
``sys.settrace`` (and ``threading.settrace``) function which notes the
first ``call`` event of every code object under ``src/repro`` and
returns ``None``, so no line events are ever traced.  Each process
appends what it sees to its own per-pid file at once, so forked pool
workers that leave through ``os._exit`` and killed proxy workers still
count; at exit the hook runs the garbage collector while still tracing,
so code run by finalisers is recorded the same way on every run.
``settrace`` rather than ``setprofile``: the call-budget test
runs ``cProfile``, which takes over the profile hook but leaves the
trace hook alone.  ``sys.settrace`` itself is wrapped so that nothing
can switch the hook off: pytest-benchmark pauses tracing around every
timed call, and a second tracer is chained behind this one.

The output keys every ``def`` in ``src/`` as ``module:qualname`` (found
with :mod:`ast`, matched to code objects on file, first line and name)
and lists the sorted entry points that reach it, plus three lists:
``unreached``, ``tests_only`` (reached from the tier-1 suite alone) and
``single_entry`` (reached from exactly one non-test entry point).
``reasons`` holds a one-line justification for each function that
stays although unreached or reached only from tests; regenerating keeps
the reasons of every function that still exists.

``--raw DIR`` keeps the per-entry traces, ``--only`` re-runs a subset
of entries into it and ``--skip-run`` rebuilds the JSON from it.  Do
not run this under ``--cov``: coverage uses the same trace hook.  A
full run takes tens of minutes; regenerate by hand, not in CI.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
DEFAULT_OUT = os.path.join(ROOT, "docs", "callmap.json")
REGENERATE = "python scripts/callmap.py"

#: Functions that run only in proxy worker subprocesses: if the tier-1
#: entry does not reach them, child processes went unrecorded and the
#: map is not evidence.
SELF_CHECK = (
    "repro.proxy.workers:_worker_async",
    "repro.proxy.workers:_report_loop",
)

#: Seconds before one entry point is killed (its partial trace counts).
ENTRY_TIMEOUT_S = 3600

HOOK = '''\
import atexit
import gc
import os
import sys
import threading

_OUT = os.environ.get("CALLMAP_OUT")
_PREFIX = os.environ.get("CALLMAP_PACKAGE", "") + os.sep


def _install():
    seen = set()
    state = {"pid": None, "fd": None}
    realpath = os.path.realpath

    def trace(frame, event, arg):
        code = frame.f_code
        if code in seen:
            return None
        seen.add(code)
        path = realpath(code.co_filename)
        if path.startswith(_PREFIX):
            pid = os.getpid()
            if state["pid"] != pid:
                state["pid"] = pid
                state["fd"] = os.open(
                    os.path.join(_OUT, "{}.tsv".format(pid)),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644,
                )
            os.write(
                state["fd"],
                "{}\\t{}\\t{}\\n".format(
                    path, code.co_firstlineno, code.co_name
                ).encode("utf-8"),
            )
        return None

    real_settrace = sys.settrace

    def settrace(function):
        # pytest-benchmark pauses tracing around the timed call; a
        # paused hook would miss every function first run inside it.
        # Another tracer runs after this one instead of replacing it.
        if function is None or function is trace:
            real_settrace(trace)
            return

        def chained(frame, event, arg):
            trace(frame, event, arg)
            return function(frame, event, arg)

        real_settrace(chained)

    sys.settrace = settrace
    real_settrace(trace)
    threading.settrace(trace)
    # A generator left suspended in a reference cycle is finalised when
    # the collector happens to run, which may be after tracing stops at
    # interpreter exit.  Collecting at exit, still traced, records the
    # code it runs (a ``with`` block's ``__exit__``, say) on every run.
    atexit.register(gc.collect)


if _OUT:
    _install()
'''


# -- the functions in src/ ---------------------------------------------------


def module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def source_files() -> List[str]:
    return sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))


def function_defs(path: str) -> List[Tuple[str, int, int, str]]:
    """(key, def line, first decorator line, name) for each def in a file.

    Keys are ``module:qualname``; a qualname that occurs twice in one
    module (a property and its setter) gets ``#2``, ``#3``... on the
    repeats, in source order.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    module = module_name(path)
    found: List[Tuple[str, int, int, str]] = []
    counts: Dict[str, int] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                counts[qualname] = counts.get(qualname, 0) + 1
                key = "{}:{}".format(module, qualname)
                if counts[qualname] > 1:
                    key += "#{}".format(counts[qualname])
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append((key, child.lineno, first, child.name))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def all_functions() -> Dict[Tuple[str, int, str], str]:
    """(real path, line, name) → key; both the def and decorator lines."""
    index: Dict[Tuple[str, int, str], str] = {}
    for path in source_files():
        real = os.path.realpath(path)
        for key, def_line, first_line, name in function_defs(path):
            index[(real, def_line, name)] = key
            index[(real, first_line, name)] = key
    return index


def function_keys() -> List[str]:
    """Every function key in ``src/``, sorted."""
    return sorted(key for path in source_files() for key, _, _, _ in function_defs(path))


# -- the entry points ---------------------------------------------------------


def entry_points() -> Dict[str, List[str]]:
    """name → command, each run from the repository root."""
    py = sys.executable
    entries: Dict[str, List[str]] = {
        # The drift check reads the map being regenerated; it runs no src/.
        "tests": [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests",
                  "--ignore", "tests/test_callmap.py"],
        "bench": [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench"],
    }
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks", "test_*.py"))):
        rel = os.path.relpath(path, ROOT)
        entries[rel] = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", rel]
    smoke = {
        "scripts/bench_compare.py": ["benchmarks/baselines", "benchmarks/baselines"],
        "scripts/profile_run.py": ["fig3-calls", "--top", "5"],
        "scripts/run_all_experiments.py": ["--fast"],
        "scripts/scenario_matrix.py": [
            "--topologies", "mixed_2tier", "--workloads", "steady,misbehave",
            "--faults", "none", "--processes", "2", "--duration", "6", "--seed", "0",
        ],
    }
    for path in sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py"))):
        rel = os.path.relpath(path, ROOT)
        if rel == "scripts/callmap.py":
            continue
        if rel not in smoke:
            raise SystemExit("no smoke command for {}; add one to entry_points()".format(rel))
        entries[rel] = [py, rel] + smoke[rel]
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        rel = os.path.relpath(path, ROOT)
        entries[rel] = [py, rel]
    return entries


def run_entry(name: str, command: List[str], raw: str, hook_dir: str) -> Dict[str, object]:
    """Run one entry point under the hook; its traces land in raw/<name>/."""
    out = os.path.join(raw, name.replace("/", "__"))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [hook_dir, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["CALLMAP_OUT"] = out
    env["CALLMAP_PACKAGE"] = os.path.realpath(PACKAGE)
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=ENTRY_TIMEOUT_S)
        returncode: object = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        returncode = "timeout"
    else:
        # Stragglers (a proxy worker whose supervisor died) go too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = time.monotonic() - started
    tail = output.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
    status = {"returncode": returncode, "last_line": tail[0][:200]}
    with open(os.path.join(out, "status.json"), "w") as handle:
        json.dump(status, handle)
    print("{:45s} rc={} {:7.1f}s  {}".format(name, returncode, elapsed, status["last_line"]))
    return status


def read_raw(raw: str, name: str) -> Tuple[Set[Tuple[str, int, str]], Optional[Dict[str, object]]]:
    out = os.path.join(raw, name.replace("/", "__"))
    seen: Set[Tuple[str, int, str]] = set()
    status = None
    if not os.path.isdir(out):
        return seen, status
    for path in glob.glob(os.path.join(out, "*.tsv")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 3 and parts[1].isdigit():
                    seen.add((parts[0], int(parts[1]), parts[2]))
    status_path = os.path.join(out, "status.json")
    if os.path.exists(status_path):
        with open(status_path) as handle:
            status = json.load(handle)
    return seen, status


# -- the map --------------------------------------------------------------------


def build_map(raw: str, entries: Dict[str, List[str]], reasons: Dict[str, str]) -> Dict[str, object]:
    index = all_functions()
    keys = function_keys()
    reached: Dict[str, Set[str]] = {key: set() for key in keys}
    statuses: Dict[str, Optional[Dict[str, object]]] = {}
    for name in entries:
        seen, status = read_raw(raw, name)
        statuses[name] = status
        for record in seen:
            key = index.get(record)
            if key is not None:
                reached[key].add(name)
    functions = {key: sorted(reached[key]) for key in keys}
    unreached = [key for key in keys if not reached[key]]
    tests_only = [key for key in keys if reached[key] == {"tests"}]
    single_entry = {}
    for key in keys:
        others = reached[key] - {"tests"}
        if len(others) == 1:
            single_entry[key] = next(iter(others))
    self_check = {key: "tests" in reached.get(key, ()) for key in SELF_CHECK}
    return {
        "generated_by": REGENERATE,
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "entries": {
            name: {
                "command": [os.path.basename(c) if i == 0 else c for i, c in enumerate(cmd)],
                "returncode": (statuses[name] or {}).get("returncode"),
            }
            for name, cmd in entries.items()
        },
        "self_check": self_check,
        "counts": {
            "functions": len(keys),
            "unreached": len(unreached),
            "tests_only": len(tests_only),
            "single_entry": len(single_entry),
        },
        "unreached": unreached,
        "tests_only": tests_only,
        "single_entry": single_entry,
        "reasons": {key: text for key, text in sorted(reasons.items()) if key in reached},
        "functions": functions,
    }


def dumps(result: Dict[str, object]) -> str:
    """JSON with one line per list item or mapping entry, so diffs stay small."""

    def one(value: object) -> str:
        return json.dumps(value, ensure_ascii=False)

    lines = []
    for key, value in result.items():
        if isinstance(value, dict) and value:
            body = ",\n".join("  {}: {}".format(one(k), one(v)) for k, v in value.items())
            text = "{\n" + body + "\n }"
        elif isinstance(value, list) and value:
            text = "[\n" + ",\n".join("  " + one(v) for v in value) + "\n ]"
        else:
            text = one(value)
        lines.append(" {}: {}".format(one(key), text))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="map to write (default docs/callmap.json)")
    parser.add_argument("--raw", help="keep per-entry traces here (default: a temp dir)")
    parser.add_argument("--only", action="append", default=[], help="run only this entry (repeatable)")
    parser.add_argument("--skip-run", action="store_true", help="rebuild the map from --raw only")
    args = parser.parse_args(argv)

    entries = entry_points()
    unknown = [name for name in args.only if name not in entries]
    if unknown:
        parser.error("unknown entries: {}".format(", ".join(unknown)))
    if args.skip_run and not args.raw:
        parser.error("--skip-run needs --raw")

    raw = args.raw or tempfile.mkdtemp(prefix="callmap-raw-")
    os.makedirs(raw, exist_ok=True)
    if not args.skip_run:
        hook_dir = tempfile.mkdtemp(prefix="callmap-hook-")
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        try:
            for name in args.only or list(entries):
                run_entry(name, entries[name], raw, hook_dir)
        finally:
            shutil.rmtree(hook_dir, ignore_errors=True)

    reasons: Dict[str, str] = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            reasons = json.load(handle).get("reasons", {})
    result = build_map(raw, entries, reasons)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dumps(result))
    if not args.raw:
        shutil.rmtree(raw, ignore_errors=True)
    counts = result["counts"]
    print("{functions} functions: {unreached} unreached, {tests_only} tests only, "
          "{single_entry} from one non-test entry".format(**counts))
    failed = [key for key, ok in result["self_check"].items() if not ok]
    if failed:
        print("self-check FAILED: not reached from tests: {}".format(", ".join(failed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
