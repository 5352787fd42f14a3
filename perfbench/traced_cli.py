"""Run one ricemele CLI command with a span around every public function.

Usage: python3 traced_cli.py SPANS_JSON [ricemele arguments...]

Every public function of the ricemele modules is wrapped, wherever a module
holds a reference to it, before ricemele.cli.main runs. A span records the
function's name, start, end (perf_counter seconds, shared by all processes
on the host) and the index of the span that was open when it started. The
spans stay in memory and are written to SPANS_JSON when the command ends;
the exit code is that of the command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("model", "spectral", "edge_states", "scattering", "dynamics", "fitting", "sigproc", "cli")


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []      # [name id, parent index, start, end]
        self.stack = []

    def span_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.span_id(name), parent, start, end])

    def wrap(self, name: str, fn):
        name_id = self.span_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name_id, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "ricemele") -> None:
        """Wrap each public function and rebind every reference to it."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        modules.append(importlib.import_module(package))
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path: str, trace_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({"trace": trace_id, "names": self.names, "spans": self.spans}, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import ricemele.cli
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        rc = ricemele.cli.main(argv)
    finally:
        tracer.dump(spans_path, " ".join(argv))
    return rc


if __name__ == "__main__":
    sys.exit(main())
