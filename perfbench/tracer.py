"""Per-layer tracing of one ``jumpnls`` CLI command, from outside the package.

Each hook wraps a public function of a layer (a module of ``src/jumpnls``)
everywhere a ``jumpnls`` module looks it up, so calls made through
``from .jumps import jump_map`` are seen as well as ``jumps.jump_map``.
Methods are wrapped on their class.  ``numpy.linalg.eigh`` is wrapped once
and recorded only when the calling frame belongs to ``jumpnls.jumps``.

Spans are kept in memory on a per-thread stack, so self time stays right
under ``[run] threads > 1``; a span that opens on an empty worker-thread
stack is charged to the main-thread span that was open when it started.
A hook whose target no longer exists (after a refactor) is skipped and
reported as absent.

Run as a script, it traces one command and, at exit, writes the layer table
to LAYERS.json:

    python3 perfbench/tracer.py LAYERS.json -- simulate --config X --out Y
"""

from __future__ import annotations

import array
import bisect
import functools
import importlib
import json
import sys
import threading
import time

# (span name, module, attribute path); the span name is "<layer>.<function>"
HOOKS = (
    ("config.load_config", "jumpnls.config", "load_config"),
    ("config.build_model_from_spec", "jumpnls.config", "build_model_from_spec"),
    ("config.build_problem_from_spec", "jumpnls.config", "build_problem_from_spec"),
    ("spectral.build_spectral_model", "jumpnls.spectral", "build_spectral_model"),
    ("spectral.synthesize", "jumpnls.spectral", "SpectralModel.synthesize"),
    ("spectral.analyze", "jumpnls.spectral", "SpectralModel.analyze"),
    ("nonlinear.eval_F", "jumpnls.nonlinear", "eval_F"),
    ("nonlinear.eval_Fhat", "jumpnls.nonlinear", "eval_Fhat"),
    ("noise.sample_prm", "jumpnls.noise", "sample_prm"),
    ("jumps.assemble_noise_operators", "jumpnls.jumps", "assemble_noise_operators"),
    ("jumps.jump_map", "jumpnls.jumps", "jump_map"),
    ("jumps.jump_difference_2", "jumpnls.jumps", "jump_difference_2"),
    ("solver.simulate", "jumpnls.solver", "simulate"),
    ("solver.simulate_coupled", "jumpnls.solver", "simulate_coupled"),
    ("diagnostics.ensemble_moments", "jumpnls.diagnostics", "ensemble_moments"),
    ("cli.main", "jumpnls.cli", "main"),
)
EIGH_SPAN = "jumps.eigh"
EIGH_CALLER = "jumpnls.jumps"


def _nbytes(value) -> int:
    return sum(v.nbytes for v in vars(value).values() if hasattr(v, "nbytes"))


def _size(value) -> int:
    return int(getattr(value, "size", 0))


# counters read from a layer's arguments or result: span -> fn(args, result)
# returning {counter: (value, "sum" | "max")}
OBSERVERS = {
    "spectral.build_spectral_model": lambda args, out: {
        "spectral.model_bytes": (_nbytes(out), "max")},
    # dense-equivalent product: (dim x grid) complex entries read per call
    "spectral.synthesize": lambda args, out: {
        "spectral.transform_bytes": (16 * _size(args[1]) * _size(out), "sum")},
    "spectral.analyze": lambda args, out: {
        "spectral.transform_bytes": (16 * _size(args[1]) * _size(out), "sum")},
    "noise.sample_prm": lambda args, out: {"noise.events": (len(out), "sum")},
    "solver.simulate": lambda args, out: {
        "solver.nodes": (len(out.times), "sum"),
        "solver.fp_iters_max": (int(out.fp_iters_max), "max"),
    },
}


class _ThreadBuffer:
    """Spans and counters of one thread, appended without locking."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.child = array.array("d")
        self.stack: list[int] = []
        self.counters: dict[str, tuple[float, str]] = {}


class Tracer:
    """Installs the hooks, records spans, and restores everything on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names: list[str] = []
        self.absent: list[str] = []
        self.observer_errors: set[str] = set()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.main_thread = threading.get_ident()

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, span: str, func):
        name_id = len(self.names)
        self.names.append(span)
        observe = OBSERVERS.get(span)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            buf = self._buffer()
            index = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.child.append(0.0)
            buf.end.append(0.0)
            buf.stack.append(index)
            t0 = clock()
            buf.start.append(t0)
            try:
                out = func(*args, **kwargs)
            finally:
                t1 = clock()
                buf.end[index] = t1
                buf.stack.pop()
                if buf.stack:
                    buf.child[buf.stack[-1]] += t1 - t0
            if observe is not None:
                self._observe(buf, span, observe, args, out)
            return out

        return traced

    def _observe(self, buf, span, observe, args, out):
        try:
            found = observe(args, out)
        except (AttributeError, TypeError, IndexError):
            self.observer_errors.add(span)
            return
        for key, (value, how) in found.items():
            old = buf.counters.get(key)
            if old is None:
                buf.counters[key] = (value, how)
            elif how == "max":
                buf.counters[key] = (max(old[0], value), how)
            else:
                buf.counters[key] = (old[0] + value, how)

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        # resolve every target first, so that all jumpnls modules are loaded
        # before the lookup sites are rebound
        targets = []
        for span, module_name, path in self.hooks:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                targets.append((span, owner, attr, bool(outer), getattr(owner, attr)))
            except (ImportError, AttributeError):
                self.absent.append(span)
        for span, owner, attr, is_method, target in targets:
            wrapped = self._wrap(span, target)
            if is_method:
                self._set(owner, attr, wrapped)
                continue
            # rebind every lookup site: the defining module and importers
            for name, mod in list(sys.modules.items()):
                if name == "jumpnls" or name.startswith("jumpnls."):
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._set(mod, key, wrapped)
        self._install_eigh()
        return self

    def _install_eigh(self):
        try:
            linalg = importlib.import_module("numpy.linalg")
            eigh = linalg.eigh
            importlib.import_module(EIGH_CALLER)
        except (ImportError, AttributeError):
            self.absent.append(EIGH_SPAN)
            return
        traced = self._wrap(EIGH_SPAN, eigh)

        def eigh_from_jumps(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == EIGH_CALLER:
                return traced(*args, **kwargs)
            return eigh(*args, **kwargs)

        self._set(linalg, "eigh", eigh_from_jumps)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def _foreign_cover(self, main: _ThreadBuffer) -> dict[int, float]:
        """Seconds of each main-thread span covered by worker-thread roots."""
        starts = list(main.start)
        by_parent: dict[int, list[tuple[float, float]]] = {}
        for buf in self._buffers:
            if buf is main:
                continue
            for i in range(len(buf.start)):
                if buf.parent[i] != -1:
                    continue
                # innermost main span open at this start: walk back from the
                # last span that began before it
                j = bisect.bisect_right(starts, buf.start[i]) - 1
                while j >= 0 and main.end[j] < buf.start[i]:
                    j = main.parent[j]
                if j >= 0:
                    by_parent.setdefault(j, []).append((buf.start[i], buf.end[i]))
        cover = {}
        for j, intervals in by_parent.items():
            covered, reach = 0.0, main.start[j]
            for a, b in sorted(intervals):
                a, b = max(a, reach), min(b, main.end[j])
                if b > a:
                    covered += b - a
                    reach = b
            cover[j] = covered
        return cover

    def table(self) -> dict:
        """Per-span calls, total and self seconds; counters; absent hooks."""
        spans = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        counters: dict[str, float] = {}
        for buf in self._buffers:
            cover = {}
            if buf.thread_id == self.main_thread:
                cover = self._foreign_cover(buf)
            for i in range(len(buf.start)):
                row = spans[self.names[buf.name[i]]]
                duration = buf.end[i] - buf.start[i]
                row["calls"] += 1
                row["s"] += duration
                row["self_s"] += duration - buf.child[i] - cover.get(i, 0.0)
            for key, (value, how) in buf.counters.items():
                if key in counters and how == "max":
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] = counters.get(key, 0) + value
        return {
            "spans": spans,
            "counters": counters,
            "absent": sorted(self.absent),
            "observer_errors": sorted(self.observer_errors),
            "span_count": sum(len(b.start) for b in self._buffers),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py LAYERS.json -- <jumpnls cli arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    with Tracer() as tracer:
        code = importlib.import_module("jumpnls.cli").main(cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.table(), handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
