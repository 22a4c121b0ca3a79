"""Spans recorded from outside dfsim.

The tracer replaces a public function at every dfsim module binding that
holds it (``dfsim.protocols.evolve_nojump``, ``dfsim.cli.prepare_b``, ...)
with a wrapper that records a span: name, start, end, parent span and op
id.  Spans stay in memory; per-layer metrics are derived from them after
the traced pass.  ``uninstall`` puts every original object back, so an
untraced pass runs the program exactly as shipped.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _drive_off(args, kwargs, result) -> dict:
    drive = _arg(args, kwargs, 2, "d")
    return {"samples": len(result.times),
            "zero_drive": all(t.rabi == 0 for t in drive.tones)}


def _bytes_written(args, kwargs, result) -> dict:
    return {"files": len(result),
            "bytes": sum(os.path.getsize(p) for p in result)}


# (module, attribute, span name, attributes taken from the call)
TARGETS = (
    ("geometry", "sample_disorder", "geometry.sample_disorder",
     lambda a, k, r: {"draws": len(r)}),
    ("coupling", "coupling_matrices", "coupling.coupling_matrices", None),
    ("hilbert", "collective_eigenbasis", "hilbert.collective_eigenbasis",
     lambda a, k, r: {"ill_conditioned": bool(r.ill_conditioned)}),
    ("dynamics", "solve_ivp", "dynamics.solve_ivp",
     lambda a, k, r: {"nfev": int(r.nfev)}),
    ("dynamics", "evolve_nojump", "dynamics.evolve_nojump", _drive_off),
    ("dynamics", "evolve_nojump_batch", "dynamics.evolve_nojump_batch",
     lambda a, k, r: {"members": len(_arg(a, k, 0, "psi0"))}),
    ("protocols", "find_first_inversion", "protocols.find_first_inversion",
     lambda a, k, r: {"samples": len(_arg(a, k, 0, "times"))}),
    ("protocols", "prepare_b", "protocols.prepare_b", None),
    ("protocols", "rotate_logical", "protocols.rotate_logical", None),
    ("protocols", "calibrate_detuning", "protocols.calibrate_detuning", None),
    ("protocols", "readout_fluorescence", "protocols.readout_fluorescence",
     None),
    ("protocols", "cphase4", "protocols.cphase4", None),
    ("robustness", "sweep", "robustness.sweep", None),
    ("robustness", "tolerance_table", "robustness.tolerance_table", None),
    ("robustness", "tolerance", "robustness.tolerance", None),
    # The disorder layer has no public entry point of its own: both sweep()
    # and tolerance_table() reach it through this module-level helper.
    ("robustness", "_position_fidelities", "robustness.disorder",
     lambda a, k, r: {"draws": len(r[0])}),
    ("cli", "run", "cli.run", _bytes_written),
    ("cli", "prepare_merit_point", "cli.prepare_merit_point", None),
    ("cluster", "grow_chain", "cluster.grow_chain", None),
)

PROTOCOLS = ("prepare_b", "rotate_logical", "calibrate_detuning",
             "readout_fluorescence", "cphase4")


class _RedrawCounter(logging.Handler):
    """Reads the redraw count that sample_disorder logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.redraws = 0

    def emit(self, record):
        if record.getMessage().startswith("sample_disorder:"):
            self.redraws += int(record.args[0])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._redraws = _RedrawCounter()
        self._logger_level = logging.NOTSET
        self.op = -1

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dfsim" or n.startswith("dfsim."))]
        for mod_name, attr, name, attrs in TARGETS:
            original = getattr(sys.modules[f"dfsim.{mod_name}"], attr)
            wrapper = self._wrap(original, name, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        logger = logging.getLogger("dfsim.geometry")
        self._logger_level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self._redraws)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        logger = logging.getLogger("dfsim.geometry")
        logger.removeHandler(self._redraws)
        logger.setLevel(self._logger_level)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every recorded span."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total: dict[tuple[str, str], float] = defaultdict(float)
        under: dict[tuple[str, str], int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            calls[span.name] += 1
            self_s[span.name] += own
            for key, value in span.attrs.items():
                total[span.name, key] += value
            if span.parent is not None:
                under[self.spans[span.parent].name, span.name] += 1
        disorder_members = sum(
            s.attrs["members"] for s in self.spans
            if s.name == "dynamics.evolve_nojump_batch"
            and s.parent is not None
            and self.spans[s.parent].name == "robustness.disorder")

        m: dict[str, float] = {}

        def counted(name, *extra):
            m[f"{name}.calls"] = calls[name]
            for key in extra:
                m[f"{name}.{key}"] = total[name, key]
            m[f"{name}.self_s"] = self_s[name]

        counted("dynamics.solve_ivp", "nfev")
        counted("dynamics.evolve_nojump", "samples")
        m["dynamics.zero_drive_solves"] = total["dynamics.evolve_nojump",
                                                "zero_drive"]
        counted("dynamics.evolve_nojump_batch", "members")
        for fn in PROTOCOLS:
            counted(f"protocols.{fn}")
        m["protocols.find_first_inversion.samples"] = total[
            "protocols.find_first_inversion", "samples"]
        m["protocols.find_first_inversion.self_s"] = self_s[
            "protocols.find_first_inversion"]
        counted("coupling.coupling_matrices")
        counted("hilbert.collective_eigenbasis")
        m["hilbert.ill_conditioned"] = total["hilbert.collective_eigenbasis",
                                             "ill_conditioned"]
        counted("geometry.sample_disorder")
        m["geometry.sample_disorder.redraws"] = self._redraws.redraws
        m["robustness.disorder.draws"] = total["robustness.disorder", "draws"]
        m["robustness.disorder.integrated"] = disorder_members
        counted("robustness.tolerance")
        m["robustness.tolerance.probes"] = under[
            "robustness.tolerance", "dynamics.evolve_nojump_batch"]
        counted("cli.prepare_merit_point")
        m["cli.prepare_merit_point.prepare_b_calls"] = under[
            "cli.prepare_merit_point", "protocols.prepare_b"]
        m["cli.run.self_s"] = self_s["cli.run"]
        m["cli.bytes_written"] = total["cli.run", "bytes"]
        m["cli.files_written"] = total["cli.run", "files"]
        counted("cluster.grow_chain")
        return m

    def inclusive(self, name: str, parent: str) -> float:
        """Total duration of ``name`` spans whose parent is ``parent``."""
        return sum(s.duration for s in self.spans if s.name == name
                   and s.parent is not None
                   and self.spans[s.parent].name == parent)

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.attrs}
                for s in self.spans]
