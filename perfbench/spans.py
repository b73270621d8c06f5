"""Timing wrappers installed from outside around the functions that
``timsr.sim``, ``timsr.rx`` and ``timsr.ris`` call.

Each target is a module or class attribute that the calling code looks up
at call time, so replacing it with a wrapper records every call without
touching the package source. A span's self time is its duration minus the
durations of the wrapped calls made inside it. Spans are aggregated in
memory per name and per (caller span, span) edge; only the process that
installed the tracer records, so traced runs use one worker.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path). A span name may cover several
# attributes: align_group1 is looked up in both ris and rx.
TARGETS = (
    ("channel.realize", "timsr.channel", "ChannelModel.realize"),
    ("txphy.encode", "timsr.sim", "encode_block"),
    ("txphy.decode", "timsr.rx", "decode_frame"),
    ("ris.state", "timsr.sim", "make_ris_state"),
    ("ris.align", "timsr.ris", "align_group1"),
    ("ris.align", "timsr.rx", "align_group1"),
    ("ris.clc", "timsr.sim", "clc_dc_power"),
    ("rx.observe", "timsr.sim", "observe"),
    ("rx.llr_detect", "timsr.sim", "llr_detect"),
    ("rx.llr_stage", "timsr.rx", "llr_per_slot"),
    ("rx.select", "timsr.rx", "select_info_slots"),
    ("rx.symphase", "timsr.rx", "ml_symbol_phase"),
    ("rx.ml_search", "timsr.sim", "ml_joint_detect"),
    ("sim.trial_rng", "timsr.sim", "trial_rng"),
    ("sim.block", "timsr.sim", "run_block_trial"),
    ("sim.context", "timsr.sim", "make_context"),
    ("sim.aggregate", "timsr.sim", "_aggregate"),
    ("sim.csv", "timsr.sim", "ResultTable.to_csv"),
)

# Counts process-pool constructions only; blocks then run in the workers
# untraced, so a multi-worker sweep keeps its untraced speed.
POOL_TARGETS = (("sim.pool", "timsr.sim", "ProcessPoolExecutor"),)

# Spans whose result is a DetectionResult carrying the hypothesis count.
DETECTOR_SPANS = ("rx.llr_detect", "rx.ml_search")


class Tracer:
    """Per-span call counts, inclusive and self nanoseconds, caller edges,
    and the hypotheses the detectors report having visited."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0])
        self.hypotheses = 0
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                caller = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                edge = self.edges[(caller, name)]
                edge[0] += 1
                edge[1] += elapsed
            if name in DETECTOR_SPANS:
                self.hypotheses += result.visited
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block and restore the
        original attributes afterwards, also when the block raises. Targets
        the package no longer has are listed in ``missing``."""
        try:
            for name, module, path in self.targets:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{module}.{path}")
                    continue
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def module_self_ns(self, module: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == module)
