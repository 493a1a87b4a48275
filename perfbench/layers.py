"""Per-layer tracing of csd, installed from outside the package.

Each wrapper replaces a function in the namespace of the module that calls
it, so `csdk.csd.polar_iterative` (block polars) is traced apart from
`csdk.symeig.polar_iterative` (the polars inside spectral splits).  The
modules are taken from sys.modules because `import csdk.csd` binds the
function `csd`, which csdk/__init__.py re-exports under the module's name.

Spans nest on one stack.  A span's self time is its duration minus that of
the spans directly inside it, so the self times of all kinds add up to
the root span, one csd call.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Self-time kinds, reported as <kind>_s per completed decomposition.
TIME_KINDS = {
    "polar.block": "polar.block_s",
    "symeig": "symeig.s",
    "symeig.split": "symeig.split_s",
    "zolotarev.factor": "zolotarev.factor_s",
    "kernel.svd": "kernel.svd_s",
    "kernel.qr": "kernel.qr_s",
    "kernel.cholesky": "kernel.cholesky_s",
    "isometry.gate": "isometry.gate_s",
    "csd.finish": "csd.finish_s",
    "csd": "csd.self_s",
}

COUNTERS = (
    "polar.block_calls",
    "polar.iterations",
    "polar.qr_fix_calls",
    "polar.fallbacks",
    "symeig.splits",
    "symeig.direct_calls",
    "zolotarev.factor_calls",
    "kernel.svd_calls",
    "kernel.qr_calls",
    "kernel.cholesky_calls",
)

class Tracer:
    """Self times and counters of one process's csd calls."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    @contextmanager
    def span(self, kind: str):
        frame = [0.0]
        self._stack.append(frame)
        self._depth[kind] += 1
        t0 = time.perf_counter()
        try:
            yield self._depth[kind] == 1
        finally:
            dt = time.perf_counter() - t0
            self._depth[kind] -= 1
            self._stack.pop()
            self.self_s[kind] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt

    def wrap(self, module_name: str, attr: str, kind: str, on_result=None,
             on_error=None, counter: str | None = None) -> None:
        """Trace `module.attr` as seen by that module's own code.

        on_result(result, args) and on_error(exc) run for outermost spans
        of the kind only; counter is bumped on every call.
        """
        module = sys.modules[module_name]
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter] += 1
            with tracer.span(kind) as outermost:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if outermost and on_error is not None:
                        on_error(exc)
                    raise
            if outermost and on_result is not None:
                on_result(result, args)
            return result

        setattr(module, attr, traced)

    def metrics(self, completed: int) -> dict[str, dict]:
        """Every per-layer metric per completed decomposition."""
        per = 1.0 / max(completed, 1)
        out = {}
        for kind, name in TIME_KINDS.items():
            out[name] = {"value": self.self_s[kind] * per, "unit": "s"}
        for name in COUNTERS:
            out[name] = {"value": self.counts[name] * per, "unit": "count"}
        splits = self.counts["symeig.splits"]
        useful = self.counts["symeig.useful_splits"] / splits if splits else 0.0
        out["symeig.split_useful_ratio"] = {"value": useful, "unit": "ratio"}
        return out


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of csdk in `tracer`."""
    from csdk.errors import ConvergenceError

    counts = tracer.counts

    def block_done(pf, _args):
        counts["polar.block_calls"] += 1
        counts["polar.iterations"] += pf.iterations

    def qr_fix_done(result, _args):
        pf, _agreement = result
        counts["polar.block_calls"] += 1
        counts["polar.qr_fix_calls"] += 1
        counts["polar.iterations"] += pf.iterations
        if pf.method == "svd":
            counts["polar.fallbacks"] += 1

    def block_failed(exc):
        counts["polar.block_calls"] += 1
        if isinstance(exc, ConvergenceError):
            counts["polar.fallbacks"] += 1

    def split_done(result, args):
        _, _, nplus = result
        counts["symeig.splits"] += 1
        if 0 < nplus < args[0].shape[0]:
            counts["symeig.useful_splits"] += 1

    def split_failed(_exc):
        counts["symeig.splits"] += 1

    for attr in ("polar_iterative", "polar_modified", "polar_svd"):
        tracer.wrap("csdk.csd", attr, "polar.block", block_done, block_failed)
    tracer.wrap("csdk.csd", "polar_via_qr_fix", "polar.block", qr_fix_done, block_failed)

    for attr in ("symeig_sdc", "symeig_interval"):
        tracer.wrap("csdk.csd", attr, "symeig")
    for module in ("csdk.csd", "csdk.symeig"):
        tracer.wrap(module, "symeig_direct", "symeig", counter="symeig.direct_calls")
    tracer.wrap("csdk.symeig", "spectral_split", "symeig.split", split_done, split_failed)

    tracer.wrap("csdk.polar", "sign_iteration_factors", "zolotarev.factor",
                counter="zolotarev.factor_calls")

    for module, attrs in (
        ("csdk.csd", ("qr_factor", "svd_factor")),
        ("csdk.polar", ("qr_factor", "svd_factor", "cholesky_factor")),
        ("csdk.isometry", ("svd_factor",)),
    ):
        for attr in attrs:
            kind = "kernel." + attr.split("_")[0]
            tracer.wrap(module, attr, kind, counter=kind + "_calls")

    tracer.wrap("csdk.csd", "dist_to_partial_isometry", "isometry.gate")
    for attr in ("build_B", "extract_cs", "postprocess_trig", "cs_from_lambda"):
        tracer.wrap("csdk.csd", attr, "csd.finish")
