"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the hypiso modules
with wrappers that count calls and add up busy time, less the time of
calibration probes that fired inside them, then puts the originals back.  Nothing under src/ is edited.  A wrapper times only the
outermost of nested calls to the same function, so recursion or a
method calling itself through another path is not counted twice.

Layers are the modules of src/hypiso; each traced function belongs to one
metric prefix, named after its module.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict


def _entry_bits(iso) -> int:
    m = iso.payload
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in (m.a, m.b, m.c, m.d))


class Tracer:
    """Counts and busy seconds per traced function, plus derived counters."""

    def __init__(self, hp, probe_time: list[float]):
        self.hp = hp
        self.probe_time = probe_time
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._active: Counter = Counter()
        self._on = [True]
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, key: str, fn, after=None):
        calls, busy, active, on, probes = self.calls, self.busy, self._active, self._on, self.probe_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            calls[key] += 1
            if active[key]:
                out = fn(*args, **kwargs)
            else:
                active[key] = 1
                p0 = probes[0]
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    busy[key] += time.perf_counter() - t0 - (probes[0] - p0)
                    active[key] = 0
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _patch_method(self, cls, name: str, key: str, after=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(key, original, after))
        self._undo.append((cls, name, original))

    def _patch_function(self, module, name: str, key: str, after=None) -> None:
        """Replace module.name and every hypiso module's reference to it."""
        original = getattr(module, name)
        wrapper = self._wrap(key, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypiso" or mod_name.startswith("hypiso.")):
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self._undo.append((mod, name, original))

    def install(self) -> None:
        hp = self.hp
        c = self.counts
        mx = self.maxima

        def after_sampling(args, kwargs, out):
            c["sampling.systems"] += 1

        def after_hypotheses(args, kwargs, out):
            c["combiner.hypotheses_words"] += out.words_checked
            if self._active["sampling.build"]:
                c["sampling.checks"] += 1

        def after_step(args, kwargs, out):
            c["combiner.candidates"] += out.search_stats.candidates_tried
            c["combiner.certified"] += not out.stages[0].trivial

        def after_image(args, kwargs, out):
            c["actions.image_letters"] += len(args[1])

        def after_word(args, kwargs, out):
            mx["words.max_len"] = max(mx["words.max_len"], len(out))

        def after_compose(args, kwargs, out):
            mx["halfplane.entry_bits_max"] = max(mx["halfplane.entry_bits_max"], _entry_bits(out))

        self._patch_function(hp.sampling, "random_action_system", "sampling.build", after_sampling)
        self._patch_function(hp.combiner, "check_hypotheses", "combiner.hypotheses", after_hypotheses)
        self._patch_function(hp.combiner, "simultaneous_hyperbolic", "combiner.search")
        self._patch_function(hp.combiner, "combine_step", "combiner.step", after_step)
        self._patch_function(hp.combiner, "normalize_powers", "combiner.normalize")
        self._patch_function(hp.combiner, "verify_certificate_detailed", "combiner.verify")
        self._patch_method(hp.actions.Action, "image", "actions.image", after_image)
        self._patch_method(hp.words.GroupWord, "__pow__", "words.pow", after_word)
        self._patch_method(hp.words.GroupWord, "__mul__", "words.mul", after_word)
        self._patch_method(hp.halfplane.HalfPlaneModel, "compose", "halfplane.compose", after_compose)
        self._patch_method(hp.halfplane.HalfPlaneModel, "classify", "halfplane.classify")
        for cls in (hp.trees.CayleyTreeModel, hp.trees.BassSerreModel):
            self._patch_method(cls, "compose", "trees.compose")
            self._patch_method(cls, "classify", "trees.classify")
        self._patch_method(hp.quadratic.QuadraticNumber, "__eq__", "quadratic.eq")
        self._patch_function(hp.records, "record_for_certificate", "records.emit")
        self._patch_method(hp.records.RunRecord, "emit", "records.emit")
        self._patch_function(hp.records, "parse_record", "records.parse")
        self._patch_function(hp.records, "verify_record", "records.verify")
        self._patch_function(hp.config, "parse_config", "config.parse")
        self._patch_function(hp.dynamics, "ns_dynamics_check", "dynamics.ns")
        self._patch_function(hp.dynamics, "estimate_delta_insize", "dynamics.insize")
        self._patch_function(hp.dynamics, "orbit_projection", "dynamics.projection")
        self._patch_function(hp.dynamics, "internal_points", "dynamics.internal_points")
        self._patch_function(hp.geometry, "estimate_delta_four_point", "geometry.four_point")

    @contextlib.contextmanager
    def paused(self):
        """Count nothing while the harness itself calls into hypiso."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- per-operation calibration ---------------------------------------------------

    def snapshot(self) -> dict:
        return dict(self.busy)

    def scale_since(self, before: dict, factor: float, into: defaultdict) -> None:
        """Add the busy time spent since ``before``, times factor, to into."""
        for key, value in self.busy.items():
            delta = value - before.get(key, 0.0)
            if delta:
                into[key] += delta * factor


def cli_key(argv: list[str]) -> str:
    """The cli.* metric a cli.main call is charged to."""
    if argv[0] == "combine" and "--verify" in argv:
        return "cli.verify"
    return f"cli.{argv[0]}"


def layer_metrics(tracer: Tracer, busy_s: dict, cli_busy_s: dict) -> dict:
    """Per-layer metric values from a traced pass; times in calibrated ms."""
    calls, c = tracer.calls, tracer.counts

    def ms(key):
        return busy_s.get(key, 0.0) * 1000.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "sampling.build_ms": ms("sampling.build"),
        "sampling.accept_ratio": ratio(c["sampling.systems"], c["sampling.checks"]),
        "combiner.hypotheses_ms": ms("combiner.hypotheses"),
        "combiner.hypotheses_words": c["combiner.hypotheses_words"],
        "combiner.search_ms": ms("combiner.search"),
        "combiner.candidates": c["combiner.candidates"],
        "combiner.accept_ratio": ratio(c["combiner.certified"], c["combiner.candidates"]),
        "combiner.normalize_calls": calls["combiner.normalize"],
        "combiner.normalize_ms": ms("combiner.normalize"),
        "combiner.verify_ms": ms("combiner.verify"),
        "actions.image_calls": calls["actions.image"],
        "actions.image_letters": c["actions.image_letters"],
        "actions.image_ms": ms("actions.image"),
        "words.pow_calls": calls["words.pow"],
        "words.pow_ms": ms("words.pow"),
        "words.mul_ms": ms("words.mul"),
        "words.max_len": tracer.maxima["words.max_len"],
        "halfplane.compose_calls": calls["halfplane.compose"],
        "halfplane.compose_ms": ms("halfplane.compose"),
        "halfplane.classify_calls": calls["halfplane.classify"],
        "halfplane.classify_ms": ms("halfplane.classify"),
        "halfplane.entry_bits_max": tracer.maxima["halfplane.entry_bits_max"],
        "trees.compose_calls": calls["trees.compose"],
        "trees.compose_ms": ms("trees.compose"),
        "trees.classify_calls": calls["trees.classify"],
        "trees.classify_ms": ms("trees.classify"),
        "quadratic.eq_calls": calls["quadratic.eq"],
        "quadratic.eq_ms": ms("quadratic.eq"),
        "records.emit_ms": ms("records.emit"),
        "records.parse_ms": ms("records.parse"),
        "records.verify_ms": ms("records.verify"),
        "config.parse_ms": ms("config.parse"),
        "dynamics.ns_ms": ms("dynamics.ns"),
        "dynamics.insize_ms": ms("dynamics.insize"),
        "dynamics.projection_ms": ms("dynamics.projection"),
        "dynamics.internal_points_calls": calls["dynamics.internal_points"],
        "geometry.four_point_ms": ms("geometry.four_point"),
    }
    for command in ("combine", "verify", "report", "classify", "delta", "dynamics"):
        out[f"cli.{command}_ms"] = cli_busy_s.get(f"cli.{command}", 0.0) * 1000.0
    return out


UNITS = {"_ms": "ms", "_calls": "count", "_words": "count", "_letters": "count",
         "_ratio": "ratio", "_len": "letters", "_bits_max": "bits", "candidates": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
