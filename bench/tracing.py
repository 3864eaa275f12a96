"""Spans around dioph's layer boundaries, installed from outside the package.

Tracer.install() replaces each boundary function with a wrapper in every
dioph module (and class) that binds it, so a name brought in with
`from .x import f` is counted wherever it is called from.  Each call
appends a span [name, start, end, parent, job, extra] to an in-memory
list; the per-layer metrics are derived from those spans afterwards.
uninstall() puts the original objects back.

Self time of a span is its duration minus the durations of its direct
child spans.  `extra` carries the exact counts some boundaries add:
denominator bits for the enclosure series, points returned by the
lattice enumeration, witnesses kept by successive_minima.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from fractions import Fraction

# layer -> (module, attribute path or list of paths)
BOUNDARIES = {
    "cli.main": ("cli", "main"),
    "cli.build_parser": ("cli", "build_parser"),
    "serialization.parse": ("serialization", [
        "parse_rational", "parse_univariate_text", "parse_poly_input",
        "multipoly_from_json", "int_matrix_from_json", "nf_matrix_from_json",
        "body_from_json"]),
    "serialization.to_json": ("serialization", [
        "format_rational", "enclosure_to_json", "height_to_json", "multipoly_to_json"]),
    "enclosure.log_enclosure": ("enclosure", "log_enclosure"),
    "enclosure.exp_enclosure": ("enclosure", "exp_enclosure"),
    "enclosure.nth_root_enclosure": ("enclosure", "nth_root_enclosure"),
    "roots.root_disks": ("roots", "root_disks"),
    "roots.root_moduli": ("roots", "root_moduli"),
    "heights.mahler_measure": ("heights", "mahler_measure"),
    "heights.weil_height_algebraic": ("heights", "weil_height_algebraic"),
    "heights.northcott_enumerate": ("heights", "northcott_enumerate"),
    "intpoly.is_irreducible": ("intpoly", "is_irreducible"),
    "intpoly.squarefree_part": ("intpoly", "squarefree_part"),
    "intpoly.refine_root_interval": ("intpoly", "refine_root_interval"),
    "intpoly.isolate_real_roots": ("intpoly", "isolate_real_roots"),
    "numberfield.AlgebraicNumber.__init__": ("numberfield", "AlgebraicNumber.__init__"),
    "numberfield.AlgebraicNumber.shift_int": ("numberfield", "AlgebraicNumber.shift_int"),
    "numberfield.AlgebraicNumber.reciprocal": ("numberfield", "AlgebraicNumber.reciprocal"),
    "numberfield.NumberFieldElement.__mul__": ("numberfield", "NumberFieldElement.__mul__"),
    "numberfield.inverse_embedding_bound": ("numberfield", "inverse_embedding_bound"),
    "approx.continued_fraction": ("approx", "continued_fraction"),
    "approx.liouville_scan": ("approx", "liouville_scan"),
    "approx.exponent_report": ("approx", "exponent_report"),
    "siegel.kernel_basis": ("siegel", "kernel_basis"),
    "siegel.pairwise_reduce": ("siegel", "pairwise_reduce"),
    "siegel.lll_reduce_with_transform": ("siegel", "lll_reduce_with_transform"),
    "siegel.siegel_solve_Z": ("siegel", "siegel_solve_Z"),
    "siegel.siegel_solve_NF": ("siegel", "siegel_solve_NF"),
    "rothlab.build_aux_poly": ("rothlab", "build_aux_poly"),
    "rothlab.count_index_set": ("rothlab", "count_index_set"),
    "rothlab.roth_lemma_verify": ("rothlab", "roth_lemma_verify"),
    "multipoly.index_at": ("multipoly", "index_at"),
    "multipoly.normalized_derivative": ("multipoly", "normalized_derivative"),
    "lattice.successive_minima": ("lattice", "successive_minima"),
    "lattice._enumerate_reduced": ("lattice", "_enumerate_reduced"),
    "lattice._rank_int": ("lattice", "_rank_int"),
    "wronskian.are_linearly_independent": ("wronskian", "are_linearly_independent"),
}

# partial quotients are streamed by a generator; its yields are counted
CF_GENERATOR = ("approx", "cf_quotients")

ENCLOSURE_SPANS = ("enclosure.log_enclosure", "enclosure.exp_enclosure",
                   "enclosure.nth_root_enclosure")
# spans whose return value adds an exact count (see _extra)
EXTRA_SPANS = frozenset(ENCLOSURE_SPANS) | {"lattice._enumerate_reduced",
                                            "lattice.successive_minima"}

COUNT_METRICS = [
    ("enclosure.den_bits_max", "bits"),
    ("enclosure.den_bits_ratio", "ratio"),
    ("approx.cf_terms", "count"),
    ("lattice._enumerate_reduced.points", "count"),
    ("lattice.witness_yield", "ratio"),
]


def layer_metric_units():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in BOUNDARIES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    return out + COUNT_METRICS


def _requested_bits(err):
    """About -log2(err), from bit lengths so that no float underflows."""
    err = Fraction(err)
    return max(1, err.denominator.bit_length() - err.numerator.bit_length())


def _extra(name, args, result):
    if name in ENCLOSURE_SPANS:
        err = args[-1]
        bits = max(result.lo.denominator.bit_length(), result.hi.denominator.bit_length())
        return [bits, _requested_bits(err)]
    if name == "lattice._enumerate_reduced":
        return len(result)
    if name == "lattice.successive_minima":
        return len(result.witnesses)
    return None


class Tracer:
    """Installs the wrappers and keeps the spans of the calls they see."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.cf_terms = 0
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, orig):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, tracer.job, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name in EXTRA_SPANS:
                span[5] = _extra(name, args, result)
            return result

        return wrapper

    def _wrap_generator(self, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for value in orig(*args, **kwargs):
                tracer.cf_terms += 1
                yield value

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _bind_everywhere(self, orig, replacement):
        """Replace `orig` in every dioph module and class namespace binding it."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "dioph" or mod_name.startswith("dioph.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is orig:
                            self._patches.append((value, cattr, orig))
                            setattr(value, cattr, replacement)

    def install(self):
        for name, (module, paths) in BOUNDARIES.items():
            mod = importlib.import_module(f"dioph.{module}")
            for path in paths if isinstance(paths, list) else [paths]:
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                self._bind_everywhere(orig, self._wrap(name, orig))
        mod = importlib.import_module(f"dioph.{CF_GENERATOR[0]}")
        orig = getattr(mod, CF_GENERATOR[1])
        self._bind_everywhere(orig, self._wrap_generator(orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.cf_terms = 0

    # -- derived metrics ------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = dict.fromkeys(BOUNDARIES, 0)
        self_s = dict.fromkeys(BOUNDARIES, 0.0)
        bits_max, bits_sum, req_sum, points, witnesses = 0, 0, 0, 0, 0
        for i, (name, start, end, _, _, extra) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if extra is None:  # no count, or the call raised
                continue
            if name in ENCLOSURE_SPANS:
                bits_max = max(bits_max, extra[0])
                bits_sum += extra[0]
                req_sum += extra[1]
            elif name == "lattice._enumerate_reduced":
                points += extra
            elif name == "lattice.successive_minima":
                witnesses += extra
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1000.0
        out["enclosure.den_bits_max"] = bits_max
        out["enclosure.den_bits_ratio"] = bits_sum / req_sum if req_sum else 0.0
        out["approx.cf_terms"] = self.cf_terms
        out["lattice._enumerate_reduced.points"] = points
        out["lattice.witness_yield"] = witnesses / points if points else 0.0
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "job": job,
                                     "extra": extra}) + "\n")
