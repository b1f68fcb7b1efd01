"""Per-layer spans recorded from outside the package.

Every call into a layer is timed by swapping the module attribute its
caller resolves at call time for a timing wrapper; nothing inside
``src/`` changes.  Spans nest through a stack, so each span knows its
parent, and a layer's self time is its duration minus the time its
child spans cover.

Layers, named after the package's modules:

* ``build``: ``certify.build_family`` and ``codes.make_code``
  (the families layer, with field, poly and cosets under it);
* ``patterns``: the canonical support generators, wherever called;
* ``admissible`` and ``enum``: the two kernels;
* ``null_basis``: ``rational_null_basis``, from the sweep and from
  witness reconstruction alike;
* ``min_hamming`` and ``min_pair``: the codes engines;
* ``certify`` and ``sweep``: the pipeline and its exclusion stage.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

from paircodes import certify, codes, kernels

# (module, attribute, span name); an attribute bound in several
# modules is wrapped in each, because each caller looks up its own
TARGETS = (
    (certify, "certify_family", "certify"),
    (certify, "build_family", "build"),
    (certify, "min_hamming", "min_hamming"),
    (certify, "sweep_exclusions", "sweep"),
    (certify, "min_pair", "min_pair"),
    (certify, "rational_null_basis", "null_basis"),
    (certify, "canonical_supports_by_pw", "patterns"),
    (codes, "make_code", "build"),
    (codes, "min_hamming", "min_hamming"),
    (codes, "min_pair", "min_pair"),
    (codes, "canonical_supports_by_size", "patterns"),
    (codes, "canonical_supports_by_pw", "patterns"),
    (codes, "rational_null_basis", "null_basis"),
    (kernels, "admissible_many", "admissible"),
    (kernels, "enum_min_weights", "enum"),
)

ENGINES = ("min_hamming", "min_pair")


class Tracer:
    """Span stack plus per-pass sums; read with ``pass_metrics``."""

    def __init__(self):
        self.stack = []
        self.start_pass()

    def start_pass(self):
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.self_s = defaultdict(float)  # exclusive seconds per span name
        self.stage = defaultdict(float)  # seconds of spans called by certify
        self.top = 0.0  # seconds covered by spans with no parent
        self.n = defaultdict(int)
        self.start_item()

    def start_item(self):
        self.levels_seen = set()

    def _wrap(self, name, attr, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
            self.total[name] += dt
            self.self_s[name] += dt - frame[1]
            self.n[name] += 1
            if parent is None:
                self.top += dt
            else:
                parent[1] += dt
                if parent[0] == "certify":
                    self.stage[name] += dt
            self._count(name, attr, parent and parent[0], args, out)
            return out

        return traced

    def _count(self, name, attr, parent, args, out):
        n = self.n
        if name == "patterns":
            n["supports"] += len(out)
            key = (attr, args[0], args[1])
            n["repeats"] += key in self.levels_seen
            self.levels_seen.add(key)
            n["levels"] += parent in ENGINES
        elif name == "admissible":
            n["adm_supports"] += len(out)
            n["adm_hits"] += int(out.sum())
        elif name == "enum":
            rows, q = args[0], args[1]
            n["codewords"] += q ** rows.shape[0]
        elif name in ENGINES:
            n["full_enum"] += out.method == "full_enumeration"
        elif name == "sweep":
            n["shapes"] += len(out)
            n["nullity"] += sum(r.detail > 0 for r in out)

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, attr, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def pass_metrics(self, pass_s):
        """Per-layer metrics of the pass that took ``pass_s`` seconds.

        ``families.build_ms``, ``patterns.ms``, ``kernels.*.ms`` and
        ``codes.null_basis.ms`` are total times.  ``codes.min_hamming.ms``
        and ``codes.min_pair.ms`` are the engines' self time, outside
        the layers they call.  ``certify.dh_ms``, ``sweep_ms`` and
        ``dp_ms`` time the stages ``certify_family`` calls, and
        ``certify.checks_ms`` is its self time; with the build they add
        up to the traced pass less ``trace.untimed_ms``, the time no
        span covers.  ``codes.levels`` counts the support levels the
        engines asked for; ``patterns.repeat_share`` is the share of
        level requests already made within the same item.
        """
        t, s, n, st = self.total, self.self_s, self.n, self.stage
        ms = lambda v: v * 1e3  # noqa: E731
        rate = lambda count, secs: count / secs if secs > 0 else 0.0  # noqa: E731
        share = lambda part, whole: part / whole if whole else 0.0  # noqa: E731
        engine_calls = n["min_hamming"] + n["min_pair"]
        return {
            "families.build_ms": ms(t["build"]),
            "patterns.ms": ms(t["patterns"]),
            "patterns.supports": n["supports"],
            "patterns.supports_per_s": rate(n["supports"], t["patterns"]),
            "patterns.repeat_share": share(n["repeats"], n["patterns"]),
            "kernels.admissible.ms": ms(t["admissible"]),
            "kernels.admissible.supports": n["adm_supports"],
            "kernels.admissible.per_s": rate(n["adm_supports"], t["admissible"]),
            "kernels.admissible.hit_share": share(n["adm_hits"], n["adm_supports"]),
            "kernels.enum.ms": ms(t["enum"]),
            "kernels.enum.codewords": n["codewords"],
            "kernels.enum.per_s": rate(n["codewords"], t["enum"]),
            "codes.min_hamming.ms": ms(s["min_hamming"]),
            "codes.min_pair.ms": ms(s["min_pair"]),
            "codes.levels": n["levels"],
            "codes.full_enum_share": share(n["full_enum"], engine_calls),
            "codes.null_basis.calls": n["null_basis"],
            "codes.null_basis.ms": ms(t["null_basis"]),
            "codes.null_basis.per_s": rate(n["null_basis"], t["null_basis"]),
            "certify.dh_ms": ms(st["min_hamming"]),
            "certify.sweep_ms": ms(st["sweep"]),
            "certify.dp_ms": ms(st["min_pair"]),
            "certify.checks_ms": ms(s["certify"]),
            "certify.shapes_swept": n["shapes"],
            "certify.nullity_share": share(n["nullity"], n["shapes"]),
            "trace.untimed_ms": ms(pass_s - self.top),
        }
