"""Outside-in tracing of the cubiclass layers.

A Tracer replaces public layer functions with timing wrappers at every
module binding a caller looks up (``cubiclass.classify.find_smooth_member``
as well as ``cubiclass.smoothness.find_smooth_member``), records one span
per call in memory, and puts every original back when it is closed.  Spans
are recorded only while a request is open, so work the benchmark does
between requests (output gates, preparation) leaves no span.

A span is ``[name, start, end, parent, request, value]``: ``parent`` is the
index of the enclosing span or None, ``request`` the id of the CLI call,
form or character being processed, and ``value`` a small summary of the
result (certified or not, classes produced, ...) used for the counters.
"""

import functools
import sys
from contextlib import contextmanager
from operator import not_
from time import perf_counter

NAME, START, END, PARENT, REQUEST, VALUE = range(6)


def _cert_basis_size(cert):
    return None if cert is None else cert.basis_size


def _found(result):
    return result is not None


def _feasible(result):
    return result[0]


def _audit_counts(result):
    accepted, rejected, _ = result
    return len(accepted), len(rejected)


# (defining module, function, summary of the result kept on the span)
TARGETS = (
    ("cubiclass.admissibility", "admissible_primes", None),
    ("cubiclass.signatures", "enumerate_orbits", len),
    ("cubiclass.signatures", "canonicalize", None),
    ("cubiclass.signatures", "scaling_canonical", None),
    ("cubiclass.forms", "lemma_base_feasible", _feasible),
    ("cubiclass.forms", "eigenspace_basis", None),
    ("cubiclass.smoothness", "is_smooth_mod_q", _cert_basis_size),
    ("cubiclass.smoothness", "certify_smooth_over_Q", _found),
    ("cubiclass.smoothness", "find_smooth_member", _found),
    ("cubiclass.classify", "classify_with_audit", _audit_counts),
    ("cubiclass.classify", "fermat_order_classes", None),
    ("cubiclass.hodge", "jacobian_ring_character", None),
    ("cubiclass.hodge", "klein_tangent_spectrum", None),
    ("cubiclass.cli", "main", None),
)


def package_modules():
    """The loaded cubiclass modules, the package itself included.

    Taken from sys.modules because ``import cubiclass.classify`` yields the
    re-exported *function* of that name, not the module.
    """
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "cubiclass" or name.startswith("cubiclass.")
    ]


class Tracer:
    """In-memory span recorder; use as a context manager to install it."""

    def __init__(self):
        self.spans = []
        self.requests = 0
        self._request = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, name: str):
        """One request (CLI call, form or character): a root span and an id."""
        self.requests += 1
        self._request = self.requests
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def wrap(self, name, fn, summary=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if summary is not None:
                span[VALUE] = summary(result)
            return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__traced_original__ = fn
        return traced

    # -- installing and restoring the wrappers ------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for module, func, summary in TARGETS:
            original = getattr(sys.modules[module], func)
            name = f"{module.rpartition('.')[2]}.{func}"
            wrapper = self.wrap(name, original, summary)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, original))

    def restore(self):
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def installed_wrappers() -> list:
    """Every (module, attribute) of the package still bound to a wrapper."""
    return [
        (m.__name__, attr)
        for m in package_modules()
        for attr, v in vars(m).items()
        if hasattr(v, "__traced_original__")
    ]


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never counts the same instant twice.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


_S = "smoothness"
# Every per-layer metric, in report order, with its unit.
LAYER_UNITS = {
    f"{_S}.is_smooth_mod_q.calls": "count",
    f"{_S}.is_smooth_mod_q.certified": "count",
    f"{_S}.is_smooth_mod_q.failed": "count",
    f"{_S}.is_smooth_mod_q.certified_s": "s",
    f"{_S}.is_smooth_mod_q.failed_s": "s",
    f"{_S}.is_smooth_mod_q.certified_ratio": "ratio",
    f"{_S}.is_smooth_mod_q.failed_wall_share": "ratio",
    f"{_S}.find_smooth_member.calls": "count",
    f"{_S}.find_smooth_member.found": "count",
    f"{_S}.find_smooth_member.found_s": "s",
    f"{_S}.find_smooth_member.none_s": "s",
    f"{_S}.find_smooth_member.found_ratio": "ratio",
    f"{_S}.certify_smooth_over_Q.calls": "count",
    f"{_S}.certify_smooth_over_Q.certified": "count",
    f"{_S}.certify_smooth_over_Q.self_s": "s",
    f"{_S}.basis_size.sum": "count",
    "forms.lemma_base_feasible.calls": "count",
    "forms.lemma_base_feasible.rejected": "count",
    "forms.lemma_base_feasible.self_s": "s",
    "forms.eigenspace_basis.calls": "count",
    "forms.eigenspace_basis.self_s": "s",
    "signatures.enumerate_orbits.calls": "count",
    "signatures.enumerate_orbits.self_s": "s",
    "signatures.enumerate_orbits.classes_out": "count",
    "signatures.canonicalize.calls": "count",
    "signatures.canonicalize.self_s": "s",
    "signatures.scaling_canonical.calls": "count",
    "signatures.scaling_canonical.self_s": "s",
    "admissibility.admissible_primes.calls": "count",
    "admissibility.admissible_primes.self_s": "s",
    "classify.classify_with_audit.calls": "count",
    "classify.classify_with_audit.self_s": "s",
    "classify.accepted": "count",
    "classify.rejected": "count",
    "classify.fermat_order_classes.self_s": "s",
    "hodge.jacobian_ring_character.calls": "count",
    "hodge.jacobian_ring_character.self_s": "s",
    "hodge.klein_tangent_spectrum.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes: int, traced_wall_s: float, untraced_wall_s: float):
    """The per-layer metrics, per traced pass, from the recorded spans.

    ``traced_wall_s`` and ``untraced_wall_s`` are median pass wall times
    with and without the wrappers installed.
    """
    selfs = self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, selfs):
        by_name.setdefault(span[NAME], []).append(
            (span[END] - span[START], self_s, span[VALUE])
        )

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(s for _, s, _ in by_name.get(name, ()))

    def duration(name, keep):
        return sum(d for d, _, v in by_name.get(name, ()) if keep(v))

    def count(name, keep):
        return sum(1 for _, _, v in by_name.get(name, ()) if keep(v))

    smq = "smoothness.is_smooth_mod_q"
    fsm = "smoothness.find_smooth_member"
    cert = "smoothness.certify_smooth_over_Q"
    lemma = "forms.lemma_base_feasible"
    audit = "classify.classify_with_audit"
    # Span values are truthy for a certificate (its basis size), a member
    # found, a certification and a feasible eigenspace.
    certified_s = duration(smq, bool)
    failed_s = duration(smq, not_)

    totals = {
        f"{smq}.calls": calls(smq),
        f"{smq}.certified": count(smq, bool),
        f"{smq}.failed": count(smq, not_),
        f"{smq}.certified_s": certified_s,
        f"{smq}.failed_s": failed_s,
        f"{fsm}.calls": calls(fsm),
        f"{fsm}.found": count(fsm, bool),
        f"{fsm}.found_s": duration(fsm, bool),
        f"{fsm}.none_s": duration(fsm, not_),
        f"{cert}.calls": calls(cert),
        f"{cert}.certified": count(cert, bool),
        f"{cert}.self_s": self_s(cert),
        "smoothness.basis_size.sum": sum(v or 0 for _, _, v in by_name.get(smq, ())),
        f"{lemma}.calls": calls(lemma),
        f"{lemma}.rejected": count(lemma, not_),
        f"{lemma}.self_s": self_s(lemma),
        "classify.accepted": sum(v[0] for _, _, v in by_name.get(audit, ())),
        "classify.rejected": sum(v[1] for _, _, v in by_name.get(audit, ())),
        "signatures.enumerate_orbits.classes_out": sum(
            v for _, _, v in by_name.get("signatures.enumerate_orbits", ())
        ),
    }
    for name in (
        "forms.eigenspace_basis",
        "signatures.enumerate_orbits",
        "signatures.canonicalize",
        "signatures.scaling_canonical",
        "admissibility.admissible_primes",
        audit,
        "hodge.jacobian_ring_character",
        "cli.main",
    ):
        totals[f"{name}.calls"] = calls(name)
        totals[f"{name}.self_s"] = self_s(name)
    for name in ("classify.fermat_order_classes", "hodge.klein_tangent_spectrum"):
        totals[f"{name}.self_s"] = self_s(name)

    out = {k: v / passes for k, v in totals.items()}
    out[f"{smq}.certified_ratio"] = _ratio(
        totals[f"{smq}.certified"], totals[f"{smq}.calls"]
    )
    out[f"{smq}.failed_wall_share"] = _ratio(failed_s / passes, traced_wall_s)
    out[f"{fsm}.found_ratio"] = _ratio(totals[f"{fsm}.found"], totals[f"{fsm}.calls"])
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out
