"""Spans around the program's public functions, recorded from outside.

The program carries no tracing of its own, so the traced run replaces
module attributes and class methods with timing wrappers for the length
of the run and restores them afterwards.  A function imported by name
into another module is patched at every such binding, because a caller
looks it up in its own module.

A span is (id, name, start, end, parent id, operation id), kept as six
doubles in one flat array (a single C-level extend per span, so worker
threads cannot interleave half-written spans) and written out as an .npz
file when the run ends.  A span opened in a worker
thread with nothing open on its own stack takes as parent the span open
on the thread that started the operation.

exactalg._gf2_eliminate is the one private name wrapped: the packed F_2
kernel has no public entry point when sparse_rank reaches it, so
renaming that function redefines exactalg.gf2_eliminate_s.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array

import numpy as np

OP_SPAN = "cli"
GF2_PRIVATE_NAME = "exactalg._gf2_eliminate"
SPAN_COLUMNS = ("id", "name", "start", "end", "parent", "op")


def _targets():
    """(span name, [(owner, attribute)]) for every wrapped binding."""
    from koszulalg import analyze, cli, dgmap, exactalg, gring, koszul, polyring
    return [
        ("gring.ring_build", [(cli, "make_artinian_quotient"),
                              (cli, "make_semigroup_ring")]),
        ("polyring.buchberger", [(gring, "buchberger")]),
        ("polyring.normal_form", [(gring, "normal_form"),
                                  (polyring, "normal_form")]),
        ("gring.mult_triplets", [(gring.ArtinianQuotient, "mult_triplets"),
                                 (gring.SemigroupRing, "mult_triplets")]),
        ("koszul.diff_triplets", [(koszul.KoszulComplex, "diff_triplets")]),
        ("exactalg.sparse_rank", [(exactalg, "sparse_rank")]),
        ("exactalg.gf2_eliminate", [(exactalg, "_gf2_eliminate")]),
        ("exactalg.rank", [(exactalg, "rank")]),
        ("exactalg.rref", [(exactalg, "rref")]),
        ("exactalg.coords_in_span", [(exactalg, "coords_in_span")]),
        ("koszul.betti_table", [(koszul, "betti_table"), (cli, "betti_table"),
                                (analyze, "betti_table")]),
        ("koszul.homology_basis", [(koszul, "homology_basis"),
                                   (cli, "homology_basis"),
                                   (analyze, "homology_basis"),
                                   (dgmap, "homology_basis")]),
        ("koszul.homology_product", [(koszul, "homology_product"),
                                     (cli, "homology_product"),
                                     (analyze, "homology_product")]),
        ("koszul.class_of", [(koszul, "class_of"), (analyze, "class_of"),
                             (dgmap, "class_of")]),
        ("koszul.differential", [(koszul, "differential"),
                                 (analyze, "differential"),
                                 (dgmap, "differential")]),
        ("dgmap.induced_map", [(dgmap, "induced_map"), (cli, "induced_map"),
                               (analyze, "induced_map")]),
        ("dgmap.lift_apply", [(dgmap.Lift, "apply")]),
        ("analyze.check_identity", [(analyze, "check_identity_all")]),
        ("analyze.filtration", [(analyze, "filtration_level"),
                                (analyze, "filtration_dim"),
                                (analyze, "ring_order")]),
        ("analyze.gr", [(analyze, "gr_homology"),
                        (analyze, "gr_induced_identity")]),
        ("analyze.run_suite", [(analyze, "run_suite"), (analyze, "slow_suite")]),
    ]


class Tracer:
    """Records spans and work counts while its wrappers are installed."""

    def __init__(self):
        self.flat = array("d")
        self.names = []
        self.op_id = -1
        self.calls = {}
        self.distinct = {}
        self.strand_nnz = 0
        self.gf2_words = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        root = self._root_stack
        return root[-1] if root else -1

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def _first_time(self, name, key):
        seen = self.distinct.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        tracer = self
        observe = self._observer(name)
        code = self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.flat.extend(
                    (sid, code, start, end, parent, tracer.op_id))
            if observe is not None:
                with tracer._lock:
                    observe(args, result)
            return result

        return traced

    def _observer(self, name):
        """Work counts recorded at the span boundary, outside its time.

        Observers run under the tracer's lock: worker threads of the
        rank-only path report concurrently.
        """
        if name in ("gring.mult_triplets", "koszul.diff_triplets"):
            def observe(args, result):
                self._count(name)
                key = (self.op_id, id(args[0]), args[1], args[2])
                if self._first_time(name, key) and name == "koszul.diff_triplets":
                    self.strand_nnz += len(result)
            return observe
        if name == "exactalg.gf2_eliminate":
            def observe(args, result):
                self._count(name)
                self.gf2_words += int(args[0].shape[0]) * int(args[0].shape[1])
            return observe
        if name in ("exactalg.rref", "exactalg.coords_in_span",
                    "koszul.class_of", "polyring.normal_form"):
            return lambda args, result: self._count(name)
        return None

    def install(self):
        for name, bindings in _targets():
            wrapped = {}
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id, fn):
        """Run one operation as the root span of its own op id."""
        self.op_id = op_id
        stack = self._stack()
        self._root_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.flat.extend(
                (sid, self._name_index(OP_SPAN), start, end, -1, op_id))
            self._root_stack = None

    def spans(self):
        """(n, 6) array of id, name index, start, end, parent id, op id."""
        return np.frombuffer(self.flat, dtype=np.float64).reshape(-1, 6).copy()

    def write(self, path):
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names),
                            columns=np.array(SPAN_COLUMNS))


def layer_times(spans, names):
    """Per span name: (self seconds, inclusive seconds).

    Self time is a span's duration minus the part of it that its child
    spans cover; children from worker threads may overlap each other, so
    the covered part is the union of their intervals.  Inclusive time sums
    only spans with no ancestor of the same name, so nesting is not
    counted twice.
    """
    sid, name = spans[:, 0], spans[:, 1].astype(np.int64)
    start, end, parent = spans[:, 2], spans[:, 3], spans[:, 4]
    order = np.argsort(sid)
    has_parent = parent >= 0
    prow = np.full(len(spans), -1, dtype=np.int64)
    prow[has_parent] = order[np.searchsorted(sid[order], parent[has_parent])]

    # union of child intervals, clipped to the parent, per parent
    kids = np.nonzero(has_parent)[0]
    p = prow[kids]
    lo = np.maximum(start[kids], start[p]) - start[p]
    hi = np.minimum(end[kids], end[p]) - start[p]
    keep = hi > lo
    kids, p, lo, hi = kids[keep], p[keep], lo[keep], hi[keep]
    covered = np.zeros(len(spans))
    if len(kids):
        srt = np.lexsort((lo, p))
        p, lo, hi = p[srt], lo[srt], hi[srt]
        group = np.cumsum(np.r_[True, p[1:] != p[:-1]]) - 1
        # offset each parent's group so a running max never crosses groups
        width = float(hi.max()) + 1.0
        reach = np.maximum.accumulate(group * width + hi) - group * width
        before = np.r_[-np.inf, reach[:-1]]
        before[np.r_[True, p[1:] != p[:-1]]] = -np.inf
        gain = np.maximum(0.0, hi - np.maximum(lo, before))
        covered = np.bincount(p, weights=gain, minlength=len(spans))
    self_s = (end - start) - covered

    outermost = np.ones(len(spans), dtype=bool)
    anc = prow.copy()
    while (anc >= 0).any():
        live = anc >= 0
        outermost[live] &= name[anc[live]] != name[live]
        anc[live] = prow[anc[live]]

    n = len(names)
    self_by = np.bincount(name, weights=self_s, minlength=n)
    incl_by = np.bincount(name[outermost], weights=(end - start)[outermost],
                          minlength=n)
    return ({names[k]: float(self_by[k]) for k in range(n)},
            {names[k]: float(incl_by[k]) for k in range(n)})
