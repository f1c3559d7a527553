"""Outside-in tracing: spans around vslr's public functions.

Nothing under ``src/`` knows about this module.  `Tracer.install` swaps
module and class attributes for wrappers that record spans in memory, and
`uninstall` puts every original object back.  Each op a wrapped ``T.*``
function returns has its ``_vjp`` wrapped too, so backward time is charged
both to the op kind of the node and to the scope that was open when the
node was built.

A span is ``[name, parent, t0, t1, kind, built_in]``: ``kind`` is the op
kind of an ``op`` or ``vjp`` span and ``built_in`` the span that was open
when a ``vjp`` span's node was built.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

import numpy as np

from vslr import attention as A
from vslr import embedding as E
from vslr import mae as M
from vslr import tensor as T
from vslr import train as TR
from vslr import video as V

OP_KINDS = ("gelu", "softmax", "matmul", "linear", "layer_norm", "take")
NOT_OPS = {"reset_macs", "mac_count", "backward", "zero_grads", "grad_check"}
VIDEO = {"load_instance_video": "video.load", "prepare_clip": "video.prepare",
         "to_model_tensor": "video.to_tensor"}


class Patches:
    """Attribute swaps that are all undone together."""

    def __init__(self):
        self.saved: list = []
        self.missing: list = []

    def patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def public_ops() -> list:
    """Names of the graph-building functions in vslr.tensor."""
    return sorted(name for name, fn in vars(T).items()
                  if callable(fn) and not name.startswith("_") and name not in NOT_OPS
                  and getattr(fn, "__module__", None) == T.__name__
                  and not isinstance(fn, type))


class Tracer(Patches):
    """Spans, graph-node counts and held attention weights for the calls
    made while installed.  `mae_model` tells its encoder and decoder apart."""

    def __init__(self, mae_model=None):
        super().__init__()
        self.mae_model = mae_model
        self.spans: list = []
        self.stack: list = []
        self.nodes = 0
        self.weights_bytes = 0
        self.attn_open = 0
        self.passes: list = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, kind=None, built_in=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None,
                           time.perf_counter(), None, kind, built_in])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def span(self, name: str):
        def make(fn):
            def traced(*args, **kwargs):
                i = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
            return traced
        return make

    # -- graph nodes --------------------------------------------------------

    def _node_built(self, out, kind, built_in) -> None:
        self.nodes += 1
        vjp = getattr(out, "_vjp", None)
        if vjp is None:
            return

        def traced_vjp(g):
            i = self.open("vjp", kind, built_in)
            try:
                return vjp(g)
            finally:
                self.close(i)
        out._vjp = traced_vjp

    def op(self, kind: str):
        def make(fn):
            def traced(*args, **kwargs):
                i = self.open("op", kind)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if kind == "softmax" and self.attn_open and out._vjp is not None:
                    self.weights_bytes += out.data.nbytes
                self._node_built(out, kind, self.stack[-1] if self.stack else None)
                return out
            return traced
        return make

    # -- install --------------------------------------------------------------

    def install(self) -> "Tracer":
        for name in public_ops():
            self.patch(T, name, self.op(name if name in OP_KINDS else "other"))
        self.patch(T, "backward", self.span("tensor.backward"))

        self.patch(A, "divided_block", self._passes(["temporal", "spatial"]))
        self.patch(A, "joint_block", self._passes(["joint"]))
        self.patch(A, "multi_head_attention", self._attention)
        self.patch(E.Embedding, "embed", self.span("embedding"))
        for mod in (TR, M):
            self.patch(mod, "encoder_forward", self._encoder)
            for fn, name in VIDEO.items():
                self.patch(mod, fn, self.span(name))
        for fn, name in VIDEO.items():
            self.patch(V, fn, self.span(name))
        self.patch(M, "make_tube_mask", self.span("mae.mask"))
        self.patch(M, "reconstruction_loss", self.span("mae.loss"))
        self.patch(M, "normalized_cube_targets", self.span("mae.loss"))
        self.patch(TR.Adam, "step", self.span("train.adam"))
        self.patch(TR, "cross_entropy", self._loss)
        self.patch(TR, "finetune", self.span("train.finetune"))
        self.patch(TR, "evaluate", self._evaluate)
        return self

    def _passes(self, kinds: list):
        """Pass kind comes from call order inside a block."""
        def make(fn):
            def traced(*args, **kwargs):
                saved, self.passes = self.passes, list(kinds)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.passes = saved
            return traced
        return make

    def _attention(self, fn):
        def traced(*args, **kwargs):
            kind = self.passes.pop(0) if self.passes else "unlabelled"
            i = self.open(f"attention.{kind}")
            self.attn_open += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.attn_open -= 1
                self.close(i)
        return traced

    def _encoder(self, fn):
        def traced(tb, blocks, *args, **kwargs):
            name = "encoder"
            if self.mae_model is not None:
                if blocks is self.mae_model.enc_blocks:
                    name = "mae.encoder"
                elif blocks is self.mae_model.dec_blocks:
                    name = "mae.decoder"
            i = self.open(name)
            try:
                return fn(tb, blocks, *args, **kwargs)
            finally:
                self.close(i)
        return traced

    def _loss(self, fn):
        def traced(*args, **kwargs):
            i = self.open("train.loss")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            self._node_built(out, None, i)
            return out
        return traced

    def _evaluate(self, fn):
        def traced(*args, **kwargs):
            if not self.in_span("train.finetune"):
                return fn(*args, **kwargs)
            i = self.open("train.test_eval")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

class GraphMemory(Patches):
    """Bytes tracemalloc still sees held when a forward returns, which is
    the autodiff graph plus the output; keeps the largest per forward."""

    def __init__(self):
        super().__init__()
        self.peak = 0

    def install(self) -> "GraphMemory":
        self.patch(TR.ClassifierModel, "forward", self._held)
        self.patch(M, "mae_forward", self._held)
        tracemalloc.start()
        return self

    def _held(self, fn):
        def traced(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[0] - before)
            return out
        return traced

    def uninstall(self) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        super().uninstall()


class LogitCheck(Patches):
    """Records whether every classifier forward returned finite logits."""

    def __init__(self):
        super().__init__()
        self.forwards = 0
        self.finite = True

    def install(self) -> "LogitCheck":
        self.patch(TR.ClassifierModel, "forward", self._check)
        return self

    def _check(self, fn):
        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            logits = out[0] if isinstance(out, tuple) else out
            self.forwards += 1
            self.finite = self.finite and bool(np.isfinite(logits.data).all())
            return out
        return traced


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [sp[3] - sp[2] for sp in spans]
    for sp in spans:
        if sp[1] is not None:
            own[sp[1]] -= sp[3] - sp[2]
    return own


def _nearest(spans: list, idx, scopes) -> str | None:
    while idx is not None:
        if spans[idx][0] in scopes:
            return spans[idx][0]
        idx = spans[idx][1]
    return None


def charge(spans: list, scopes) -> dict:
    """Seconds per layer, counted two ways that each cover the whole run.

    By op kind: ``tensor.<kind>.fwd``/``.bwd`` from op and vjp spans, and
    ``tensor.backward_self`` for backward minus its vjps.  By scope: every
    other span's self time, and every op's, goes to the nearest enclosing
    span named in ``scopes`` as ``<scope>.fwd``; a vjp goes to the nearest
    scope around where its node was built, as ``<scope>.bwd``.  Scopes not
    in ``scopes`` are transparent.
    """
    own = self_times(spans)
    out: dict = defaultdict(float)
    for i, (name, parent, _, _, kind, built_in) in enumerate(spans):
        if name == "op":
            out[f"tensor.{kind}.fwd"] += own[i]
            scope = _nearest(spans, parent, scopes)
            if scope:
                out[f"{scope}.fwd"] += own[i]
        elif name == "vjp":
            if kind:
                out[f"tensor.{kind}.bwd"] += own[i]
            scope = _nearest(spans, built_in, scopes)
            if scope:
                out[f"{scope}.bwd"] += own[i]
        elif name == "tensor.backward":
            out["tensor.backward_self"] += own[i]
        else:
            scope = _nearest(spans, i, scopes)
            if scope:
                out[f"{scope}.fwd"] += own[i]
    return dict(out)


def scopes_for(layers: list) -> set:
    """The span names that per-layer time metrics (names without the job
    prefix) refer to: `embedding.fwd_ms` -> embedding, `mae.mask_ms` ->
    mae.mask.  Op-kind metrics under `tensor.` name no span."""
    found = set()
    for layer in layers:
        if layer.startswith("tensor.") or not layer.endswith("_ms"):
            continue
        for suffix in (".fwd_ms", ".bwd_ms", "_ms"):
            if layer.endswith(suffix):
                found.add(layer[:-len(suffix)])
                break
    return found


def seconds_for(layer: str, charged: dict) -> float:
    """Seconds `charge` gave one per-layer time metric; a `<scope>_ms`
    metric with no fwd/bwd split takes both."""
    stem = layer[:-3]
    if layer.startswith("tensor.") or layer.endswith((".fwd_ms", ".bwd_ms")):
        return charged.get(stem, 0.0)
    return charged.get(f"{stem}.fwd", 0.0) + charged.get(f"{stem}.bwd", 0.0)
