"""Span tracer for the traced run, recorded only from the benchmark's side.

``Tracer`` wraps every public function of each layer module in every
``infopurity`` namespace that binds it (the package, the defining module
and each sibling that imported it), so intra-module calls such as
``Povm.__init__ -> eig_hermitian`` and cross-module ones such as the
see-saw's ``infomeasures.eig_hermitian`` are both seen.  Value-object
constructors are wrapped through ``__init__`` rather than replaced, because
the library relies on ``isinstance``.  ``install`` and ``uninstall`` only
swap the prepared wrappers in and out, so a run can trace every other item.

Spans stay in memory as flat arrays (name, start, end, parent) with a
sparse table of extra facts, and are written out at the end.  Only the
main thread records; the Monte Carlo worker threads call no wrapped
function.  The layers are the package modules; ``bench`` is the
benchmark's own code (item glue and checks), the root span of each item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("operators", "entropy", "tradeoff", "infomeasures", "montecarlo", "fileio", "cli")
SELF_LAYERS = LAYERS + ("bench",)
CONSTRUCTORS = ("DensityOperator", "Ensemble", "Povm")
ITEM = "bench.item"
MC_BASELINE = "bench.mc_baseline"


def _result_stats(args, kwargs, out):
    return {"iterations": out.iterations, "converged": bool(out.converged)}


def _encoded_bytes(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


def _decoded_bytes(args, kwargs, out):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _mc_samples(args, kwargs, out):
    return {"samples": out.samples}


# extra facts recorded on a span, by function name
HOOKS = {
    "accessible_info_opt": _result_stats,
    "informational_power_opt": _result_stats,
    "encode_ensemble": _encoded_bytes,
    "encode_povm": _encoded_bytes,
    "decode_ensemble": _decoded_bytes,
    "decode_povm": _decoded_bytes,
    "mc_min_power_estimate": _mc_samples,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extra: dict[int, dict] = {}
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._patches = self._prepare()
        self._roots: dict = {}

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn, hook=None, cpu: bool = False):
        self.names.append(name)
        nid = len(self.names) - 1
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, extra, main = self._stack, self.extra, self._main
        clock, cpu_clock, ident = time.perf_counter, time.process_time, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ident() != main:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            cpu0 = cpu_clock() if cpu else 0.0
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None or cpu:
                facts = hook(args, kwargs, out) if hook is not None else {}
                if cpu:
                    facts["cpu"] = cpu_clock() - cpu0
                extra[idx] = facts
            return out

        return traced

    def _prepare(self) -> list[tuple]:
        """(namespace, attribute, original, wrapper) for every binding."""
        import infopurity

        modules = {layer: importlib.import_module(f"infopurity.{layer}") for layer in LAYERS}
        namespaces = [infopurity] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith("infopurity.")
        ]
        patches = []
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(
                    f"{layer}.{attr}", fn, HOOKS.get(attr), cpu=layer == "montecarlo"
                )
                patches += [
                    (ns, key, fn, wrapper)
                    for ns in namespaces
                    for key, value in vars(ns).items()
                    if value is fn
                ]
        for cls_name in CONSTRUCTORS:
            cls = getattr(modules["operators"], cls_name)
            init = cls.__dict__["__init__"]
            patches.append((cls, "__init__", init, self._wrap(f"operators.{cls_name}", init)))
        return patches

    def install(self) -> None:
        for ns, key, _, wrapper in self._patches:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in self._patches:
            setattr(ns, key, original)

    def root(self, name: str, item: int, fn, *args):
        """Run ``fn(*args)`` as a root span tagged with its item index."""
        if name not in self._roots:
            self._roots[name] = self._wrap(
                name, lambda item, fn, *args: fn(*args), lambda a, k, out: {"item": a[0]}
            )
        return self._roots[name](item, fn, *args)


# --------------------------------------------------------------------------
# per-layer metrics from the recorded spans

# per-layer metric -> (the end-to-end metric it should move, on which
# workload); names, units and directions are in BENCHMARK.json
PREDICTIONS = {
    "operators.eig_calls_per_item": ("items_per_s, item_tail_ms", "sandwich"),
    "operators.eig_us_per_call": ("items_per_s, item_tail_ms", "sandwich"),
    "operators.eig_share": ("items_per_s, item_tail_ms", "sandwich"),
    "operators.construct_s_per_item": ("items_per_s", "scrooge-power"),
    "operators.born_joint_us_per_call": ("none (final checks only)", "all"),
    "entropy.subentropy_us_per_call": ("items_per_s", "curve-mc"),
    "entropy.mutual_information_us_per_call": ("none (final checks only)", "all"),
    "tradeoff.curve_point_us": ("items_per_s", "curve-mc"),
    "tradeoff.scrooge_build_s_per_item": ("items_per_s", "scrooge-power"),
    "infomeasures.acc_opt_s_per_item": ("items_per_s", "sandwich"),
    "infomeasures.acc_sweeps_per_item": ("items_per_s", "sandwich"),
    "infomeasures.acc_converged_frac": ("items_per_s", "sandwich"),
    "infomeasures.bounds_us_per_item": ("items_per_s (slightly)", "sandwich"),
    "infomeasures.sym_bound_s_per_item": ("items_per_s", "sandwich"),
    "infomeasures.power_opt_s_per_item": ("items_per_s, item_p50_ms", "scrooge-power"),
    "infomeasures.power_sweeps_per_item": ("items_per_s, item_p50_ms", "scrooge-power"),
    "infomeasures.power_converged_frac": ("items_per_s, item_p50_ms", "scrooge-power"),
    "fileio.encode_mb_per_s": ("items_per_s, peak_rss_mb", "scrooge-power"),
    "fileio.decode_mb_per_s": ("items_per_s, peak_rss_mb", "scrooge-power"),
    "fileio.bytes_per_item": ("items_per_s, peak_rss_mb", "scrooge-power"),
    "montecarlo.samples_per_s": ("item_tail_ms", "curve-mc"),
    "montecarlo.cpu_per_wall": ("item_tail_ms", "curve-mc"),
    "montecarlo.thread_speedup": ("item_tail_ms", "curve-mc"),
    **{
        f"{layer}.self_s_per_item": ("about 0 everywhere" if layer == "cli" else "items_per_s", "all")
        for layer in SELF_LAYERS
    },
    "trace.overhead_frac": ("none (traced wall / untraced wall - 1)", "all"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus the per-item self-time table.

    A span's self time is its duration minus that of its direct children,
    so the self times of one item's spans add up to the item's wall time.
    A layer the workload never enters reports 0.
    """
    count = len(tracer)
    names = np.array(tracer.names, dtype=object)
    name_id = np.array(tracer.name_id, dtype=np.int64)
    dur = np.array(tracer.end) - np.array(tracer.start)
    parent = np.array(tracer.parent, dtype=np.int64)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)

    # spans are appended at entry, so a parent always precedes its children
    is_ctor = np.array([n.split(".", 1)[1] in CONSTRUCTORS for n in names])[name_id]
    root = np.arange(count)
    under_ctor = np.zeros(count, dtype=bool)
    for i in np.flatnonzero(has_parent).tolist():
        p = parent[i]
        root[i] = root[p]
        under_ctor[i] = is_ctor[p] or under_ctor[p]
    span_name = names[name_id]
    item_roots = np.flatnonzero(span_name == ITEM)
    in_item = np.isin(root, item_roots)
    items = len(item_roots)
    item_wall = float(dur[item_roots].sum())

    def pick(*wanted: str) -> np.ndarray:
        return in_item & np.isin(span_name, wanted)

    def facts(mask: np.ndarray, key: str) -> list:
        # a call that raised recorded no facts
        return [tracer.extra[i][key] for i in np.flatnonzero(mask).tolist() if i in tracer.extra]

    def mean_us(mask: np.ndarray) -> float:
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    def per_item(mask: np.ndarray, scale: float = 1.0) -> float:
        return _ratio(float(dur[mask].sum()) * scale, items)

    eig = pick("operators.eig_hermitian")
    ctor = in_item & is_ctor & ~under_ctor
    acc = pick("infomeasures.accessible_info_opt")
    power = pick("infomeasures.informational_power_opt")
    encoders = ("fileio.encode_ensemble", "fileio.encode_povm")
    decoders = ("fileio.decode_ensemble", "fileio.decode_povm")
    enc = pick(*encoders, "fileio.save_ensemble", "fileio.save_povm")
    dec = pick(*decoders, "fileio.load_ensemble", "fileio.load_povm")
    enc_bytes = sum(facts(pick(*encoders), "bytes"))
    dec_bytes = sum(facts(pick(*decoders), "bytes"))
    mc = pick("montecarlo.mc_min_power_estimate")

    # the thread baseline re-runs the Monte Carlo of the first items at one thread
    base = (span_name == "montecarlo.mc_min_power_estimate") & (span_name[root] == MC_BASELINE)
    def item_of(r: int):
        return tracer.extra.get(r, {}).get("item")

    base_items = {item_of(r) for r in set(root[base].tolist())}
    paired_roots = [r for r in item_roots.tolist() if item_of(r) in base_items]
    paired = mc & np.isin(root, paired_roots)

    metrics = {
        "operators.eig_calls_per_item": _ratio(int(eig.sum()), items),
        "operators.eig_us_per_call": mean_us(eig),
        "operators.eig_share": _ratio(float(dur[eig].sum()), item_wall),
        "operators.construct_s_per_item": per_item(ctor),
        "operators.born_joint_us_per_call": mean_us(pick("operators.born_joint")),
        "entropy.subentropy_us_per_call": mean_us(pick("entropy.subentropy")),
        "entropy.mutual_information_us_per_call": mean_us(pick("entropy.mutual_information")),
        "tradeoff.curve_point_us": mean_us(
            pick("tradeoff.min_informational_power", "tradeoff.max_accessible_information")
        ),
        "tradeoff.scrooge_build_s_per_item": per_item(pick("tradeoff.depolarized_scrooge_povm")),
        "infomeasures.acc_opt_s_per_item": per_item(acc),
        "infomeasures.acc_sweeps_per_item": _ratio(sum(facts(acc, "iterations")), items),
        "infomeasures.acc_converged_frac": _ratio(sum(facts(acc, "converged")), int(acc.sum())),
        "infomeasures.bounds_us_per_item": per_item(
            pick("infomeasures.jrw_lower", "infomeasures.holevo_upper"), 1e6
        ),
        "infomeasures.sym_bound_s_per_item": per_item(pick("infomeasures.symmetric_upper_bound")),
        "infomeasures.power_opt_s_per_item": per_item(power),
        "infomeasures.power_sweeps_per_item": _ratio(sum(facts(power, "iterations")), items),
        "infomeasures.power_converged_frac": _ratio(
            sum(facts(power, "converged")), int(power.sum())
        ),
        "fileio.encode_mb_per_s": _ratio(enc_bytes / 1e6, float(self_time[enc].sum())),
        "fileio.decode_mb_per_s": _ratio(dec_bytes / 1e6, float(self_time[dec].sum())),
        "fileio.bytes_per_item": _ratio(enc_bytes + dec_bytes, items),
        "montecarlo.samples_per_s": _ratio(sum(facts(mc, "samples")), float(dur[mc].sum())),
        "montecarlo.cpu_per_wall": _ratio(sum(facts(mc, "cpu")), float(dur[mc].sum())),
        "montecarlo.thread_speedup": _ratio(float(dur[base].sum()), float(dur[paired].sum())),
    }
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)[name_id]
    table = {
        layer: _ratio(float(self_time[in_item & (layer_of == layer)].sum()), items)
        for layer in SELF_LAYERS
    }
    for layer, seconds in table.items():
        metrics[f"{layer}.self_s_per_item"] = seconds
    metrics["trace.overhead_frac"] = overhead_frac
    summary = {
        "items": items,
        "item_wall_s": item_wall,
        "self_s_per_item": table,
        "accounted_frac": _ratio(sum(table.values()) * items, item_wall),
        "spans": count,
    }
    return metrics, summary


def write_spans(path, tracer: Tracer) -> None:
    """The spans as compressed numpy arrays: the name table, each span's
    name index, parent index (-1 for a root), start and end in seconds."""
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.array(tracer.name_id, dtype=np.int32),
        parent=np.array(tracer.parent, dtype=np.int32),
        start=np.array(tracer.start),
        end=np.array(tracer.end),
    )
