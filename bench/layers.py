"""Which tpir functions the traced run times, and the per-layer metrics.

Each layer is wrapped at every name its callers look it up by: ``simnet``,
``scheme`` and ``audit`` bind ``build_layout`` as a module global, so all
four bindings are replaced; everything else is reached as a module or class
attribute. Only public names are touched.
"""

from __future__ import annotations

import statistics
import weakref
from contextlib import contextmanager

import numpy as np

from tpir import audit, layout, linalg, mds, scheme, simnet

from spans import ROOT, Recorder, self_times_ns

SETUP = "setup"  # operation id of spans recorded while the workload sets up


def _product_ops(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    (m, k), n = np.shape(a), np.shape(b)[1]
    return {"ops": m * k * n}


def _cube_ops(args, kwargs, result):
    n = np.shape(args[0] if args else kwargs["a"])[0]
    return {"ops": n**3}


def _plan_nnz(args, kwargs, result):
    if result is None:
        return None
    return {
        "nnz": sum(int(np.count_nonzero(m)) for m in result.matrices),
        "entries": sum(m.size for m in result.matrices),
    }


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)} if result is not None else None


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["buf"])}


def _sweep_decodes(args, kwargs, result):
    return {"decodes": result.details.get("decodes", 0)} if result is not None else None


def _empirical_samples(args, kwargs, result):
    if result is None:
        return None
    params = args[0] if args else kwargs["params"]
    return {"samples": result.details["samples_per_index"] * params.K}


class _ColdDecode:
    """Marks the first ``decode`` on each Decoder instance as cold."""

    def __init__(self):
        self._seen = weakref.WeakSet()

    def __call__(self, args, kwargs, result):
        decoder = args[0]
        cold = decoder not in self._seen
        self._seen.add(decoder)
        return {"cold": cold}


def layer_sites():
    """(layer name, [(owner, attribute), ...], annotate) for every wrapped layer."""
    codec = [
        ("simnet.encode_query", _bytes_out),
        ("simnet.decode_query", _bytes_in),
        ("simnet.encode_answer", _bytes_out),
        ("simnet.decode_answer", _bytes_in),
    ]
    checks = [
        ("audit.structural_privacy_check", None),
        ("audit.correctness_sweep", _sweep_decodes),
        ("audit.empirical_privacy_check", _empirical_samples),
        ("audit.capacity_shape_check", None),
    ]
    return [
        ("linalg.sample_uniform_full_rank", [(linalg, "sample_uniform_full_rank")], None),
        ("linalg.invert", [(linalg, "invert")], _cube_ops),
        ("linalg.mat_mul", [(linalg, "mat_mul")], _product_ops),
        ("mds.vandermonde_inverse", [(mds, "vandermonde_inverse")], None),
        ("mds.generator", [(mds, "generator")], None),
        (
            "layout.build_layout",
            [(mod, "build_layout") for mod in (layout, scheme, simnet, audit)],
            None,
        ),
        ("scheme.sample_secrets", [(scheme, "sample_secrets")], None),
        ("scheme.build_queries", [(scheme, "build_queries")], _plan_nnz),
        ("scheme.answer_query", [(scheme, "answer_query")], None),
        ("scheme.Decoder.decode", [(scheme.Decoder, "decode")], _ColdDecode()),
        *[(name, [(simnet, name.split(".")[1])], fn) for name, fn in codec],
        ("simnet.DatabaseNode.answer", [(simnet.DatabaseNode, "answer")], None),
        *[(name, [(audit, name.split(".")[1])], fn) for name, fn in checks],
    ]


LAYERS = [name for name, _, _ in layer_sites()]
CODECS = [n for n in LAYERS if n.startswith("simnet.") and n.endswith(("_query", "_answer"))]
CHECKS = [n for n in LAYERS if n.startswith("audit.")]

# Layers that must be called at least once in a traced run (set-up included).
# Zero calls means a caller no longer goes through the wrapper, or the layer
# left that path; either way its time would land in its caller's self time.
EXPECTED_CALLS = {
    "retrieve-L625": set(LAYERS) - set(CHECKS),
    "serve-L625": {
        "linalg.sample_uniform_full_rank",
        "linalg.mat_mul",
        "mds.generator",
        "layout.build_layout",
        "scheme.sample_secrets",
        "scheme.build_queries",
        "scheme.answer_query",
        "simnet.encode_query",
        "simnet.decode_query",
        "simnet.encode_answer",
        "simnet.DatabaseNode.answer",
    },
    "audit": set(LAYERS),
}


class TracedRun:
    """Set-up and even-numbered operations run with every layer wrapped, odd ones not.

    Operations 2j and 2j+1 both get the workload's inputs for j, so the two
    operations of a pair do the same work and their ratio is the cost of
    tracing.
    """

    def __init__(self):
        self.recorder = Recorder()
        self.traced_ops = set()
        self.missing_sites = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, sites, annotate in layer_sites():
            for owner, attr in sites:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing_sites.append(f"{name} at {owner.__name__}.{attr}")
                    continue
                wrapper = self.recorder.wrap(name, original, annotate)
                self._patches.append((owner, attr, original, wrapper))

    def _install(self, wrapped: bool):
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if wrapped else original)

    @contextmanager
    def _traced(self, op, name):
        self.recorder.op = op
        self._install(True)
        try:
            with self.recorder.span(name):
                yield
        finally:
            self._install(False)
            self.recorder.op = None

    def setup(self):
        return self._traced(SETUP, "setup")

    @contextmanager
    def around(self, i):
        if i % 2:
            yield
            return
        self.traced_ops.add(i)
        with self._traced(i, "op"):
            yield

    @staticmethod
    def paired(inputs):
        """``inputs`` with operations 2j and 2j+1 both given the inputs of j."""
        return lambda i: inputs(i // 2)

    def summary(self, workload: str, records, names):
        seconds = {r.index: r.seconds for r in records}
        ratios = [seconds[i] / seconds[i + 1] for i in self.traced_ops if i + 1 in seconds]
        return summarize(self.recorder.spans, workload, ratios, names)


def summarize(spans, workload: str, pair_ratios: list[float], names):
    """The per-layer metrics ``names`` of one traced run, and the expected layers never called.

    ``pair_ratios`` are traced over untraced seconds of operations with the
    same inputs. Counts, self times and computed operations are per traced operation;
    ``cold_s``/``warm_s`` are the mean inclusive time of one decode call;
    ``query_nnz_frac`` covers every plan built, set-up included.
    """
    selfs = self_times_ns(spans)
    ops = {s.op for s in spans if isinstance(s.op, int)}
    n = max(len(ops), 1)
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    attr_sum: dict[tuple[str, str], float] = {}
    decode_ns = {True: [], False: []}
    setup_sampler_ns = 0
    nnz = entries = 0
    root_ns = root_self_ns = 0
    for s, own in zip(spans, selfs):
        if s.name == "scheme.build_queries" and s.attrs:
            nnz += s.attrs["nnz"]
            entries += s.attrs["entries"]
        if s.op == SETUP and s.name == "linalg.sample_uniform_full_rank":
            setup_sampler_ns += own
        if s.op not in ops:
            continue
        if s.parent == ROOT:
            root_ns += s.duration_ns
            root_self_ns += own
            continue
        calls[s.name] += 1
        self_ns[s.name] += own
        for key, value in s.attrs.items():
            if key == "cold":
                decode_ns[value].append(s.duration_ns)
            else:
                attr_sum[s.name, key] = attr_sum.get((s.name, key), 0) + value

    all_calls = {name: 0 for name in LAYERS}
    for s in spans:
        if s.name in all_calls:
            all_calls[s.name] += 1
    missing = sorted(
        name for name in EXPECTED_CALLS[workload] if all_calls[name] == 0
    )

    codec_ns = sum(self_ns[c] for c in CODECS)
    codec_bytes = sum(attr_sum.get((c, "bytes"), 0) for c in CODECS)
    out = {
        "setup.linalg.sample_uniform_full_rank.self_s": setup_sampler_ns / 1e9,
        "scheme.query_nnz_frac": nnz / entries if entries else 0.0,
        "scheme.Decoder.decode.cold_s": _mean_s(decode_ns[True]),
        "scheme.Decoder.decode.warm_s": _mean_s(decode_ns[False]),
        "simnet.codec_mb_per_s": codec_bytes / 1e6 / (codec_ns / 1e9) if codec_ns else 0.0,
        "trace.covered_frac": 1 - root_self_ns / root_ns if root_ns else 0.0,
        "trace.overhead_frac": statistics.median(pair_ratios) - 1 if pair_ratios else 0.0,
        "trace.missing_layers": len(missing),
    }
    for name in names:
        if name in out:
            continue
        layer, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = calls[layer] / n
        elif stat == "self_s":
            out[name] = self_ns[layer] / 1e9 / n
        else:  # ops, decodes, samples: an attribute summed over the layer's spans
            out[name] = attr_sum.get((layer, stat), 0) / n
    return out, missing


def _mean_s(values_ns) -> float:
    return statistics.fmean(values_ns) / 1e9 if values_ns else 0.0

