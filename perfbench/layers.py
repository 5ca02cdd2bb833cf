"""The traced run: which gauss_share functions get spans, and the per-layer metrics.

Layers are the library's modules.  Metric names are
`<module>.<function>.<stat>`, with the module's last name component
(`codebook`, `hashing`, ... for gauss_share.protocol.*).
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter

import numpy as np

from spans import Tracer, span_stats

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

# (module, attribute, span name); an attribute "Class.method" wraps a method.
SPANNED = [
    ("gauss_share.cli", "main", "cli.main"),
    ("gauss_share.capacity", "secret_capacity", "capacity.secret_capacity"),
    ("gauss_share.capacity", "rate_region", "capacity.rate_region"),
    ("gauss_share.capacity", "saddle_check", "capacity.saddle_check"),
    ("gauss_share.capacity", "threshold_compare", "capacity.threshold_compare"),
    ("gauss_share.access_structure", "extremal_sets", "access_structure.extremal_sets"),
    ("gauss_share.access_structure", "threshold_structure", "access_structure.threshold_structure"),
    ("gauss_share.protocol.simulate", "run_protocol", "simulate.run_protocol"),
    ("gauss_share.protocol.model", "build_quantized_source", "model.build_quantized_source"),
    ("gauss_share.protocol.model", "sample_source", "model.sample_source"),
    ("gauss_share.protocol.model", "discretize_source", "model.discretize_source"),
    ("gauss_share.protocol.codebook", "build_codebook", "codebook.build_codebook"),
    ("gauss_share.protocol.codebook", "wz_encode", "codebook.wz_encode"),
    ("gauss_share.protocol.codebook", "wz_decode", "codebook.wz_decode"),
    ("gauss_share.protocol.hashing", "privacy_amplify", "hashing.privacy_amplify"),
    ("gauss_share.protocol.hashing", "hash_matrix_for_input", "hashing.hash_matrix_for_input"),
    ("gauss_share.protocol.hashing", "InputHashMatrix.image_distribution", "hashing.image_distribution"),
    ("gauss_share.protocol.info", "entropy", "info.entropy"),
    ("gauss_share.protocol.bounds", "bound_inputs", "bounds.bound_inputs"),
    ("gauss_share.protocol.bounds", "error_bound", "bounds.error_bound"),
    ("gauss_share.protocol.bounds", "achievable_rate_bound", "bounds.achievable_rate_bound"),
]

# Called 2^l times per extremal_sets call, a few microseconds each: a span
# per call would cost more than the call, so these are only counted.
COUNTED = [
    ("gauss_share.source_model", "subset_snr", "source_model.subset_snr"),
    ("gauss_share.source_model", "derive_gain_vector", "source_model.derive_gain_vector"),
]

# Counts worked out from each call's inputs, not measured; they repeat exactly.
COMPUTED = [
    "codebook.cells_scanned",
    "capacity.saddle_check.cells",
    "access_structure.extremal_sets.subsets",
    "capacity.rate_region.points",
]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Installs the spans, records per-op events and turns both into metrics.

    Encoder, decoder and hash-matrix inputs are kept until end_op(), which
    runs between ops, outside the timed region: it works out repeats and
    fallbacks there so the traced ops pay only for appending a record.
    """

    def __init__(self):
        from gauss_share.protocol.codebook import is_jointly_typical

        self._is_jointly_typical = is_jointly_typical
        self.tracer = Tracer()
        self.totals: Counter = Counter()
        self._encodes: list = []
        self._decodes: list = []
        self._hash_inputs: list = []
        self._hooks = {
            "codebook.wz_encode": self._on_encode,
            "codebook.wz_decode": self._on_decode,
            "hashing.hash_matrix_for_input": self._on_hash_matrix,
            "capacity.saddle_check": self._on_saddle_check,
            "access_structure.extremal_sets": self._on_extremal_sets,
            "capacity.rate_region": self._on_rate_region,
        }

    def install(self) -> None:
        for module, attr, name in SPANNED:
            owner, attr = _resolve(module, attr)
            fn = getattr(owner, attr)
            self.tracer.patch(owner, attr, self.tracer.spanned(name, fn, self._hooks.get(name)))
        for module, attr, name in COUNTED:
            owner, attr = _resolve(module, attr)
            self.tracer.patch(owner, attr, self.tracer.counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        self.tracer.unpatch()

    def _on_encode(self, label, codebook, x_seq, epsilon):
        self._encodes.append((codebook, np.array(x_seq), epsilon, label))

    def _on_decode(self, nu, codebook, y_seq, omega, epsilon, joint_vy):
        self._decodes.append((codebook, np.array(y_seq), int(omega), epsilon, joint_vy, nu))

    def _on_hash_matrix(self, matrix, v_bits, k):
        self._hash_inputs.append((np.asarray(v_bits).tobytes(), int(k)))

    def _on_saddle_check(self, check, spec, structure, rp, grid_size=10_000):
        a = len(structure.authorized_masks)
        u = len(structure.unauthorized_masks)
        g = int(grid_size)
        self.totals["capacity.saddle_check.cells"] += (a + u) * g + a * u * g

    def _on_extremal_sets(self, ext, structure, spec):
        self.totals["access_structure.extremal_sets.subsets"] += 2 ** structure.l

    def _on_rate_region(self, region, spec, structure, rp_grid):
        self.totals["capacity.rate_region.points"] += len(rp_grid)

    def end_op(self, output_bytes: int) -> None:
        """Fold the finished op's events into the totals (untimed)."""
        t = self.totals
        t["cli.output_bytes"] += output_bytes
        typical = self._is_jointly_typical

        seen = set()
        for codebook, x, eps, (omega, nu) in self._encodes:
            key = (id(codebook), x.tobytes())
            t["encode.repeat"] += key in seen
            seen.add(key)
            t["encode.fallback"] += not typical(x, codebook.word(omega, nu), codebook.joint_xv, eps)
            t["codebook.cells_scanned"] += codebook.m_omega * codebook.m_nu
        t["encode.total"] += len(self._encodes)

        seen = set()
        for codebook, y, omega, eps, joint_vy, nu in self._decodes:
            key = (id(codebook), omega, y.tobytes(), np.asarray(joint_vy).tobytes())
            t["decode.repeat"] += key in seen
            seen.add(key)
            t["decode.fallback"] += not typical(codebook.word(omega, nu), y, joint_vy, eps)
            t["codebook.cells_scanned"] += codebook.m_nu
        t["decode.total"] += len(self._decodes)

        t["hash.repeat"] += len(self._hash_inputs) - len(set(self._hash_inputs))
        t["hash.total"] += len(self._hash_inputs)

        self._encodes.clear()
        self._decodes.clear()
        self._hash_inputs.clear()

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        """Every per_layer metric of BENCHMARK.json as {"value", "unit"}, in its order."""
        stats = span_stats(self.tracer.spans)
        t = self.totals
        values: dict[str, float] = {
            "trace.overhead_s": overhead_s,
            "codebook.wz_encode.repeat_ratio": _ratio(t["encode.repeat"], t["encode.total"]),
            "codebook.wz_decode.repeat_ratio": _ratio(t["decode.repeat"], t["decode.total"]),
            "hashing.hash_matrix_for_input.repeat_ratio": _ratio(t["hash.repeat"], t["hash.total"]),
            "codebook.wz_encode.fallback_ratio": _ratio(t["encode.fallback"], t["encode.total"]),
            "codebook.wz_decode.fallback_ratio": _ratio(t["decode.fallback"], t["decode.total"]),
            "cli.output_bytes": t["cli.output_bytes"],
        }
        for name in COMPUTED:
            values[name] = t[name]
        layers = {name for _, _, name in SPANNED + COUNTED}
        with open(MANIFEST, encoding="utf-8") as fh:
            listed = json.load(fh)["per_layer"]
        out = {}
        for metric in listed:
            name = metric["name"]
            prefix, _, stat = name.rpartition(".")
            if name in values:
                value = values[name]
            elif prefix in layers and stat in ("calls", "busy_s", "self_s"):
                if prefix in stats:
                    value = stats[prefix][stat]
                else:  # never called, or counted rather than spanned
                    value = self.tracer.counts[prefix] if stat == "calls" else 0.0
            else:
                raise KeyError(f"BENCHMARK.json lists {name}, which the traced run does not measure")
            out[name] = {"value": value, "unit": metric["unit"]}
        return out
