"""Per-layer tracing of saberxbar from outside the package.

A hook replaces a function or method with a wrapper that records a span
(duration, and self time: the duration minus the time covered by child
spans). A module-level function is replaced at every binding of it in every
loaded `saberxbar` module, so a call reaches the wrapper whichever module
makes it. A hook whose target no longer exists is reported missing and the
run goes on. Nothing is hooked until `Tracer.install` runs, and
`Tracer.uninstall` puts every original back.
"""

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

ALGS = ("SB", "K2", "K4", "TC4", "TC4K2")
BACKENDS = ALGS + ("Xbar", "NoisySample")

# Criterion 10's census for the default parameter set (l = 3, n = 256, 4-bit
# cells): polymults per call, and work-slot cell bits written per call.
POLYMULTS_PER_CALL = {"keygen": 9, "encrypt": 12, "decrypt": 3}
CELL_BITS_PER_CALL = {"encrypt": 3072, "decrypt": 0}
_CENSUS_ATTRS = ("mult_count", "cell_bits_written", "boot_cell_bits")

# (span name, module, attribute path, argument that names the variant)
_FUNCTIONS = [
    ("ring.gen_matrix", "saberxbar.ring", "gen_matrix", None),
    ("ring.sample_secret", "saberxbar.ring", "sample_secret", None),
    ("polymult.conv_raw", "saberxbar.polymult", "conv_raw", "alg"),
    ("xbar.XbarBackend.install_boot_secret", "saberxbar.xbar",
     "XbarBackend.install_boot_secret", None),
    ("xbar.XbarBackend.program_secret", "saberxbar.xbar",
     "XbarBackend.program_secret", None),
    ("xbar.XbarBackend.mul_raw", "saberxbar.xbar", "XbarBackend.mul_raw", None),
    ("xbar.NoisySampleBackend.mul_raw", "saberxbar.xbar",
     "NoisySampleBackend.mul_raw", None),
    ("pke.keygen", "saberxbar.pke", "keygen", "backend"),
    ("pke.encrypt", "saberxbar.pke", "encrypt", "backend"),
    ("pke.decrypt", "saberxbar.pke", "decrypt", "backend"),
    ("pke.SoftwareBackend.mul_raw", "saberxbar.pke", "SoftwareBackend.mul_raw", None),
    ("pke.pack_public_key", "saberxbar.pke", "pack_public_key", None),
    ("pke.unpack_public_key", "saberxbar.pke", "unpack_public_key", None),
    ("pke.pack_ciphertext", "saberxbar.pke", "pack_ciphertext", None),
    ("pke.unpack_ciphertext", "saberxbar.pke", "unpack_ciphertext", None),
    ("experiments.run_roundtrips", "saberxbar.experiments", "run_roundtrips", None),
    ("experiments.run_noise", "saberxbar.experiments", "run_noise", None),
]


def span_names():
    """Every span name the hooks can record, variants expanded."""
    names = []
    for base, _, _, variant in _FUNCTIONS:
        if variant == "alg":
            names += [f"{base}.{a}" for a in ALGS]
        elif variant == "backend":
            names += [f"{base}.{b}" for b in BACKENDS]
        else:
            names.append(base)
    return names


def backend_label(backend) -> str:
    alg = getattr(backend, "algorithm", None)
    if alg is not None:
        return alg.value
    return type(backend).__name__.removesuffix("Backend")


def _arg_getter(fn, param):
    """Read argument `param` of a call to `fn` without binding the signature."""
    params = list(inspect.signature(fn).parameters.values())
    index = [p.name for p in params].index(param)
    default = params[index].default

    def get(args, kwargs):
        if param in kwargs:
            return kwargs[param]
        if len(args) > index:
            return args[index]
        return None if default is inspect.Parameter.empty else default
    return get


class Tracer:
    def __init__(self):
        self.children = []                  # per open span: child time so far
        self.durations = defaultdict(list)  # span name -> seconds per call
        self.self_s = defaultdict(float)
        self.top_level_s = 0.0
        self.counts = defaultdict(int)
        self.violations = set()
        self.missing = []
        self._undo = []
        self._gen_matrix = None

    # -- recording ----------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        self.children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self.children.pop()
            self.durations[name].append(dt)
            self.self_s[name] += dt - child
            if self.children:
                self.children[-1] += dt
            else:
                self.top_level_s += dt

    def _census(self, kind, label, backend, fn, args, kwargs):
        """Time a pke call and check its polymult and cell-bit deltas."""
        before = [getattr(backend, a, 0) for a in _CENSUS_ATTRS]
        out = self._timed(f"pke.{kind}.{label}", fn, args, kwargs)
        mults, bits, boot = (getattr(backend, a, 0) - b
                             for a, b in zip(_CENSUS_ATTRS, before))
        self.counts["pke.polymults"] += mults
        self.counts["xbar.cell_bits_written"] += bits
        self.counts["xbar.boot_cell_bits"] += boot
        if mults != POLYMULTS_PER_CALL[kind]:
            self.violations.add(f"{kind} on {label}: {mults} polymults, "
                                   f"want {POLYMULTS_PER_CALL[kind]}")
        if hasattr(backend, "boot_cell_bits") and kind in CELL_BITS_PER_CALL:
            want = CELL_BITS_PER_CALL[kind]
            if bits != want or boot != 0:
                self.violations.add(f"{kind} on {label}: {bits} cell bits "
                                       f"and {boot} boot bits, want {want} and 0")
        return out

    def _wrapper(self, base, fn, variant):
        if variant == "alg":
            get = _arg_getter(fn, "alg")

            def wrapped(*args, **kwargs):
                return self._timed(f"{base}.{get(args, kwargs).value}",
                                   fn, args, kwargs)
        elif variant == "backend":
            get, kind = _arg_getter(fn, "backend"), base.split(".")[1]

            def wrapped(*args, **kwargs):
                backend = get(args, kwargs)
                return self._census(kind, backend_label(backend), backend,
                                    fn, args, kwargs)
        else:
            def wrapped(*args, **kwargs):
                return self._timed(base, fn, args, kwargs)
        return wrapped

    # -- installing ---------------------------------------------------------

    def install(self):
        gen = getattr(_module("saberxbar.ring"), "gen_matrix", None)
        if hasattr(gen, "cache_info"):
            self._gen_matrix, self._cache_base = gen, gen.cache_info()
        else:
            self.missing.append("ring.gen_matrix.hit_ratio")
        for base, modname, path, variant in _FUNCTIONS:
            owner = _module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            try:
                wrapped = self._wrapper(base, fn, variant) if fn else None
            except ValueError:  # the argument naming the variant is gone
                wrapped = None
            if wrapped is None:
                self.missing.append(base)
            elif cls_path:
                self._replace(owner, attr, fn, wrapped)
            else:
                for mod in _package_modules():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, name, fn, wrapped)
        self._count_xof_bytes()

    def _count_xof_bytes(self):
        cls = getattr(_module("saberxbar.xof"), "Shake128Xof", None)
        squeeze = vars(cls).get("squeeze") if cls is not None else None
        if squeeze is None:
            self.missing.append("xof.bytes_per_op")
            return

        def counted(xof, count):
            out = squeeze(xof, count)
            self.counts["xof.bytes"] += len(out)
            return out
        self._replace(cls, "squeeze", squeeze, counted)

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts so far: calls per span name, counters, gen_matrix cache."""
        snap = {f"calls:{k}": len(v) for k, v in self.durations.items()}
        snap.update(self.counts)
        if self._gen_matrix is not None:
            info, base = self._gen_matrix.cache_info(), self._cache_base
            snap["cache.hits"] = info.hits - base.hits
            snap["cache.misses"] = info.misses - base.misses
        return snap

    def metrics(self, prefix: dict, prefix_ops: int, useful_decrypts: int,
                ops: int) -> dict:
        """Per-layer metrics. Counts come from `prefix`, the snapshot after
        the first `prefix_ops` ops (which made `useful_decrypts` successful
        decryptions), so they repeat exactly for a seed; times come from all
        `ops` traced ops."""
        out = {}
        for name in span_names():
            if not self._present(name):
                continue
            d = self.durations.get(name, [])
            out[f"{name}.calls_per_op"] = (prefix.get(f"calls:{name}", 0) / prefix_ops,
                                           "calls/op")
            out[f"{name}.us_p50"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
            out[f"{name}.self_ms_per_op"] = (self.self_s.get(name, 0.0) * 1e3 / ops,
                                             "ms/op")
        if self._present("ring.gen_matrix.hit_ratio"):
            looked = prefix["cache.hits"] + prefix["cache.misses"]
            out["ring.gen_matrix.hit_ratio"] = (
                prefix["cache.hits"] / looked if looked else 0.0, "ratio")
        counters = {"xof.bytes_per_op": ("xof.bytes", "B/op"),
                    "pke.polymults_per_op": ("pke.polymults", "count/op"),
                    "xbar.cell_bits_written_per_op": ("xbar.cell_bits_written", "bits/op"),
                    "xbar.boot_cell_bits_per_op": ("xbar.boot_cell_bits", "bits/op")}
        for metric, (key, unit) in counters.items():
            if self._present(metric):
                out[metric] = (prefix.get(key, 0) / prefix_ops, unit)
        if self._present("pke.decrypt"):
            # decryption attempts per useful (correct) decryption
            calls = sum(prefix.get(f"calls:pke.decrypt.{b}", 0) for b in BACKENDS)
            out["pke.decrypt.attempts_per_op"] = (
                calls / useful_decrypts if useful_decrypts else 0.0, "calls/op")
        return out

    def _present(self, metric: str) -> bool:
        return not any(metric == m or metric.startswith(m + ".") for m in self.missing)


def _module(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "saberxbar" or name.startswith("saberxbar."))]
