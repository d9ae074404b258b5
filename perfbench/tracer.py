"""Outside-in tracing of idealspin's layers.

The tracer wraps public functions of the library from the outside, for the
duration of one traced run, and keeps one span per call in memory: name,
parent span, start, end and self time (duration minus the time of the child
spans).  Nothing inside the library changes.

Each function is patched wherever it is looked up: a function imported with
``from .lattice import lll_reduce`` is a separate module attribute in every
importing module, and all of them are replaced.  Methods of FieldContext are
wrapped on the class.  The module ``idealspin.spin`` is reached through
``sys.modules``, because the package attribute ``idealspin.spin`` is the
function ``spin``, not the module.

Spans recorded in fork workers are lost, so per-layer numbers are taken from
runs with ``--workers 1``.
"""

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from statistics import median

PACKAGE = "idealspin"

# (span name, module, attribute path).  The span name is the metric prefix.
LAYERS = (
    ("arith.legendre", "arith", "legendre"),
    ("roots.interval_eval", "roots", "interval_eval"),
    ("fields.sign_vector", "fields", "FieldContext.sign_vector"),
    ("fields.embedding_intervals", "fields", "FieldContext.embedding_intervals"),
    ("fields.norm_coords", "fields", "FieldContext.norm_coords"),
    ("lattice.hnf", "lattice", "hnf"),
    ("lattice.lll_reduce", "lattice", "lll_reduce"),
    ("lattice.short_vectors", "lattice", "short_vectors"),
    ("ideals.split_prime", "ideals", "split_prime"),
    ("ideals.ideal_lattice", "ideals", "ideal_lattice"),
    ("ideals.find_generator", "ideals", "find_generator"),
    ("units.make_totally_positive", "units", "make_totally_positive"),
    ("units.reduce_to_domain", "units", "reduce_to_domain"),
    ("units.build_domain", "units", "build_domain"),
    ("units.domain_elements", "units", "domain_elements"),
    ("units.domain_class_counts", "units", "domain_class_counts"),
    ("symbols.residue_symbol", "symbols", "residue_symbol"),
    ("spin.spin_record", "spin", "spin_record"),
    ("involution.qualifying_generator", "involution", "qualifying_generator"),
    ("involution.spin_involution_formula", "involution", "spin_involution_formula"),
)

# Layers whose result length is recorded: short vectors found, domain
# elements enumerated.
SIZED = ("lattice.short_vectors", "units.domain_elements")

# Layers reported as calls and self time.  embedding_intervals is traced
# only to count sign_vector's precision doublings.
TIMED = tuple(name for name, _, _ in LAYERS if name != "fields.embedding_intervals")
SELF_ONLY = ("units.domain_class_counts", "units.build_domain")


def _lookup(module: str, path: str):
    """(owner, attribute, original) for a dotted attribute path."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Spans of one traced CLI run, kept in parallel arrays.  Use a fresh
    Tracer for every run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.failures: Counter = Counter()
        self.sizes: dict[str, list[int]] = {name: [] for name in SIZED}
        self._stack: list[list] = []   # [span index, child time so far]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        sizes = self.sizes.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, selfs = self.span_start, self.span_end, self.span_self
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            starts.append(start)
            try:
                res = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                ends[idx] = end
                selfs[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not ok:
                    self.failures[name] += 1
            if sizes is not None:
                sizes.append(len(res))
            return res

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore."""
        patches = []
        try:
            for name, module, path in LAYERS:
                owner, attr, orig = _lookup(module, path)
                wrapper = self._wrap(name, orig)
                patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for modname, mod in list(sys.modules.items()):
                    if mod is owner or not (modname == PACKAGE
                                            or modname.startswith(PACKAGE + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            patches.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of this run, by metric name."""
        names, parents = self.span_name, self.span_parent
        ids = {n: i for i, n in enumerate(self.names)}
        calls = Counter(names)
        self_s = Counter()
        for nid, s in zip(names, self.span_self):
            self_s[nid] += s
        # child spans by (parent layer, child layer), and per parent span
        pairs: Counter = Counter()
        sv, ei = ids["fields.sign_vector"], ids["fields.embedding_intervals"]
        de, ie = ids["units.domain_elements"], ids["roots.interval_eval"]
        refining: Counter = Counter()    # sign_vector span -> embedding lookups
        inside_census = bytearray(len(names))
        census_checks = 0
        track_census = calls[de] > 0
        for i, (nid, par) in enumerate(zip(names, parents)):
            if par < 0:
                continue
            pnid = names[par]
            pairs[pnid, nid] += 1
            if pnid == sv and nid == ei:
                refining[par] += 1
            if track_census and (pnid == de or inside_census[par]):
                inside_census[i] = 1
                if nid == ie:
                    census_checks += 1

        out: dict[str, float] = {}
        for name in TIMED:
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = calls[ids[name]]
            out[f"{name}.self_s"] = self_s[ids[name]]
        out["fields.sign_vector.precision_doublings"] = sum(c - 1 for c in refining.values())
        out["lattice.short_vectors.vectors"] = sum(self.sizes["lattice.short_vectors"])
        fg = ids["ideals.find_generator"]
        fg_calls = calls[fg]
        hits = fg_calls - self.failures["ideals.find_generator"]
        out["ideals.find_generator.failures"] = self.failures["ideals.find_generator"]
        out["ideals.find_generator.kappa_rounds"] = (
            pairs[fg, ids["lattice.short_vectors"]] / fg_calls if fg_calls else 0.0)
        out["ideals.find_generator.candidates_per_hit"] = (
            pairs[fg, ids["fields.norm_coords"]] / hits if hits else 0.0)
        elements = max(self.sizes["units.domain_elements"], default=0)
        out["units.domain_elements.elements"] = elements
        out["units.domain_elements.tp_checks_per_element"] = (
            census_checks / elements if elements else 0.0)
        return out


@contextmanager
def probe_blocks():
    """Count the blocks handed to the CLI's block scheduler and time it, in
    the parent process.  Yields a dict filled as the run goes."""
    cli = sys.modules[f"{PACKAGE}.cli"]
    orig = cli._run_blocks
    seen = {"cli.blocks": 0, "cli.run_blocks_s": 0.0}

    @wraps(orig)
    def probed(payload, block_fn, blocks, workers):
        start = time.perf_counter()
        try:
            return orig(payload, block_fn, blocks, workers)
        finally:
            seen["cli.run_blocks_s"] += time.perf_counter() - start
            seen["cli.blocks"] += len(blocks)

    cli._run_blocks = probed
    try:
        yield seen
    finally:
        cli._run_blocks = orig


def merge_runs(runs: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced run, self times as medians over runs."""
    merged = dict(runs[0])
    for key in merged:
        if key.endswith("_s"):
            merged[key] = median(r[key] for r in runs)
    return merged
