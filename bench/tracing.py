"""Spans and counters around the calls into each ``etkit`` layer.

The tracer wraps chosen public functions and methods from outside the
package.  Callers inside ``etkit`` use ``from .x import f``, so a wrapper
installed only in the defining module would miss most calls: ``install``
replaces every binding of the function object across ``etkit`` and its
submodules, and ``restore`` puts each one back.  ``fplinear.rank``,
``solve``, ``kernel_basis``, ``row_space_basis`` and ``in_span`` look up
``rref`` as a module global, so the one wrapper there sees every
elimination except ``cocycles._rank_mod``, which the ``h2_dim`` span
covers.

Spans are kept in memory as (name, start, end, parent, item) and written
when the run ends.  A span's self time is its duration minus the time its
child spans cover; one thread and no queues means nothing waits.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SCAN_FUNCS = ("check_rigidity_criterion", "n_subspace", "rigidity_report",
              "is_rigid")


def _map_key(bmap) -> tuple:
    return (bmap.p, bmap.tensor.shape, bmap.tensor.tobytes(), bmap.eps.tobytes())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span, name id, parent, start, child time]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maps: set = set()  # (item, map) pairs scanned
        self._last_map = None
        self._patches: list[tuple] = []
        self.item = -1

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, self._name_id(name),
                            parent, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        index, name_id, parent, start, child = self._stack.pop()
        dur = end - start
        self.spans[index] = (name_id, start, end, parent, self.item)
        self.self_s[self.names[name_id]] += dur - child
        if self._stack:
            self._stack[-1][4] += dur

    def wrap(self, fn, name: str, pre=None, post=None):
        """A wrapper timing fn as a span; ``pre(args)`` runs before the call
        and ``post(args, result, error, state)`` after it."""
        tracer = self

        def traced(*args, **kwargs):
            state = pre(args) if pre else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                if post:
                    post(args, None, exc, state)
                raise
            tracer.exit()
            if post:
                post(args, result, None, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_only(self, fn, name: str):
        """A wrapper that only counts calls, for functions too small and
        too frequent to time one by one."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "etkit" or mod_name.startswith("etkit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import etkit.cli as cli
        import etkit.cocycles as cocycles
        import etkit.cohomology as cohomology
        import etkit.field_models as field_models
        import etkit.fplinear as fplinear
        import etkit.laurent as laurent
        import etkit.pairs as pairs
        import etkit.rigidity as rigidity
        import etkit.smallfields as smallfields
        import etkit.units as units
        from etkit.errors import PrecisionExhausted

        c = self.counts

        def fn(mod, attr, name, pre=None, post=None):
            original = getattr(mod, attr)
            self._replace_everywhere(original, self.wrap(original, name, pre, post))

        def method(cls, attr, name, pre=None, post=None):
            self._patch_attr(cls, attr, self.wrap(cls.__dict__[attr], name, pre, post))

        # pairs, units
        for attr in ("parse", "normalize", "theta_image"):
            fn(pairs, attr, f"pairs.{attr}")
        fn(units, "subgroup_invariants", "units.subgroup_invariants")

        # cohomology
        for attr in ("build_cohomology", "is_demuskin", "log_level_direct"):
            fn(cohomology, attr, f"cohomology.{attr}")

        def product_pre(args):
            alg, key = args[0], tuple(args[1:5])
            return key in alg._cache

        def product_post(args, result, error, hit):
            if hit:
                c["cohomology.product.hits"] += 1

        method(cohomology.GradedAlgebra, "product", "cohomology.product",
               product_pre, product_post)
        method(cohomology.GradedAlgebra, "gram", "cohomology.gram")

        # rigidity: the scan functions share one span name
        def remember_map(args, result, error, state):
            if result is not None:
                self._last_map = result

        def scan_post(whole: bool):
            def post(args, result, error, state):
                bmap = args[0] if hasattr(args[0], "tensor") else self._last_map
                if error is None and bmap is not None:
                    # a full scan tests every (a, b) with a != 0; is_rigid one a
                    n = bmap.p ** bmap.d
                    c["rigidity.scan.scans"] += whole
                    c["rigidity.scan.pairs_tested"] += (n - 1) * n if whole else n
                    self.maps.add((self.item, _map_key(bmap)))
            return post

        fn(rigidity, "from_cohomology", "rigidity.from_cohomology",
           post=remember_map)
        for attr in SCAN_FUNCS:
            fn(rigidity, attr, "rigidity.scan", post=scan_post(attr != "is_rigid"))

        def equivalence_post(args, result, error, state):
            m1, m2 = args[0], args[1]
            if (m1.d, m1.e) == (m2.d, m2.e):
                c["rigidity.find_equivalence.search_space"] += m1.p ** (m1.d * m1.d)

        fn(rigidity, "find_equivalence", "rigidity.find_equivalence",
           post=equivalence_post)

        # fplinear: every elimination goes through rref
        def rref_pre(args):
            shape = getattr(args[0], "shape", None)
            if shape is not None and len(shape) == 2:
                c["fplinear.rref.cells"] += int(shape[0]) * int(shape[1])

        fn(fplinear, "rref", "fplinear.rref", pre=rref_pre)

        # field_models
        def symbol_post(args, result, error, state):
            if isinstance(error, PrecisionExhausted):
                c["field_models.symbol_vector.precision_exhausted"] += 1

        def trichotomic_post(args, result, error, state):
            if result is not None:
                c["field_models.trichotomic_search.searched"] += result.searched

        def rigid_post(args, result, error, state):
            if result is not None:
                c["field_models.is_totally_rigid_bounded.decided"] += result.decided_pairs
                c["field_models.is_totally_rigid_bounded.total"] += result.total_pairs

        fn(field_models, "symbol_vector", "field_models.symbol_vector",
           post=symbol_post)
        fn(field_models, "class_of", "field_models.class_of")
        fn(field_models, "trichotomic_search", "field_models.trichotomic_search",
           post=trichotomic_post)
        fn(field_models, "is_totally_rigid_bounded",
           "field_models.is_totally_rigid_bounded", post=rigid_post)
        fn(field_models, "check_pairing_match", "field_models.check_pairing_match")

        # laurent, smallfields
        for attr in ("mul", "inv", "pow_"):
            method(laurent.LaurentRing, attr, "laurent.LaurentRing")
        self._replace_everywhere(smallfields.gf,
                                 self.count_only(smallfields.gf, "smallfields.gf"))
        self._patch_attr(smallfields.GF, "mul",
                         self.count_only(smallfields.GF.__dict__["mul"],
                                         "smallfields.GF.mul"))

        # cocycles
        def cells(group):
            c["cocycles.h2.cells"] += (group.order - 1) ** 5

        fn(cocycles, "h2_dim", "cocycles.h2_dim", pre=lambda args: cells(args[0]))
        method(cocycles.H2Space, "__post_init__", "cocycles.H2Space",
               pre=lambda args: cells(args[0].group))
        for attr in ("cochain_of_pairs", "coords"):
            method(cocycles.H2Space, attr, "cocycles.H2Space")
        for attr in ("cup_h1_h1", "extension_class"):
            fn(cocycles, attr, f"cocycles.{attr}")

        # cli
        fn(cli, "main", "cli.main")

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzipped lines: name, start, end, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\titem\n")
            for name_id, start, end, parent, item in self.spans:
                f.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t"
                        f"{parent}\t{item}\n")
