"""The four benchmark workloads: how each draws a round, runs an item
against the public API of ``etkit``, and checks the item's output.

An item is a dict with a ``stratum`` (the properties its cost depends on)
and its inputs.  ``run`` holds only the calls being measured and returns
their raw results; ``check`` verifies them afterwards, outside the timed
region, and ``digest`` reduces them to plain JSON data so that two runs
can be compared.  Calls go through the ``etkit`` modules' attributes at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

import etkit.cli
import etkit.cohomology
import etkit.field_models
import etkit.pairs
import etkit.rigidity
import gen

RING_DEGREE = 6


def _blob(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# ring-sweep: expression algebra and ring models, p in {2, 3}, rank <= 10


class RingSweep:
    """Parse, normalize, units and the ring build do the work; rigidity and
    the field backends are never called."""

    name = "ring-sweep"

    @staticmethod
    def round(seed: int, index: int) -> list[dict]:
        rng = gen.round_rng(seed, "ring-sweep", index)
        return [
            {"stratum": (p, r), "p": p, "text": gen.expr_of_rank(rng, p, r)}
            for p in (2, 3) for r in range(1, 11) for _ in range(2)
        ]

    @staticmethod
    def run(item: dict):
        p, D = item["p"], RING_DEGREE
        e = etkit.pairs.parse(item["text"], p)
        ne = etkit.pairs.normalize(e, p)
        ab = etkit.pairs.abelianization(ne, p)
        theta = etkit.pairs.theta_image(ne, p)
        alg = etkit.cohomology.build_cohomology(ne, p, D)
        dims = alg.dims
        products = [alg.product(d1, i, D - d1, j)
                    for d1 in range(1, D)
                    for i in range(dims[d1]) for j in range(dims[D - d1])]
        closed = etkit.cohomology.dims_closed_form(ne, p, D)
        verdict = etkit.cohomology.is_demuskin(ne, p)
        levels = None
        if p == 2:
            levels = (etkit.cohomology.log_level_recursive(ne, p),
                      etkit.cohomology.log_level_direct(ne, p, D))
        return {"expr": etkit.pairs.render(ne), "ab": ab, "theta": theta,
                "dims": dims, "products": products, "closed": closed,
                "verdict": verdict, "levels": levels}

    @staticmethod
    def check(item: dict, out) -> bool:
        if out["closed"] != out["dims"]:
            return False
        if out["levels"] is None:
            return True
        rec, direct = out["levels"]
        # the direct route stops at the top degree and answers ">D" there
        if rec > RING_DEGREE:
            return direct == f">{RING_DEGREE}"
        return direct == rec

    @staticmethod
    def digest(out) -> dict:
        rec = None
        if out["levels"] is not None:
            rec = [str(out["levels"][0]), out["levels"][1]]
        return {"expr": out["expr"], "ab": out["ab"],
                "theta": out["theta"].to_json(), "dims": out["dims"],
                "products": _blob(out["products"]),
                "demuskin": out["verdict"].to_json(), "levels": rec}


# ---------------------------------------------------------------------------
# rigidity-scan: criterion, N-subspace and report on Ext-rooted pairs

RIGIDITY_STRATA = [(2, d) for d in range(2, 10)] + [(3, d) for d in range(2, 7)]


class RigidityScan:
    """The exhaustive O(p^2d) rigidity scan does nearly all the work, one
    item per (p, d = dim H^1) up to p^d = 729."""

    name = "rigidity-scan"

    @staticmethod
    def round(seed: int, index: int) -> list[dict]:
        rng = gen.round_rng(seed, "rigidity-scan", index)
        return [{"stratum": (p, d), "p": p, "d": d,
                 "text": gen.ext_rooted(rng, p, d)}
                for p, d in RIGIDITY_STRATA]

    @staticmethod
    def run(item: dict):
        p = item["p"]
        e = etkit.pairs.parse(item["text"], p)
        report = etkit.rigidity.check_rigidity_criterion(e, p)
        alg = etkit.cohomology.build_cohomology(e, p, 2)
        bmap = etkit.rigidity.from_cohomology(alg)
        basis = etkit.rigidity.n_subspace(bmap)
        full = etkit.rigidity.rigidity_report(bmap)
        return {"report": report, "inflation": alg.meta["ext_inflation_dim"],
                "d": bmap.d, "basis": basis, "full": full}

    @staticmethod
    def check(item: dict, out) -> bool:
        t = out["inflation"]
        return (out["d"] == item["d"] and out["report"].holds
                and not out["basis"][:, t:].any()
                and out["full"]["nSubspaceDim"] == len(out["basis"]))

    @staticmethod
    def digest(out) -> dict:
        r = out["report"]
        return {"holds": r.holds, "checked": r.checked,
                "basis": out["basis"].tolist(), "full": out["full"]}


# ---------------------------------------------------------------------------
# equivalence: the O(p^(d^2)) search and the field pairing match

# (p, d, e, eps nonzero, verdict).  The search enumerates all p^(d^2)
# candidate P: a "no" costs the whole enumeration, a "yes" stops at the
# first valid P, wherever that falls.  At p = 2, d = 4 a nonzero eps
# prunes all but 1/16 of the candidates before the rank test; with eps = 0
# one "no" takes about 6 s, longer than a steady run can repeat, so d = 4
# is drawn with eps nonzero only.  Slow "yes" items (p = 3, d = 3) would
# spread from 0.1 s to 1 s by chance, so that stratum is "no" only.  The
# cheap p = 2, d = 2 strata come four times and the d = 4 "no" strata
# twice, so that the median and the tail percentile each fall well inside
# a group of items of like cost rather than on the edge between two.
EQUIVALENCE_STRATA = (
    [(2, d, e, z, v) for d in (2, 2, 2, 2, 3) for e in (1, 2) for z in (False, True)
     for v in ("yes", "no")]
    + [(2, 4, e, True, v) for e in (1, 2) for v in ("yes", "no", "no")]
    + [(3, 2, e, False, v) for e in (1, 2) for v in ("yes", "no")]
    + [(3, 3, 1, False, "no")]
)

# Backend kinds whose predicted pair has a certified wrong expression of
# the same (d, e) at p = 2; at p = 3 no such expression exists for these
# models, so only the predicted expression is matched.
PAIRING_KINDS = {
    2: ["FiniteField", "LocalRational", "DyadicRational", "RealField",
        "ComplexField", "Laurent1", "Laurent2"],
    3: ["FiniteField", "LocalRational", "ComplexField", "Laurent1", "Laurent2"],
}
WRONG_KINDS = {"FiniteField", "LocalRational", "DyadicRational", "Laurent1",
               "Laurent2"}


def predicted_text(model: dict) -> str:
    """The Galois pair the backend predicts, written independently."""
    kind, params = model["kind"], model["params"]
    if kind == "FiniteField":
        return f"Z({params['q']})"
    if kind == "LocalRational":
        return f"ext(1, Z({params['ell']}))"
    if kind == "DyadicRational":
        return "padic(n=3,case=II,f=2)"
    if kind == "RealField":
        return "E"
    if kind == "ComplexField":
        return "triv"
    return f"ext(1, {predicted_text(params['base'])})"


def wrong_text(model: dict) -> str:
    """Same (d, e) as the prediction at p = 2, inequivalent: the Z-block
    unit moves from 1 to 3 mod 4 (or back), which flips eps; the dyadic
    form is replaced by a degenerate one."""
    if model["kind"] == "DyadicRational":
        return "Z(3) * ext(1, Z(5))"
    text = predicted_text(model)
    q = int(text[text.index("Z(") + 2:text.index(")")])
    return text.replace(f"Z({q})", f"Z({q + 2})")


def _map(t, eps, p: int):
    return etkit.rigidity.AugBilinearMap(
        p=p, tensor=np.array(t, dtype=np.int64),
        eps=np.array(eps, dtype=np.int64))


def _as_lists(bmap):
    return bmap.tensor.tolist(), bmap.eps.tolist()


class Equivalence:
    """The O(p^(d^2)) equivalence search dominates: find_equivalence on
    pairs stratified by p, d, e, eps and verdict, and the pairing match."""

    name = "equivalence"

    @staticmethod
    def round(seed: int, index: int) -> list[dict]:
        rng = gen.round_rng(seed, "equivalence", index)
        items = []
        for p, d, e, z, v in EQUIVALENCE_STRATA:
            m1, m2 = gen.equivalence_pair(rng, p, d, e, z, v)
            items.append({"stratum": ("find", p, d, e, z, v), "p": p,
                          "m1": m1, "m2": m2, "verdict": v})
        for p, kinds in PAIRING_KINDS.items():
            for kind in kinds:
                model = gen.field_model(rng, p, kind)
                texts = [("yes", predicted_text(model))]
                if p == 2 and kind in WRONG_KINDS:
                    texts.append(("no", wrong_text(model)))
                for v, text in texts:
                    items.append({"stratum": ("pairing", p, kind, v), "p": p,
                                  "model": model, "text": text, "verdict": v})
        return items

    @staticmethod
    def run(item: dict):
        p = item["p"]
        if "model" in item:
            model = etkit.field_models.model_from_json(item["model"], p)
            e = etkit.pairs.parse(item["text"], p)
            return etkit.field_models.check_pairing_match(model, e, p)
        m1 = _map(*item["m1"], p)
        m2 = _map(*item["m2"], p)
        return etkit.rigidity.find_equivalence(m1, m2)

    @staticmethod
    def check(item: dict, out) -> bool:
        p = item["p"]
        if "model" in item:
            if item["verdict"] == "yes":
                return out is True
            # certify the refusal with the benchmark's own invariant
            model = etkit.field_models.model_from_json(item["model"], p)
            mf = etkit.field_models.from_field_model(model, p)
            me = etkit.rigidity.from_cohomology(etkit.cohomology.build_cohomology(
                etkit.pairs.parse(item["text"], p), p, 2))
            if (mf.d, mf.e) != (me.d, me.e):
                return False
            return out is False and (gen.invariant(*_as_lists(mf), p)
                                     != gen.invariant(*_as_lists(me), p))
        if item["verdict"] == "no":
            return out is None
        if out is None:
            return False
        P, Q = out
        return gen.check_equivalence(item["m1"], item["m2"], P.tolist(),
                                     Q.tolist(), p)

    @staticmethod
    def digest(out) -> object:
        if out is None or isinstance(out, bool):
            return out
        return [out[0].tolist(), out[1].tolist()]


# ---------------------------------------------------------------------------
# cli-session: in-process etkit.cli.main over a seeded mix of requests

DYADIC = '{"kind":"DyadicRational","params":{}}'
TOWER = gen.dumps(gen.laurent(gen.laurent(gen.finite_field(3), "t", 8), "u", 8))

# README examples whose full output is printed there.
README_EXAMPLES = [
    (["invariants", "--p", "2", "ext(1,E)"],
     '{"abelianization":[2,2],"logl":"inf","rank":2}'),
    (["demuskin", "--p", "2", "padic(n=3,case=II,f=2,s=4)"],
     '{"case":"II","isDemuskin":true,"n":3,"q":2}'),
    (["logl", "--p", "2", "padic(n=3,case=II,f=2)"],
     '{"direct":3,"recursive":3}'),
    (["field", "classgroup", "--p", "2", "--model", DYADIC],
     '{"dim":3,"eps":[1,0,0],"labels":["-1","2","5"],"symbolDim":1}'),
    (["field", "pairing", "padic(n=3,case=II,f=2)", "--p", "2", "--model", DYADIC],
     '{"match":true}'),
    (["field", "symbol", "--p", "2", "--model", DYADIC, "--a", '{"num":2}',
      "--b", '{"num":-1}'],
     '{"symbol":[0]}'),
    (["field", "predict", "--p", "2", "--model", TOWER],
     '{"expr":"ext(1, ext(1, Z(3)))"}'),
    (["field", "trichotomic", "--p", "2", "--model", DYADIC, "--a", "2"],
     '{"searchBound":200,"searched":1,"verdict":"Witness","witness":"-1"}'),
    (["oracle", "h2", "--group", '{"kind":"dihedral","order":8}', "--p", "2"],
     '{"dim":3}'),
    (["oracle", "cup", "--group", '{"kind":"dihedral","order":8}', "--p", "2",
      "--phi", "[0,1,0,1,0,1,0,1]", "--psi", "[0,1,0,1,0,1,0,1]"],
     '{"coords":[1,0,1],"h2Dim":3}'),
    (["oracle", "extclass", "--group", '{"kind":"cyclic","n":4}', "--p", "2",
      "--kernel", "[0,2]"],
     '{"coords":[1],"quotientOrder":2}'),
]

EXPR_COMMANDS = ["parse", "normalize", "invariants", "cohom", "demuskin",
                 "logl", "rigid"]
FIELD_KINDS = {
    2: ["FiniteField", "LocalRational", "DyadicRational", "RealField",
        "ComplexField", "Laurent1", "Laurent2"],
    3: ["FiniteField", "LocalRational", "ComplexField", "Laurent1", "Laurent2"],
}
# The bounded total-rigidity search is exhaustive only over finite fields
# at odd p; elsewhere at p = 3 it takes seconds to minutes per model.
RIGIDITY_KINDS = {2: FIELD_KINDS[2], 3: ["FiniteField", "ComplexField"]}
# (verb, p, group order, kinds in turn): the cocycle oracle's cost grows
# as (n - 1)^5 and depends on the group's structure.  The costliest
# stratum, h2 at order 16, keeps one group so that the tail percentile,
# which falls among those items, compares like with like.
ORACLE_STRATA = [("h1", 2, 8, True), ("h2", 2, 16, False), ("cup", 2, 12, True),
                 ("extclass", 2, 16, True), ("h1", 3, 9, True), ("h2", 3, 12, True),
                 ("cup", 3, 9, True), ("extclass", 3, 9, True)]


# Omember target per backend: O^+ runs the bounded search, the others
# are decided at once.
OMEMBER_TARGET = {"FiniteField": "OPlus", "LocalRational": "OPlus",
                  "DyadicRational": "OPlus", "RealField": "ORing",
                  "Laurent1": "OPlus", "Laurent2": "ORing"}
# Residue fields of the towers.  At p = 2 the trichotomy search for the
# uniformizer finds a witness at once when -1 is a square (q = 1 mod 4)
# and runs to its bound otherwise, so q is drawn within one class.
TOWER_Q = {2: [7, 11], 3: [7, 13, 19]}
TOWER_Q_WITNESS = [5, 13]


def _cli_model(rng, p: int, kind: str, element: bool,
               tower_q: list[int] | None = None) -> dict:
    """Finite fields get a prime q where an element is encoded, since a
    prime-power field encodes its elements through a chosen modulus."""
    if kind == "FiniteField" and element:
        return gen.finite_field(gen.prime_q(rng, p))
    if kind in ("Laurent1", "Laurent2"):
        inner = gen.laurent(gen.finite_field(rng.choice(tower_q or TOWER_Q[p])), "t", 8)
        return inner if kind == "Laurent1" else gen.laurent(inner, "u", 8)
    return gen.field_model(rng, p, kind)


class CliSession:
    """The only workload where cli, field_models, laurent, smallfields and
    cocycles do the work: every subcommand and verb in process."""

    name = "cli-session"

    @staticmethod
    def round(seed: int, index: int) -> list[dict]:
        rng = gen.round_rng(seed, "cli-session", index)
        reqs = [(("readme", i), argv, want)
                for i, (argv, want) in enumerate(README_EXAMPLES)]
        for p in (2, 3):
            for cmd in EXPR_COMMANDS:
                text = gen.expr_of_rank(rng, p, rng.randint(1, 6))
                argv = [cmd, "--p", str(p), text]
                if cmd in ("cohom", "logl"):
                    argv += ["--max-degree", "4"]
                reqs.append(((cmd, p), argv, None))
            for kind in FIELD_KINDS[p]:
                plain = gen.dumps(_cli_model(rng, p, kind, False))
                reqs.append((("classgroup", p, kind),
                             ["field", "classgroup", "--p", str(p), "--model", plain], None))
                reqs.append((("predict", p, kind),
                             ["field", "predict", "--p", str(p), "--model", plain], None))
                model = _cli_model(rng, p, kind, False)
                reqs.append((("pairing", p, kind),
                             ["field", "pairing", predicted_text(model), "--p", str(p),
                              "--model", gen.dumps(model)], None))
                model = _cli_model(rng, p, kind, True)
                a = gen.dumps(gen.field_element(rng, p, model, False))
                b = gen.dumps(gen.field_element(rng, p, model, False))
                reqs.append((("symbol", p, kind),
                             ["field", "symbol", "--p", str(p), "--model",
                              gen.dumps(model), "--a", a, "--b", b], None))
                if kind != "ComplexField":
                    a = gen.dumps(gen.field_element(rng, p, model, True))
                    reqs.append((("trichotomic", p, kind),
                                 ["field", "trichotomic", "--p", str(p), "--model",
                                  gen.dumps(model), "--a", a], None))
                    reqs.append((("omember", p, kind),
                                 ["field", "omember", "--p", str(p), "--model",
                                  gen.dumps(model), "--a", a, "--h", "all",
                                  "--target", OMEMBER_TARGET[kind]], None))
                if p == 2 and kind in ("Laurent1", "Laurent2"):
                    model = _cli_model(rng, p, kind, True, TOWER_Q_WITNESS)
                    a = gen.dumps(gen.field_element(rng, p, model, True))
                    reqs.append((("trichotomic", p, kind, "witness"),
                                 ["field", "trichotomic", "--p", str(p), "--model",
                                  gen.dumps(model), "--a", a], None))
                if kind in RIGIDITY_KINDS[p]:
                    reqs.append((("rigidity", p, kind),
                                 ["field", "rigidity", "--p", str(p), "--model", plain],
                                 None))
        for verb, p, n, rotate in ORACLE_STRATA:
            group, coords, orders = gen.group_of_order(p, n, index if rotate else 1)
            argv = ["oracle", verb, "--p", str(p), "--group", gen.dumps(group)]
            if verb == "cup":
                argv += ["--phi", gen.dumps(gen.homomorphism(rng, p, group, coords, orders)),
                         "--psi", gen.dumps(gen.homomorphism(rng, p, group, coords, orders))]
            elif verb == "extclass":
                argv += ["--kernel", gen.dumps(gen.central_kernel(p, group, coords, orders))]
            reqs.append(((verb, p, n), argv, None))
        return [{"stratum": s, "argv": argv, "want": want} for s, argv, want in reqs]

    @staticmethod
    def run(item: dict):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = etkit.cli.main(item["argv"])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(item: dict, out) -> bool:
        code, stdout, _ = out
        if code != 0:
            return False
        try:
            json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return item["want"] is None or stdout.strip() == item["want"]

    @staticmethod
    def digest(out) -> list:
        return [out[0], out[1]]


WORKLOADS = {w.name: w for w in (RingSweep, RigidityScan, Equivalence, CliSession)}
