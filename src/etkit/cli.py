"""Command-line front end with deterministic JSON output.

Exit codes: 0 on success, 1 on validation errors (bad JSON inputs and a
closed stdout included), 2 on internal failures or usage errors.  Results
go to standard output as compact JSON with sorted keys, so identical
invocations are byte-identical; errors go to standard error as one JSON
object, with a "where" entry for internal failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from pathlib import Path

from .cocycles import (
    H2Space,
    cochain_from_json,
    cup_h1_h1,
    extension_class,
    group_from_json,
    h1_dim,
    h2_dim,
    kernel_from_json,
)
from .cohomology import (
    _check_basis,
    algebra_to_json,
    build_cohomology,
    dims_closed_form,
    is_demuskin,
    log_level_direct,
    log_level_recursive,
)
from .errors import EtkitError, ValidationError
from .field_models import (
    class_group,
    class_of,
    from_field_model,
    is_totally_rigid_bounded,
    model_from_json,
    o_membership,
    predict_galois_pair,
    check_pairing_match,
    symbol_vector,
    trichotomic_search,
)
from .fplinear import is_prime
from .pairs import abelianization, normalize, parse, rank, render, to_json
from .rigidity import _check_bound, from_cohomology, rigidity_report
from .units import DEFAULT_PRECISION


# README "Limits" gives the time the slowest verb takes at each cap
MAX_PRECISION = 4096
MAX_BOUND = 100_000
MAX_DEGREE = 10_000
# degree-1 cup products, each weighted by the length of its result, that
# `cohom` (the gram) and `logl` (the cup powers of eps) may compute
MAX_CUP_WORK = 100_000
# `invariants` lists one abelianization invariant per generator
MAX_RANK = 100_000


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def _emit(obj, fmt: str) -> None:
    obj = _jsonable(obj)
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return
    for key in sorted(obj):
        print(f"{key}: {json.dumps(obj[key], sort_keys=True, separators=(',', ':'))}")


def _expr_text(args) -> str:
    inline = getattr(args, "expr", None)
    path = getattr(args, "file", None)
    if inline is not None and path is not None:
        raise ValidationError("give the expression inline or via --file, not both")
    if path is not None:
        try:
            return Path(path).read_text()
        except (OSError, ValueError) as exc:
            # ValueError covers an undecodable file and a NUL byte in the path
            raise ValidationError(f"could not read --file: {exc}") from exc
    if inline is None:
        raise ValidationError("an expression is required")
    return inline


def _load_structured(value: str, what: str):
    if value is None:
        raise ValidationError(f"--{what} is required")
    text = value
    candidate = Path(value)
    try:
        if candidate.is_file():
            text = candidate.read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"could not read --{what}: {exc}") from exc
    except OSError:
        pass
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past Python's
        # int-to-str digit limit
        raise ValidationError(f"could not parse --{what}: {exc}") from exc


def _model_of(args):
    if getattr(args, "model", None) is None:
        raise ValidationError("--model is required for field subcommands")
    return model_from_json(_load_structured(args.model, "model"), args.p)


def _element(args, name: str, model):
    raw = getattr(args, name, None)
    if raw is None:
        raise ValidationError(f"--{name} is required")
    return model.decode(_load_structured(raw, name))


# ---------------------------------------------------------------------------
# handlers


def _cmd_parse(args):
    e = parse(_expr_text(args), args.p, args.precision)
    return {"expr": render(e), "tree": to_json(e)}


def _cmd_normalize(args):
    e = normalize(parse(_expr_text(args), args.p, args.precision), args.p, args.precision)
    return {"expr": render(e), "tree": to_json(e)}


def _cmd_invariants(args):
    e = normalize(parse(_expr_text(args), args.p, args.precision), args.p, args.precision)
    r = rank(e)
    if r > MAX_RANK:
        raise ValidationError(f"rank exceeds the invariants bound {MAX_RANK}")
    return {
        "rank": r,
        "abelianization": abelianization(e, args.p, args.precision),
        "logl": log_level_recursive(e, args.p),
    }


def _check_cup_work(ne, args, work, what: str) -> None:
    """Refuse a request whose degree-1 products ``work(dims)`` exceed
    ``MAX_CUP_WORK``, from the closed-form Betti numbers of the normal
    form ``ne``: after the ring's basis bound, before any ring is built."""
    _check_basis(ne, args.max_degree)
    if work(dims_closed_form(ne, args.p, 2)) > MAX_CUP_WORK:
        raise ValidationError(f"{what} exceeds the cup-product bound {MAX_CUP_WORK}")


def _cmd_cohom(args):
    e = parse(_expr_text(args), args.p, args.precision)
    _check_cup_work(normalize(e, args.p, args.precision), args,
                    lambda dims: dims[1] ** 2 * dims[2], "dims[1]^2 x dims[2]")
    alg = build_cohomology(e, args.p, args.max_degree, args.precision)
    return algebra_to_json(alg)


def _cmd_demuskin(args):
    e = parse(_expr_text(args), args.p, args.precision)
    return is_demuskin(e, args.p, args.precision).to_json()


def _cmd_logl(args):
    e = parse(_expr_text(args), args.p, args.precision)
    ne = normalize(e, args.p, args.precision)
    _check_cup_work(ne, args, lambda dims: args.max_degree * dims[1] ** 2,
                    "max degree x dims[1]^2")
    rec = log_level_recursive(ne, args.p)
    direct = log_level_direct(e, args.p, args.max_degree, args.precision)
    return {"recursive": rec, "direct": direct}


def _cmd_rigid(args):
    e = parse(_expr_text(args), args.p, args.precision)
    # normalization keeps the rank, so the scan's bound can be checked first
    _check_bound(args.p, rank(e))
    alg = build_cohomology(e, args.p, 2, args.precision)
    return rigidity_report(from_cohomology(alg))


def _cmd_field(args):
    model = _model_of(args)
    verb = args.verb
    if verb == "classgroup":
        labels = class_group(model, args.p)
        return {
            "labels": labels,
            "dim": len(labels),
            "symbolDim": model.symbol_dim(args.p),
            "eps": list(class_of(model, args.p, model.domain().minus_one)),
        }
    if verb == "symbol":
        a = _element(args, "a", model)
        b = _element(args, "b", model)
        return {"symbol": symbol_vector(model, args.p, a, b).tolist()}
    if verb == "pairing":
        e = parse(_expr_text(args), args.p, args.precision)
        return {"match": check_pairing_match(model, e, args.p, args.precision)}
    if verb == "predict":
        return {"expr": render(predict_galois_pair(model, args.p, args.precision))}
    if verb == "trichotomic":
        a = _element(args, "a", model)
        return trichotomic_search(model, args.p, a, args.bound).to_json()
    if verb == "omember":
        a = _element(args, "a", model)
        h_raw = args.h
        if h_raw is None:
            raise ValidationError("--h is required")
        h = "all" if h_raw == "all" else _load_structured(h_raw, "h")
        return o_membership(model, args.p, a, h, args.target, args.bound).to_json()
    # the remaining verb: rigidity (argparse's choices admit no other)
    report = rigidity_report(from_field_model(model, args.p))
    report["totallyRigid"] = is_totally_rigid_bounded(model, args.p).to_json()
    return report


def _cmd_oracle(args):
    group = group_from_json(_load_structured(args.group, "group"))
    verb = args.verb
    if verb == "h1":
        return {"dim": h1_dim(group, args.p)}
    if verb == "h2":
        return {"dim": h2_dim(group, args.p)}
    if verb == "cup":
        phi = cochain_from_json(_load_structured(args.phi, "phi"), group, args.p)
        psi = cochain_from_json(_load_structured(args.psi, "psi"), group, args.p)
        space = H2Space(group, args.p)
        coords = cup_h1_h1(group, args.p, phi, psi, space)
        return {"coords": coords.tolist(), "h2Dim": space.dim}
    # the remaining verb: extclass
    kernel = kernel_from_json(_load_structured(args.kernel, "kernel"), group)
    quotient_group, coords = extension_class(group, kernel, args.p)
    return {"coords": coords.tolist(), "quotientOrder": quotient_group.order}


_HANDLERS = {
    "parse": _cmd_parse,
    "normalize": _cmd_normalize,
    "invariants": _cmd_invariants,
    "cohom": _cmd_cohom,
    "demuskin": _cmd_demuskin,
    "logl": _cmd_logl,
    "rigid": _cmd_rigid,
    "field": _cmd_field,
    "oracle": _cmd_oracle,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    keeps no state on it, and building it costs about as much as a cheap
    verb."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=2)
    common.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    common.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    common.add_argument("--bound", type=int, default=200)
    common.add_argument("--model", type=str, default=None)
    common.add_argument("--format", type=str, default="json", dest="fmt",
                        choices=["json", "table"])

    exprarg = argparse.ArgumentParser(add_help=False)
    exprarg.add_argument("expr", nargs="?", default=None)
    exprarg.add_argument("--file", type=str, default=None)

    parser = argparse.ArgumentParser(prog="etkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("parse", "normalize", "invariants", "cohom", "demuskin",
                 "logl", "rigid"):
        sub.add_parser(name, parents=[common, exprarg])

    fieldp = sub.add_parser("field", parents=[common])
    fieldp.add_argument(
        "verb",
        choices=["classgroup", "symbol", "pairing", "predict", "trichotomic",
                 "omember", "rigidity"],
    )
    fieldp.add_argument("expr", nargs="?", default=None)
    fieldp.add_argument("--file", type=str, default=None)
    fieldp.add_argument("--a", type=str, default=None)
    fieldp.add_argument("--b", type=str, default=None)
    fieldp.add_argument("--h", type=str, default=None)
    fieldp.add_argument("--target", type=str, default="OMinus",
                        choices=["OMinus", "OPlus", "ORing"])

    oraclep = sub.add_parser("oracle", parents=[common])
    oraclep.add_argument("verb", choices=["h1", "h2", "cup", "extclass"])
    oraclep.add_argument("--group", type=str, required=True)
    oraclep.add_argument("--phi", type=str, default=None)
    oraclep.add_argument("--psi", type=str, default=None)
    oraclep.add_argument("--kernel", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not is_prime(args.p):
            raise ValidationError(f"--p must be prime, got {args.p}")
        if not 8 <= args.precision <= MAX_PRECISION:
            raise ValidationError(f"--precision must be between 8 and {MAX_PRECISION}")
        if not 2 <= args.max_degree <= MAX_DEGREE:
            raise ValidationError(f"--max-degree must be between 2 and {MAX_DEGREE}")
        if not 1 <= args.bound <= MAX_BOUND:
            raise ValidationError(f"--bound must be between 1 and {MAX_BOUND}")
        _emit(_HANDLERS[args.command](args), args.fmt)
        return 0
    except EtkitError as exc:
        _report(exc)
        return 1
    except SystemExit:
        raise
    except BrokenPipeError as exc:
        # the reader closed stdout (e.g. `| head`): point the descriptor at
        # devnull so the interpreter's final flush does not fail again
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):
            pass
        _report(exc)
        return 1
    except Exception as exc:  # a bug: report where it happened
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
        _report(exc, where=where)
        return 2


def _report(exc: BaseException, **extra) -> None:
    """One JSON object on stderr describing a failed run."""
    body = {"error": str(exc), "kind": type(exc).__name__, **extra}
    print(json.dumps(body, sort_keys=True, separators=(",", ":")), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
