"""Command-line front end with deterministic JSON output.

Exit codes: 0 on success, 1 on validation errors (bad JSON inputs and a
closed stdout included), 2 on internal failures or usage errors.  Results
go to standard output as compact JSON with sorted keys, so identical
invocations are byte-identical; errors go to standard error as one JSON
object, with a "where" entry for internal failures.

Each subcommand's flags and positionals are declared once, in
``_COMMANDS``.  ``_read_argv`` reads a well-formed argv straight off
that table; on anything it is not sure of it declines, and the argparse
parser built from the same table decides, so usage errors and help
come from argparse alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

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


# README "Limits" gives the time the slowest verb takes at each cap
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
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    return obj


def _dumps(obj) -> str:
    """Compact JSON with sorted keys.  Only a value holding a non-finite
    float takes the ``_jsonable`` walk, which writes inf as "inf"; json
    already writes tuples as arrays, so both paths give the same bytes."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(obj))
        return
    for key in sorted(obj):
        print(f"{key}: {_dumps(obj[key])}")


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
    if args.model is None:
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
    e = parse(_expr_text(args), args.p)
    return {"expr": render(e), "tree": to_json(e)}


def _cmd_normalize(args):
    e = normalize(parse(_expr_text(args), args.p), args.p)
    return {"expr": render(e), "tree": to_json(e)}


def _cmd_invariants(args):
    e = normalize(parse(_expr_text(args), args.p), args.p)
    r = rank(e)
    if r > MAX_RANK:
        raise ValidationError(f"rank exceeds the invariants bound {MAX_RANK}")
    return {
        "rank": r,
        "abelianization": abelianization(e, args.p),
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
    e = parse(_expr_text(args), args.p)
    _check_cup_work(normalize(e, args.p), args,
                    lambda dims: dims[1] ** 2 * dims[2], "dims[1]^2 x dims[2]")
    alg = build_cohomology(e, args.p, args.max_degree)
    return algebra_to_json(alg)


def _cmd_demuskin(args):
    e = parse(_expr_text(args), args.p)
    return is_demuskin(e, args.p).to_json()


def _cmd_logl(args):
    e = parse(_expr_text(args), args.p)
    ne = normalize(e, args.p)
    _check_cup_work(ne, args, lambda dims: args.max_degree * dims[1] ** 2,
                    "max degree x dims[1]^2")
    rec = log_level_recursive(ne, args.p)
    direct = log_level_direct(e, args.p, args.max_degree)
    return {"recursive": rec, "direct": direct}


def _cmd_rigid(args):
    e = parse(_expr_text(args), args.p)
    # normalization keeps the rank, so the scan's bound can be checked first
    _check_bound(args.p, rank(e))
    alg = build_cohomology(e, args.p, 2)
    return rigidity_report(from_cohomology(alg))


def _field_classgroup(args, model):
    labels = class_group(model, args.p)
    return {
        "labels": labels,
        "dim": len(labels),
        "symbolDim": model.symbol_dim(args.p),
        "eps": list(class_of(model, args.p, model.domain().minus_one)),
    }


def _field_symbol(args, model):
    a = _element(args, "a", model)
    b = _element(args, "b", model)
    return {"symbol": symbol_vector(model, args.p, a, b).tolist()}


def _field_pairing(args, model):
    e = parse(_expr_text(args), args.p)
    return {"match": check_pairing_match(model, e, args.p)}


def _field_trichotomic(args, model):
    a = _element(args, "a", model)
    return trichotomic_search(model, args.p, a, args.bound).to_json()


def _field_omember(args, model):
    a = _element(args, "a", model)
    h_raw = args.h
    if h_raw is None:
        raise ValidationError("--h is required")
    h = "all" if h_raw == "all" else _load_structured(h_raw, "h")
    return o_membership(model, args.p, a, h, args.target, args.bound).to_json()


def _field_rigidity(args, model):
    report = rigidity_report(from_field_model(model, args.p))
    report["totallyRigid"] = is_totally_rigid_bounded(model, args.p).to_json()
    return report


# the `field` verbs: the flag table's choices and the dispatch both read this
_FIELD_VERBS = {
    "classgroup": _field_classgroup,
    "symbol": _field_symbol,
    "pairing": _field_pairing,
    "predict": lambda args, model: {"expr": render(predict_galois_pair(model, args.p))},
    "trichotomic": _field_trichotomic,
    "omember": _field_omember,
    "rigidity": _field_rigidity,
}


def _cmd_field(args):
    return _FIELD_VERBS[args.verb](args, _model_of(args))


def _oracle_cup(args, group):
    phi = cochain_from_json(_load_structured(args.phi, "phi"), group, args.p)
    psi = cochain_from_json(_load_structured(args.psi, "psi"), group, args.p)
    space = H2Space(group, args.p)
    coords = cup_h1_h1(group, args.p, phi, psi, space)
    return {"coords": coords.tolist(), "h2Dim": space.dim}


def _oracle_extclass(args, group):
    kernel = kernel_from_json(_load_structured(args.kernel, "kernel"), group)
    quotient_group, coords = extension_class(group, kernel, args.p)
    return {"coords": coords.tolist(), "quotientOrder": quotient_group.order}


# the `oracle` verbs: the flag table's choices and the dispatch both read this
_ORACLE_VERBS = {
    "h1": lambda args, group: {"dim": h1_dim(group, args.p)},
    "h2": lambda args, group: {"dim": h2_dim(group, args.p)},
    "cup": _oracle_cup,
    "extclass": _oracle_extclass,
}


def _cmd_oracle(args):
    group = group_from_json(_load_structured(args.group, "group"))
    return _ORACLE_VERBS[args.verb](args, group)


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


class _Arg(NamedTuple):
    """One flag (``name`` starts with ``-``) or positional of a
    subcommand.  A positional ``required`` is its verb; one that is not
    is an optional expression (``nargs="?"``)."""

    name: str
    dest: str
    type: type = str
    default: object = None
    choices: tuple | None = None
    required: bool = False


_COMMON = (_Arg("--p", "p", int, 2),
           _Arg("--format", "fmt", default="json", choices=("json", "table")))
_EXPR = (_Arg("expr", "expr"), _Arg("--file", "file"))
_DEGREE = (_Arg("--max-degree", "max_degree", int, 4),)

# Each subcommand's flags and positionals, in help order: the direct
# reader and the argparse parser are both built from this table.  Each
# subcommand takes only the flags it reads: ``--p`` and ``--format``
# everywhere, ``--max-degree`` on ``cohom`` and ``logl``, ``--bound`` and
# ``--model`` on ``field``.
_COMMANDS = {
    "parse": _COMMON + _EXPR,
    "normalize": _COMMON + _EXPR,
    "invariants": _COMMON + _EXPR,
    "cohom": _COMMON + _EXPR + _DEGREE,
    "demuskin": _COMMON + _EXPR,
    "logl": _COMMON + _EXPR + _DEGREE,
    "rigid": _COMMON + _EXPR,
    "field": _COMMON + (
        _Arg("verb", "verb", choices=tuple(_FIELD_VERBS), required=True),
        *_EXPR,
        _Arg("--bound", "bound", int, 200),
        _Arg("--model", "model"),
        _Arg("--a", "a"),
        _Arg("--b", "b"),
        _Arg("--h", "h"),
        _Arg("--target", "target", default="OMinus",
             choices=("OMinus", "OPlus", "ORing")),
    ),
    "oracle": _COMMON + (
        _Arg("verb", "verb", choices=tuple(_ORACLE_VERBS), required=True),
        _Arg("--group", "group", required=True),
        _Arg("--phi", "phi"),
        _Arg("--psi", "psi"),
        _Arg("--kernel", "kernel"),
    ),
}

# what the reader looks up per subcommand: flags by name, positionals in
# order, defaults by dest, and the dests that must be given
_LOOKUP = {
    command: ({arg.name: arg for arg in table if arg.name.startswith("-")},
              [arg for arg in table if not arg.name.startswith("-")],
              {arg.dest: arg.default for arg in table},
              [arg.dest for arg in table if arg.required])
    for command, table in _COMMANDS.items()
}
# argparse reads a token that matches this as a value, not as an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token: str) -> bool:
    return token.startswith("-") and not _NEGATIVE_NUMBER.match(token)


def _read_argv(argv) -> argparse.Namespace | None:
    """The Namespace that ``parse_args(argv)`` gives, read straight off
    ``_COMMANDS``; None wherever argparse might decide otherwise or
    report a usage error: an unknown subcommand; a token that starts
    with ``-`` and is neither an exact flag of the subcommand nor a
    negative number (so abbreviations, ``--flag=value``, ``-h`` and
    ``--``); a flag without a value; a failed type or choice; a missing
    verb or required flag; too many positionals; or positionals in more
    than one run, since argparse gives an optional expression that an
    option cuts off from the verb an empty value."""
    if not argv or argv[0] not in _LOOKUP:
        return None
    flags, positionals, defaults, required = _LOOKUP[argv[0]]
    args = argparse.Namespace()
    values = vars(args)
    values.update(defaults, command=argv[0])
    words, run_ended = [], False
    i = 1
    while i < len(argv):
        token = argv[i]
        if not _is_option(token):
            if run_ended:
                return None
            words.append(token)
            i += 1
            continue
        arg = flags.get(token)
        if arg is None or i + 1 == len(argv) or _is_option(argv[i + 1]):
            return None
        if not _store(values, arg, argv[i + 1]):
            return None
        run_ended = bool(words)
        i += 2
    if len(words) > len(positionals):
        return None
    for arg, word in zip(positionals, words):
        if not _store(values, arg, word):
            return None
    if any(values[dest] is None for dest in required):
        return None
    return args


def _store(values: dict, arg: _Arg, text: str) -> bool:
    """Convert and check ``text`` as argparse does; False on a failure."""
    try:
        value = arg.type(text)
    except ValueError:
        return False
    if arg.choices is not None and value not in arg.choices:
        return False
    values[arg.dest] = value
    return True


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``, built on the first argv
    that ``_read_argv`` declines and then reused (parsing keeps no state
    on it).  It alone reports usage errors and help, and it is the
    reader's test oracle."""
    parser = argparse.ArgumentParser(prog="etkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _COMMANDS.items():
        subparser = sub.add_parser(command)
        for arg in table:
            if arg.name.startswith("-"):
                subparser.add_argument(arg.name, dest=arg.dest, type=arg.type,
                                       default=arg.default, choices=arg.choices,
                                       required=arg.required)
            else:
                subparser.add_argument(arg.name, type=arg.type, default=arg.default,
                                       choices=arg.choices,
                                       nargs=None if arg.required else "?")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        if not is_prime(args.p):
            raise ValidationError(f"--p must be prime, got {args.p}")
        if "max_degree" in args and not 2 <= args.max_degree <= MAX_DEGREE:
            raise ValidationError(f"--max-degree must be between 2 and {MAX_DEGREE}")
        if "bound" in args and not 1 <= args.bound <= MAX_BOUND:
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
