"""O(S, H) membership with the O^+ pool search in full series arithmetic.

This is ``field_models.o_membership`` as it was before the valuation
rule: every pool candidate sigma pays sigma^p, c = 1 - sigma^p, the
class of c, x = a c, 1 - x and their classes.  The tests hold the rule to it: on every
input both give the same verdict and the same witness.
"""

from itertools import islice

from etkit.errors import ValidationError
from etkit.field_models import (
    FiniteField,
    OVerdict,
    _class_code,
    _parse_h,
    class_of,
    is_pth_power,
    validate_model,
)


def o_membership_series(model, p: int, a, h_spec, target: str,
                        bound: int = 200) -> OVerdict:
    validate_model(model, p)
    if target not in ("OMinus", "OPlus", "ORing"):
        raise ValidationError(f"unknown target {target!r}")
    ops = model.domain()
    if ops.is_zero(a):
        raise ValidationError("membership is about nonzero elements")
    h = _parse_h(h_spec, len(model.basis(p)), p)

    def in_h(x) -> bool:
        return h is None or _class_code(class_of(model, p, x), p) in h

    def in_o_minus(x) -> bool:
        if not in_h(x):
            return False
        s = ops.sub(ops.one, x)
        if ops.is_zero(s):
            return False
        return is_pth_power(model, p, s)

    if target == "OMinus":
        verdict = "Member" if in_o_minus(a) else "NonMember"
        return OVerdict(target, verdict, bound)

    if target == "ORing" and in_o_minus(a):
        return OVerdict(target, "Member", bound)
    if not in_h(a):
        return OVerdict(target, "NonMember", bound, ops.render(a))

    if isinstance(model, FiniteField):
        o_minus = [c for c in ops.units() if in_o_minus(c)]
        for c in o_minus:
            if not in_o_minus(ops.mul(a, c)):
                return OVerdict(target, "NonMember", bound, ops.render(c))
        return OVerdict(target, "Member", bound)

    for sigma in islice(model.pool(p), bound):
        s = ops.pow_(sigma, p)
        c = ops.sub(ops.one, s)
        if ops.is_zero(c) or not in_h(c):
            continue
        # c = 1 - s is certified to lie in O^-
        if not in_o_minus(ops.mul(a, c)):
            return OVerdict(target, "NonMember", bound, ops.render(c))
    return OVerdict(target, "UnknownWithinBound", bound)
