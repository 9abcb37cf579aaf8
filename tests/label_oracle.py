"""One vector's label, the oracle of ``rigidity._all_labels``, which names
all of A_1 at once."""

from __future__ import annotations

import numpy as np

from etkit.rigidity import AugBilinearMap


def vector_label(bmap: AugBilinearMap, v) -> str:
    """Human-readable name of a coefficient vector in the map's basis.  A
    multiplicative label with a "+" is put in parentheses unless it
    stands alone."""
    terms = [(int(c), lbl) for c, lbl in zip(np.asarray(v) % bmap.p, bmap.labels) if c]
    if not terms:
        return "1" if bmap.multiplicative else "0"
    if not bmap.multiplicative:
        return "+".join(lbl if c == 1 else f"{c}*{lbl}" for c, lbl in terms)
    if len(terms) > 1 or terms[0][0] != 1:
        terms = [(c, f"({lbl})" if "+" in lbl else lbl) for c, lbl in terms]
    return "*".join(lbl if c == 1 else f"{lbl}^{c}" for c, lbl in terms)
