"""Reference leakage auditor: a per-pair dict loop with Fraction posteriors.

It enumerates every symbol pair, whereas :func:`pnc.encoders.audit_leakage`
counts residues on rank intervals, so the two share no counting.  Tests
compare the two: exact zeros must sit in the same places, other figures
agree to float rounding, posteriors are equal.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

from pnc.constellation import make_pam
from pnc.encoders import build_partition, coop_level


def mi_from_counts(cells: dict, total: int) -> float:
    """I(A; B) in bits from integer joint counts over (a, b) keys.

    Exactly 0.0 whenever every cell count factorizes as the product of its
    marginals over the grand total.
    """
    ca: dict = {}
    cb: dict = {}
    for (a, b), c in cells.items():
        ca[a] = ca.get(a, 0) + c
        cb[b] = cb.get(b, 0) + c
    if all(c * total == ca[a] * cb[b] for (a, b), c in cells.items()):
        return 0.0
    return sum(
        (c / total) * math.log2(c * total / (ca[a] * cb[b]))
        for (a, b), c in cells.items()
    )


def secret_content(scheme: str, xa: int, xb: int, parts: dict, M_A: int, M_B: int):
    """(carrier point, carrier labeling, K, S) for one transmitted pair."""
    if scheme == "nocoop_bob":
        part = parts["bob"]
        x, pam = xb, part.constellation
        k = part.level_of(x)
    elif scheme == "nocoop_alice":
        part = parts["alice"]
        x, pam = xa, part.constellation
        k = part.level_of(x)
    else:  # coop: Alice's symbol carries the bits, Bob's symbol sets the count
        pam = parts["alice"].constellation
        x = xa
        k = coop_level(xb, M_A, M_B)
    label = pam.label(x)
    s = label[len(label) - k :] if k else ""
    return x, pam, k, s


def reference_audit(scheme: str, M_A: int, M_B: int) -> SimpleNamespace:
    """The figures and posteriors of a LeakageReport, one pair at a time."""
    m_a = M_A.bit_length() - 1
    parts = {
        "alice": build_partition(M_A, M_B, "alice"),
        "bob": build_partition(M_A, M_B, "bob"),
    }
    a, b = make_pam(M_A), make_pam(M_B)
    flat_lim = M_B - M_A

    suffix_cells = {j: {} for j in range(1, m_a + 1)}
    flat_suffix_cells = {j: {} for j in range(1, m_a + 1)}
    semantic_cells: dict = {}
    flat_semantic_cells: dict = {}
    flat_total = 0
    for xa in a.points:
        for xb in b.points:
            y = xa + xb
            x, pam, k, s = secret_content(scheme, xa, xb, parts, M_A, M_B)
            label = pam.label(x)
            in_flat = abs(y) <= flat_lim
            if in_flat:
                flat_total += 1
            for j in range(1, m_a + 1):
                suf = label[len(label) - j :]
                key = (y, suf)
                suffix_cells[j][key] = suffix_cells[j].get(key, 0) + 1
                if in_flat:
                    flat_suffix_cells[j][key] = flat_suffix_cells[j].get(key, 0) + 1
            key = (y, (k, s))
            semantic_cells[key] = semantic_cells.get(key, 0) + 1
            if in_flat:
                flat_semantic_cells[key] = flat_semantic_cells.get(key, 0) + 1

    total = M_A * M_B

    def posterior(cells: dict) -> dict:
        per_y: dict = {}
        for (y, v), c in cells.items():
            per_y.setdefault(y, {})[v] = c
        return {
            y: {v: Fraction(c, sum(vals.values())) for v, c in vals.items()}
            for y, vals in per_y.items()
        }

    return SimpleNamespace(
        suffix_mi=tuple(mi_from_counts(suffix_cells[j], total) for j in range(1, m_a + 1)),
        semantic_mi=mi_from_counts(semantic_cells, total),
        flat_suffix_mi=tuple(
            mi_from_counts(flat_suffix_cells[j], flat_total) for j in range(1, m_a + 1)
        ),
        flat_semantic_mi=mi_from_counts(flat_semantic_cells, flat_total),
        suffix_posteriors={j: posterior(suffix_cells[j]) for j in range(1, m_a + 1)},
        semantic_posteriors=posterior(semantic_cells),
    )
