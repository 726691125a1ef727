"""Letter-bijection relatedness versus equality of the combinatorial map.

Two words are pattern-equal when one is the letterwise image of the other
under an injective letter map. The sparse count map is a complete invariant
for this relation, so the two checks must always agree; ``check_theorem``
runs both and reports any disagreement instead of hiding it.

``equivalent_by_tensor`` builds both words' maps with ``combinatorics_map``,
which builds their subword tables, and compares them with
``CombinatoricsMap.same_counts``, which builds the rest of each map only as
far as the two still agree: a pair whose table sizes, subword lengths or
empty-cell counts differ is settled without counting a chain, and a pair
that agrees on all of those counts both maps' chains independently and
compares them entry by entry, without laying either out as a sparse form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .combinatorics import combinatorics_map
from .words import Bijection, Word, as_text


@dataclass(frozen=True)
class EquivalenceReport:
    tensor_equal: bool
    bijection: Bijection | None
    agree: bool


def find_bijection(a: Word | str, b: Word | str) -> Bijection | None:
    """The unique letterwise-consistent injective map from a onto b, if any.

    Positional unification: scanning both words once pins every letter's
    image, so no factorial search over candidate maps is needed.
    """
    ta, tb = as_text(a), as_text(b)
    if len(ta) != len(tb):
        return None
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}
    for x, y in zip(ta, tb):
        if fwd.setdefault(x, y) != y or rev.setdefault(y, x) != x:
            return None
    return Bijection.from_mapping(fwd)


EXHAUSTIVE_MAX_LETTERS = 8  # 8! maps at most


def find_bijection_exhaustive(a: Word | str, b: Word | str, max_letters: int = EXHAUSTIVE_MAX_LETTERS) -> Bijection | None:
    """Reference search trying every injective letter map. Small inputs only."""
    ta, tb = as_text(a), as_text(b)
    if len(ta) != len(tb):
        return None
    src = sorted(set(ta))
    dst = sorted(set(tb))
    if len(src) != len(dst):
        return None
    if len(src) > max_letters:
        raise ValueError(f"exhaustive search over {len(src)} letters is not tractable (limit {max_letters})")
    for perm in permutations(dst):
        mapping = dict(zip(src, perm))
        if all(mapping[x] == y for x, y in zip(ta, tb)):
            return Bijection.from_mapping(mapping)
    return None


def equivalent_by_tensor(a: Word | str, b: Word | str) -> bool:
    """True iff both words yield the identical canonical-index sparse map."""
    return combinatorics_map(a).same_counts(combinatorics_map(b))


def check_theorem(a: Word | str, b: Word | str, use_oracle: bool = False) -> EquivalenceReport:
    """Run both equivalence routes and report whether they agree.

    With use_oracle, the positional search is additionally cross-checked
    against the exhaustive one; any mismatch counts as disagreement.
    """
    phi = find_bijection(a, b)
    if use_oracle:
        phi_ref = find_bijection_exhaustive(a, b)
        if (phi is None) != (phi_ref is None):
            return EquivalenceReport(equivalent_by_tensor(a, b), phi, agree=False)
    tensor_equal = equivalent_by_tensor(a, b)
    return EquivalenceReport(tensor_equal, phi, agree=tensor_equal == (phi is not None))
