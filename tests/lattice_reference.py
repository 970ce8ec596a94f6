"""Test-side readings of a group's subgroup-class records
(``FiniteGroup._lattice``): every subgroup as a set of elements,
subconjugacy, the class of a subgroup, and the Weyl coset representatives
that ``fiber_poincare_equivariant`` and ``_weyl_permutations`` take."""

from kummer.groupcore import _mask_key


def all_subgroups(group):
    """Every subgroup as a frozenset of elements, sorted by (order, sorted
    elements)."""
    masks = sorted((sub for cls in group._lattice for sub in cls.members), key=_mask_key)
    return tuple(map(group._set, masks))


def subconjugacy(group):
    """Entry [i][j] says class i is subconjugate to class j: some member of
    class i lies in some member of class j.  Checked to be reflexive."""
    classes = group._lattice
    out = tuple(tuple(any(not sub & ~other.mask for sub in cls.members)
                      for other in classes) for cls in classes)
    assert all(out[i][i] for i in range(len(out))), "subconjugacy is not reflexive"
    return out


def class_of(group, sub):
    """The number of the class holding the subgroup ``sub``, a set of
    elements; ``ValueError`` for a set that is not a subgroup."""
    try:
        mask = group._mask(sub)
        return next(i for i, cls in enumerate(group._lattice)
                    if cls.order == mask.bit_count() and mask in cls.members)
    except (KeyError, StopIteration):
        raise ValueError("not a subgroup of this group") from None


def weyl_reps(group, mask):
    """The least index of each left coset gR of the subgroup R = ``mask`` in
    its normalizer, R's own first, grouped here from the Cayley table."""
    table, norm = group._table, group._normalizer(mask)
    members = [h for h in range(len(table)) if mask >> h & 1]
    reps, seen = [members[0]], set(members)
    for g in range(len(table)):
        if norm >> g & 1 and g not in seen:
            reps.append(g)
            seen.update(table[g][h] for h in members)
    return reps
