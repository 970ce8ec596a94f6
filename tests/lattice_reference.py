"""Test-side readings of a group's subgroup-class records
(``FiniteGroup._lattice``): every subgroup as a set of elements,
subconjugacy, the class of a subgroup, the Weyl coset representatives
that ``fiber_poincare_equivariant`` and ``_weyl_permutations`` take, and
a report's fibers against ones walked without the records' generators."""

from kummer.groupcore import _mask_key, _weyl_permutations
from kummer.mckay import fiber_poincare_equivariant


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


def assert_fibers_are_the_spanned_ones(report):
    """Each stratum's fiber, whose classes ``stratify`` walks under the
    generators of H's subgroup record (the group's class records for
    H = G), equals the one walked under a generating set that ``_span``
    picks from H's members, and so do the Weyl permutations."""
    action = report.action
    for s in report.strata:
        cls, fiber = s._classes.classes[s._index], s._classes.fibers[s._index]
        reps = [w for w, _ in cls.weyl_classes[0]]
        assert (_weyl_permutations(action, cls.mask, reps, cls.gens)
                == _weyl_permutations(action, cls.mask, reps)), s.label
        spanned = fiber_poincare_equivariant(action, cls.mask, reps)
        assert (fiber.plain, fiber.values) == (spanned.plain, spanned.values), s.label
