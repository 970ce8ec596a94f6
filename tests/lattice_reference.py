"""Test-side readings of a group's subgroup-class records
(``FiniteGroup._lattice``): subconjugacy, the class of a subgroup, and the
Weyl coset representatives that ``fiber_poincare_equivariant`` and
``_weyl_permutations`` take."""


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
    """The least index of each coset of the subgroup ``mask`` in its
    normalizer, the identity's coset first."""
    return [coset[0] for coset in group._cosets(mask, group._normalizer(mask))]
