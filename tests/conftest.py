import pytest

from corpus import alternating_group, cyclic_group, symmetric_group
from tautilt.algebra import GroupAlgebra, splitting_field
from tautilt.ff import field_create
from tautilt.groups import SubgroupEmbedding, group_from_generators, perm_from_cycles
from tautilt.modules import ModuleRegistry


def make_context(group, p, m=None):
    field = splitting_field(p, [group]) if m is None else field_create(p, m)
    algebra = GroupAlgebra(group, field)
    ModuleRegistry(algebra)
    return algebra


class EmbeddedPair:
    """A normal embedding with matched algebras and tilting contexts."""

    def __init__(self, sub_group, amb_group, p):
        from tautilt.engine import TiltingContext
        from tautilt.functors import InductionContext

        field = splitting_field(p, [amb_group])
        self.emb = SubgroupEmbedding(sub_group, amb_group)
        self.sub_algebra = GroupAlgebra(sub_group, field)
        self.amb_algebra = GroupAlgebra(amb_group, field)
        ModuleRegistry(self.sub_algebra)
        ModuleRegistry(self.amb_algebra)
        self.ictx = InductionContext(self.emb, self.sub_algebra, self.amb_algebra)
        self.sub_tctx = TiltingContext(self.sub_algebra)
        self.amb_tctx = TiltingContext(self.amb_algebra)


@pytest.fixture(scope="session")
def a4_in_s4():
    return EmbeddedPair(alternating_group(4), symmetric_group(4), 2)


@pytest.fixture(scope="session")
def c3_in_s3():
    c3 = group_from_generators([perm_from_cycles([[1, 2, 3]], 3)], name="C3")
    return EmbeddedPair(c3, symmetric_group(3), 2)


@pytest.fixture(scope="session")
def c2_in_c4():
    c4 = cyclic_group(4)
    c2 = group_from_generators([perm_from_cycles([[1, 3], [2, 4]], 4)], name="C2")
    return EmbeddedPair(c2, c4, 2)


@pytest.fixture(scope="session")
def a4_poset(a4_in_s4):
    from tautilt.engine import enumerate_poset

    return enumerate_poset(a4_in_s4.sub_tctx)


@pytest.fixture(scope="session")
def s4_poset(a4_in_s4):
    from tautilt.engine import enumerate_poset

    return enumerate_poset(a4_in_s4.amb_tctx)


@pytest.fixture(scope="session")
def a4_gf4():
    return make_context(alternating_group(4), 2, 2)


@pytest.fixture(scope="session")
def s4_gf4():
    return make_context(symmetric_group(4), 2, 2)


@pytest.fixture(scope="session")
def c2_gf2():
    return make_context(cyclic_group(2), 2, 1)


@pytest.fixture(scope="session")
def c4_gf2():
    return make_context(cyclic_group(4), 2, 1)


@pytest.fixture(scope="session")
def s3_gf3():
    return make_context(symmetric_group(3), 3, 1)


@pytest.fixture(scope="session")
def c3_gf4():
    c3 = group_from_generators([perm_from_cycles([[1, 2, 3]], 3)], name="C3")
    return make_context(c3, 2, 2)
