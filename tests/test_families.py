import numpy as np

from pairorbit.families import FAMILIES, OrbitClass, representative, sample_params


def test_representative_is_memoised_read_only_and_unchanged():
    for spec in FAMILIES.values():
        for cls in sample_params(spec, n=2, seed=3):
            rep = representative(cls)
            assert representative(cls) is rep
            for m in (rep.A.m, rep.B.m):
                assert not m.flags.writeable
            fresh = representative(OrbitClass(cls.a_family, cls.b_form,
                                              dict(cls.params)))
            assert fresh is not rep
            assert fresh.A.m.tobytes() == rep.A.m.tobytes()
            assert fresh.B.m.tobytes() == rep.B.m.tobytes()


def test_memo_leaves_equality_and_repr_alone():
    a = OrbitClass("definite", "a_lt_d", {"a": 0.5, "d": 1.5})
    b = OrbitClass("definite", "a_lt_d", {"a": 0.5, "d": 1.5})
    representative(a)
    assert a == b and repr(a) == repr(b)
    assert np.array_equal(representative(a).B.m, np.diag([0.5, 1.5]))
