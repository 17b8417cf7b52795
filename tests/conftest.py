import numpy as np
import pytest

from skewbidisc.synthesis import BidiscModelSpec, PolyVectorMap, ScalarPoly


@pytest.fixture
def lambda12_spec():
    """Factory for the standard product-function model spec.

    F(l) = l1 l2 with u1 constant 1 and u2(l) = l1 satisfies the two-disc
    model identity exactly:
        1 - conj(m1 m2) l1 l2
          = (1 - conj(m1) l1) * 1 + (1 - conj(m2) l2) * conj(m1) l1.
    """

    def make(r: float = 0.5) -> BidiscModelSpec:
        one = np.array([1.0], dtype=complex)
        return BidiscModelSpec(
            r=r,
            d1=1,
            d2=1,
            u1=PolyVectorMap(dim=1, terms=(((0, 0), one),)),
            u2=PolyVectorMap(dim=1, terms=(((1, 0), one),)),
            F=ScalarPoly(terms=(((1, 1), 1.0 + 0.0j),)),
        )

    return make


@pytest.fixture
def eigvalsh_loads(monkeypatch):
    """Matrices per np.linalg.eigvalsh call, one entry a call, recorded from now on."""
    loads = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        loads.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return loads
