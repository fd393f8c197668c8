"""numpy's LAPACK gufuncs that the solve calls directly, pinned to the
public ``numpy.linalg`` functions that wrap them, so that a numpy release
that changes either fails here by name."""

import warnings

import numpy as np
import pytest

from finslergo import geodesic

SIZES = (1, 7, 1000)


def _factor(n):
    """A stack of n random [7, 5] systems factored in place, and a copy of
    the stack before the factorization."""
    a = np.random.default_rng(n).standard_normal((n, 7, 5))
    qr = a.copy()
    tau = geodesic._qr_r_raw(qr, signature="d->d")
    return a, qr, tau


@pytest.mark.parametrize("n", SIZES)
def test_qr_r_raw_in_place_is_numpys_raw_qr_bit_for_bit(n):
    a, qr, tau = _factor(n)
    raw, raw_tau = np.linalg.qr(a, mode="raw")
    assert qr.tobytes() == np.ascontiguousarray(raw.swapaxes(1, 2)).tobytes()
    assert tau.tobytes() == raw_tau.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_inv_is_numpys_inv_on_nonsingular_stacks(n):
    r = np.triu(_factor(n)[1][:, :4, :4])
    assert geodesic._inv(r, signature="d->d").tobytes() == \
        np.linalg.inv(r).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_a_zero_pivot_gives_its_own_row_nan_and_no_warning(n):
    r = np.triu(_factor(n)[1][:, :4, :4])
    ref = np.linalg.inv(r)
    k = n // 2
    r[k, 2, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):  # as in the solve
            out = geodesic._inv(r, signature="d->d")
        # the pool threads ignore floating-point errors by np.seterr
        pooled = geodesic._executor().submit(geodesic._inv, r,
                                             signature="d->d").result()
    for got in (out, pooled):
        assert np.isnan(got[k]).all()
        assert np.delete(got, k, axis=0).tobytes() == \
            np.delete(ref, k, axis=0).tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(r)
