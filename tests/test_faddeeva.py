import multiprocessing
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.special import wofz

from atompairs import faddeeva as faddeeva_module
from atompairs.faddeeva import SPLIT_MIN_POINTS, faddeeva, voigt_profile_complex


def _mp_faddeeva(z):
    zc = mpmath.mpc(z.real, z.imag)
    val = mpmath.exp(-(zc**2)) * mpmath.erfc(-1j * zc)
    return complex(val)


def test_against_high_precision_reference_50_points():
    mpmath.mp.dps = 40
    rng = np.random.default_rng(7)
    xs = np.concatenate(
        [
            rng.uniform(-50, 50, 30),
            rng.uniform(-2, 2, 10),
            np.array([0.0, 0.5, -1.0, 26.0, -26.0, 80.0, 3.2, -47.0, 12.0, 0.01]),
        ]
    )
    ys = np.concatenate(
        [
            10.0 ** rng.uniform(-4, 1, 30),
            10.0 ** rng.uniform(-3, 0, 10),
            np.array([1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 2e-4, 5.0]),
        ]
    )
    zs = xs + 1j * ys
    ours = faddeeva(zs)
    for z, w in zip(zs, ours):
        ref = _mp_faddeeva(z)
        assert abs(w - ref) / abs(ref) < 1e-12, f"z={z}"


def test_reflection_symmetry():
    # w(-conj z) = conj w(z) on the upper half plane
    rng = np.random.default_rng(11)
    zs = rng.uniform(-100, 100, 200) + 1j * 10.0 ** rng.uniform(-5, 1.5, 200)
    assert np.allclose(faddeeva(-zs.conj()), faddeeva(zs).conj(), rtol=1e-14, atol=0)


def test_large_argument_asymptote():
    # w(z) = i / (sqrt(pi) z) * (1 + 1/(2 z^2) + 3/(4 z^4) + ...); at |z| >= 1e3
    # the first omitted term is below 1e-12
    rng = np.random.default_rng(13)
    r = 10.0 ** rng.uniform(3, 6, 200)
    phi = rng.uniform(0.0, np.pi, 200)
    zs = r * np.exp(1j * phi)
    asymptote = 1j / (np.sqrt(np.pi) * zs) * (1.0 + 1.0 / (2.0 * zs**2))
    assert np.allclose(faddeeva(zs), asymptote, rtol=1e-11, atol=0)


def test_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        faddeeva(np.array([1.0 - 1.0j]))


def _upper_half_plane(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-60, 60, shape) + 1j * 10.0 ** rng.uniform(-4, 1.5, shape)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "shape",
    [(SPLIT_MIN_POINTS + 7,), (37, SPLIT_MIN_POINTS // 16), (SPLIT_MIN_POINTS - 1,)],
    ids=["1d-split", "2d-split", "1d-below-threshold"],
)
def test_split_evaluation_is_bit_identical_to_wofz(shape, cpus, monkeypatch):
    # chunk count as on a host with that many usable CPUs, whatever this one has
    monkeypatch.setattr(faddeeva_module, "_usable_cpus", lambda: cpus)
    z = _upper_half_plane(shape, 5)
    w = faddeeva(z)
    assert w.shape == z.shape and w.flags.c_contiguous
    assert np.array_equal(w, wofz(z))


def test_split_evaluation_rejects_lower_half_plane_in_last_chunk():
    z = _upper_half_plane(4 * SPLIT_MIN_POINTS, 6)
    z[-1] = 3.0 - 1e-3j
    with pytest.raises(ValueError):
        faddeeva(z)


def test_concurrent_callers_get_their_own_results():
    inputs = [_upper_half_plane(2 * SPLIT_MIN_POINTS + k, 20 + k) for k in range(6)]
    with ThreadPoolExecutor(3) as callers:
        results = list(callers.map(faddeeva, inputs))
    for z, w in zip(inputs, results):
        assert np.array_equal(w, wofz(z))


def _faddeeva_in_child(conn, z):
    conn.send(bool(np.array_equal(faddeeva(z), wofz(z))))
    conn.close()


def test_split_evaluation_works_in_forked_child():
    # the parent's pool threads do not survive fork; the child must build its own
    z = _upper_half_plane(4 * SPLIT_MIN_POINTS, 8)
    assert np.array_equal(faddeeva(z), wofz(z))
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_faddeeva_in_child, args=(send, z))
    child.start()
    send.close()
    try:
        assert receive.poll(60.0), "faddeeva() hung in a forked child"
        assert receive.recv() is True
        child.join(10.0)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
        child.join()


def test_voigt_normalization_and_signs():
    # real part is the absorption profile: positive, unit area pi in angular
    # frequency; imaginary part is the antisymmetric dispersion wing
    delta = np.linspace(-5e9, 5e9, 200001)
    prof = voigt_profile_complex(delta, 6e6, 300e6)
    assert np.all(prof.real > 0)
    integral = np.trapezoid(prof.real, 2 * np.pi * delta)
    assert integral == pytest.approx(np.pi, rel=1e-3)
    assert np.abs(prof.imag + prof.imag[::-1]).max() < 1e-6 * np.abs(prof.imag).max()
