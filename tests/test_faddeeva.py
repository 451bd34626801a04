import runpy
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import wofz

from atompairs import vapor
from atompairs.faddeeva import DAWSON_HEIGHT, NODES_PER_UNIT, WING_RADIUS, faddeeva, voigt_profile_complex

# points in a large input: about 11 ms of wofz
LARGE = 1 << 16


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
    # the whole input is checked, up to its last point
    z = _upper_half_plane(4 * LARGE, 6)
    z[-1] = 3.0 - 1e-3j
    with pytest.raises(ValueError):
        faddeeva(z)


def _upper_half_plane(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-60, 60, shape) + 1j * 10.0 ** rng.uniform(-4, 1.5, shape)


def _one_call(z):
    """The oracle of the split, buffer and thread tests: one ``faddeeva`` call
    on the calling thread into a fresh array, which holds points of every
    method and agrees with ``wofz`` within the 1e-13 of
    ``test_matches_wofz_at_random_and_non_finite_points``."""
    w = faddeeva(z)
    r = np.abs(z)
    assert (r < WING_RADIUS).any() and (r >= WING_RADIUS).any()
    assert (z.imag[r < WING_RADIUS] < DAWSON_HEIGHT).any() and (z.imag[r < WING_RADIUS] >= DAWSON_HEIGHT).any()
    assert (np.abs(w - wofz(z)) / np.abs(wofz(z))).max() <= 1e-13
    return w


def test_wings_match_mpmath_across_the_switch():
    """|z| from 6.5 to 8, at angles down to the real axis, both sides of the
    switch from the Dawson band and the rational form to the continued
    fraction at |z| = 7.

    Everywhere: complex relative error <= 1e-13, and <= 1e-12 in Re w for
    Im z >= 1e-6, where Re w is down to ~1e-8 of |w|.  A radius of 6 fails
    this: at |z| = 6.5 the fraction omits e^(-z^2), 3.3e-11 of Re w at Im z =
    1e-6.  On the fraction's side it must be as good as its rounding, which
    fixes its depth: complex <= 2e-15 and Re w <= 1e-13; 11 levels give 4.3e-15
    and 1.6e-13 at |z| = 7, 12 levels 1.0e-15 and 6.8e-14."""
    mpmath.mp.dps = 40
    radii = np.array([6.5, 6.75, 6.9, 6.99, 7.0, 7.01, 7.1, 7.25, 7.5, 7.75, 8.0])
    heights = np.concatenate([10.0 ** np.arange(-8.0, 1.0), [2.0, 4.0, 6.0]])
    r, y = np.meshgrid(radii, heights)
    r, y = r[y < r], y[y < r]
    x = np.sqrt(r**2 - y**2)
    # the imaginary axis and angles between
    phi = np.linspace(np.pi / 2, np.pi, 7)[1:]
    zs = np.concatenate([x + 1j * y, -x + 1j * y, 1j * radii, (radii[:, None] * np.exp(1j * phi)).ravel()])
    ours = faddeeva(zs)
    ref = np.array([_mp_faddeeva(z) for z in zs])
    err = np.abs(ours - ref) / np.abs(ref)
    re_err = np.abs(ours.real - ref.real) / np.abs(ref.real)
    resolved = zs.imag >= 1e-6
    wings = np.abs(zs) >= WING_RADIUS
    assert err.max() <= 1e-13
    assert re_err[resolved].max() <= 1e-12
    assert err[wings].max() <= 2e-15
    assert re_err[wings & resolved].max() <= 1e-13


def _assert_matches_mpmath(zs):
    """The accuracy contract: complex relative error <= 1e-13, and <= 1e-12 in
    Re w for Im z >= 1e-6."""
    mpmath.mp.dps = 40
    ours = faddeeva(zs)
    ref = np.array([_mp_faddeeva(z) for z in zs])
    assert (np.abs(ours - ref) / np.abs(ref)).max() <= 1e-13
    resolved = zs.imag >= 1e-6
    assert (np.abs(ours.real - ref.real) / np.abs(ref.real))[resolved].max() <= 1e-12


def test_dawson_band_matches_mpmath_midway_between_its_nodes():
    """Points as far from a Taylor node as the band has, every sixth node
    out to |z| = 7, from Im z = 1e-8 to just below DAWSON_HEIGHT."""
    x = (np.arange(-349, 350, 6) + 0.5) / NODES_PER_UNIT
    heights = np.concatenate([10.0 ** np.arange(-8.0, -1.0), [0.05, np.nextafter(DAWSON_HEIGHT, 0.0)]])
    zs = (x[None, :] + 1j * heights[:, None]).ravel()
    _assert_matches_mpmath(zs[np.abs(zs) < WING_RADIUS])


@pytest.mark.parametrize("height", [np.nextafter(DAWSON_HEIGHT, 0.0), DAWSON_HEIGHT], ids=["dawson", "rational"])
def test_both_sides_of_the_dawson_height_match_mpmath(height):
    _assert_matches_mpmath(np.linspace(-6.99, 6.99, 141) + 1j * height)


@pytest.mark.parametrize("radius", [np.nextafter(WING_RADIUS, 0.0), WING_RADIUS], ids=["core", "fraction"])
def test_both_sides_of_the_wing_radius_match_mpmath(radius):
    zs = radius * np.exp(1j * np.linspace(0.0, np.pi, 181))
    zs.imag = np.maximum(zs.imag, 0.0)  # sin(pi) > 0 by rounding only
    _assert_matches_mpmath(zs)


def test_dawson_table_matches_mpmath_at_20_random_nodes():
    """Each row of the shipped table against mpmath's own Taylor expansion of
    the Dawson function (numerical differentiation, not the table's
    recurrence) at 50 digits, to 2 ulp of the row's largest term."""
    with resources.files("atompairs.data").joinpath("dawson_taylor.txt").open() as fh:
        table = np.loadtxt(fh)
    dawson = lambda t: mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-t * t) * mpmath.erfi(t)  # noqa: E731
    with mpmath.workdps(50):
        for i in np.random.default_rng(23).choice(table.shape[0], 20, replace=False):
            ref = np.array([float(c) for c in mpmath.taylor(dawson, i / NODES_PER_UNIT, table.shape[1] - 1)])
            np.testing.assert_allclose(table[i], ref, rtol=0, atol=4.5e-16 * np.abs(ref).max())


def test_the_table_script_writes_the_shipped_table(tmp_path):
    script = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "faddeeva_table.py"))
    assert script["NODES_PER_UNIT"] == NODES_PER_UNIT
    script["main"]([str(tmp_path / "table.txt")])
    shipped = resources.files("atompairs.data").joinpath("dawson_taylor.txt").read_text()
    assert (tmp_path / "table.txt").read_text() == shipped


def test_matches_wofz_at_random_and_non_finite_points():
    """Within 1e-13 of ``wofz`` at random points of every method, and at the
    points too far out for the fraction, i / (sqrt(pi) z), and non-finite
    ones, with ``wofz``'s zeros and NaNs."""
    rng = np.random.default_rng(17)
    z = rng.uniform(-60, 60, 100_000) + 1j * 10.0 ** rng.uniform(-8, 2, 100_000)
    assert np.abs(z).min() < WING_RADIUS < np.abs(z).max()
    assert (np.abs(faddeeva(z) - wofz(z)) / np.abs(wofz(z))).max() <= 1e-13
    inf, nan = np.inf, np.nan
    odd = np.array([inf, -inf, nan, 1j * inf, complex(inf, inf), complex(-inf, 1.0), complex(1.0, nan),
                    complex(nan, 1.0), complex(nan, nan), 1e25 + 1j, 1j * 1e300, complex(1e200, 1e200),
                    complex(-inf, inf), complex(1.5e308, 1.5e308), 1e20, -1e20 + 5j])
    np.testing.assert_allclose(faddeeva(odd), wofz(odd), rtol=1e-13, atol=0)


def test_limits_at_infinity():
    """w(z) -> 0 as |z| -> inf in the upper half plane, so i inf and +-inf + i
    give 0.  ``1j * np.inf`` is nan + inf j in Python (0 * inf is NaN), a NaN
    point, and gets NaN."""
    inf = np.inf
    limits = np.array([complex(0.0, inf), complex(inf, 1.0), complex(-inf, 1.0)])
    assert np.array_equal(faddeeva(limits), np.zeros(3))
    assert np.isnan(1j * inf) and np.isnan(faddeeva(np.array([1j * inf]))).all()


def _blocks(n, count):
    """``count`` contiguous slices that cover ``range(n)``."""
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.parametrize(
    "shape",
    [(vapor.BLOCK_POINTS + 7,), (37, vapor.BLOCK_POINTS // 16), (vapor.BLOCK_POINTS // 2 - 1,)],
    ids=["1d-split", "2d-split", "1d-below-threshold"],
)
def test_split_evaluation_is_bit_identical_to_wofz(shape, blocks):
    """The last axis cut by plain slicing in 2 or 3 blocks, rows standing for
    lines as in the frequency walk: each block evaluated into its columns of
    one output gives one call's result (``_one_call``, itself within 1e-13 of
    ``wofz``) bit for bit, over a walk block and under half of one."""
    z = _upper_half_plane(shape, 5)
    w = np.empty_like(z)
    for columns in _blocks(z.shape[-1], blocks):
        faddeeva(z[..., columns], out=w[..., columns])
    assert np.array_equal(w, _one_call(z))


@pytest.mark.parametrize("callers", [1, 2, 3])
@pytest.mark.parametrize("size", [LARGE + 7, 100])
@pytest.mark.parametrize("into", ["buffer", "in-place", "strided", "fresh"])
def test_evaluation_into_a_buffer_is_bit_identical_to_wofz(size, callers, into):
    """``out=`` receives w, also z's own memory and a strided view, and with
    no ``out=`` w comes in a fresh array; with one caller or several at once
    on threads of their own, two inputs each, each into its own buffer: one
    call's result (``_one_call``, itself within 1e-13 of ``wofz``) bit for
    bit."""
    inputs = [_upper_half_plane(size, 9 + k) for k in range(2 * callers)]
    wants = [_one_call(z) for z in inputs]

    def buffer(z):
        strided = np.empty(2 * size, dtype=complex)[::2]
        return {"buffer": np.empty_like(z), "in-place": z, "strided": strided, "fresh": None}[into]

    outs = [buffer(z) for z in inputs]
    with ThreadPoolExecutor(callers) as pool:
        results = list(pool.map(lambda z, out: faddeeva(z, out=out), inputs, outs))
    for got, out, want in zip(results, outs, wants):
        assert out is None or got is out
        assert np.array_equal(got, want)


def test_voigt_into_a_buffer_equals_a_fresh_profile():
    delta = np.linspace(-5e9, 5e9, 2001)[None, :] - np.array([[0.0], [1e9]])
    lorentz, sigma = np.array([[6e6], [8e6]]), np.array([[300e6], [280e6]])
    out = np.full(delta.shape, np.nan, dtype=complex)
    assert voigt_profile_complex(delta, lorentz, sigma, out=out) is out
    sigma_w = 2.0 * np.pi * sigma
    z = delta * (2.0 * np.pi / sigma_w) + 1j * (np.pi * lorentz / sigma_w)
    assert np.array_equal(out, faddeeva(z) * (np.sqrt(np.pi) / sigma_w))
    assert np.array_equal(voigt_profile_complex(delta, lorentz, sigma), out)


def test_split_evaluation_rejects_lower_half_plane_in_last_chunk():
    # the last block's refusal reaches the caller
    z = _upper_half_plane(4 * LARGE, 6)
    z[-1] = 3.0 - 1e-3j
    with pytest.raises(ValueError):
        for columns in _blocks(z.size, 2):
            faddeeva(z[columns])


def test_voigt_normalization_and_signs():
    # real part is the absorption profile: positive, unit area pi in angular
    # frequency; imaginary part is the antisymmetric dispersion wing
    delta = np.linspace(-5e9, 5e9, 200001)
    prof = voigt_profile_complex(delta, 6e6, 300e6)
    assert np.all(prof.real > 0)
    integral = np.trapezoid(prof.real, 2 * np.pi * delta)
    assert integral == pytest.approx(np.pi, rel=1e-3)
    assert np.abs(prof.imag + prof.imag[::-1]).max() < 1e-6 * np.abs(prof.imag).max()
