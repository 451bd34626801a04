import errno
import itertools
import os
import re
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from scipy.constants import c as C_LIGHT

from atompairs import vapor
from atompairs.atoms import MU_B_HZ_PER_T, lines_at_fields
from atompairs.errors import ConfigError, ResolutionError
from atompairs.noon import circular_jones
from atompairs.vapor import (
    VaporCellConfig,
    VaporPath,
    blocking_cell_transmission,
    check_spacing,
    make_frequency_grid,
    number_density,
    transfer_vs_field,
)

from reference import hilbert_transform, one_shot_susceptibility, steck_rb_number_density


FIG10_FIELDS = np.array([0.0, 12e-3, 24e-3, 37e-3, 49e-3, 58e-3])


def natural_cell(atoms, temp_k=300.0, length_m=0.10, buffer_mhz=0.0):
    return VaporCellConfig(
        length_m=length_m,
        temperature_k=temp_k,
        isotope_fractions=atoms.natural_fractions(),
        buffer_fwhm_hz=buffer_mhz * 1e6,
    )


# ------------------------------------------------------------- number density


def test_density_at_338k_matches_quoted_value(atoms):
    n_cm3 = number_density(338.15, atoms) / 1e6
    assert 5e11 / 1.5 < n_cm3 < 5e11 * 1.5


@pytest.mark.parametrize("temp_k", [280.0, 300.0, 343.15, 400.0])
def test_density_follows_steck_alcock_fit(atoms, temp_k):
    # both phases of the fit; 343.15 K is the sensing cell (criterion 8)
    assert number_density(temp_k, atoms) == pytest.approx(
        steck_rb_number_density(temp_k), rel=1e-6
    )


# Steck rev. 2.3.3, 5P1/2 decay rate and vacuum wavelength of the D1 line
# (the same to 1e-6 for both isotopes)
STECK_D1_GAMMA_PER_S = 36.129e6
STECK_D1_WAVELENGTH_M = 794.979e-9


@pytest.mark.parametrize("isotope", ["Rb85", "Rb87"])
def test_integrated_absorption_per_atom_is_lambda_sq_gamma_over_8pi(atoms, isotope):
    # Each circular polarization on an unpolarized J = 1/2 -> J' = 1/2 line
    # absorbs int sigma(nu) dnu = lambda^2 Gamma / 8 pi per atom. This pins
    # the dipole strength, line strengths and profile normalization that
    # set the size of the Faraday rotation.
    cell = VaporCellConfig(length_m=0.10, temperature_k=300.0, isotope_fractions={isotope: 1.0})
    path = VaporPath(atoms, cell, 0.0, slices=1)
    nu = atoms[isotope].d1_frequency_hz + np.arange(-50e9, 50e9 + 1.0, 2e6)
    expected = STECK_D1_WAVELENGTH_M**2 * STECK_D1_GAMMA_PER_S / (8 * np.pi)
    for n in path.index_at(nu, 0.0):
        alpha = 4 * np.pi * nu * n.imag / C_LIGHT  # intensity absorption, m^-1
        per_atom = np.trapezoid(alpha, nu) / path.density_m3
        # the +-50 GHz window misses 3.7e-5 of the Lorentzian wings
        assert per_atom == pytest.approx(expected, rel=1e-4)


def test_density_monotone(atoms):
    temps = np.linspace(260.0, 440.0, 50)
    dens = [number_density(t, atoms) for t in temps]
    assert np.all(np.diff(dens) > 0)


def test_density_range_check(atoms):
    with pytest.raises(ConfigError):
        number_density(200.0, atoms)
    with pytest.raises(ConfigError):
        number_density(460.0, atoms)


@pytest.mark.parametrize("temp_k", [200.0, 460.0, 1e300])
def test_spacing_check_refuses_the_temperature_first(atoms, temp_k):
    """The grid check refuses a temperature outside the validated range
    before it computes a Voigt width, so 1e300 K warns of no overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"validated range \(250, 450\) K"):
            check_spacing(natural_cell(atoms, temp_k=temp_k), atoms, 0.5e6)


def test_partial_density_linear_in_fraction(atoms):
    # doubling an isotope fraction doubles that isotope's contribution:
    # absorption depth scales accordingly on an isolated line
    grid = np.array([atoms["Rb87"].d1_frequency_hz - 2.56e9])
    cells = []
    for f87 in (0.2, 0.4):
        cells.append(
            VaporCellConfig(
                length_m=0.10,
                temperature_k=300.0,
                isotope_fractions={"Rb85": 1 - f87, "Rb87": f87},
            )
        )
    ods = []
    for cell in cells:
        n_plus, _ = VaporPath(atoms, cell, 0.0, slices=1).index_at(grid, 0.0)
        ods.append((n_plus**2 - 1.0).imag[0])
    # 87Rb dominates at its own line; the 85Rb wing offsets exact doubling
    assert ods[1] / ods[0] == pytest.approx(2.0, rel=0.15)


# ------------------------------------------------------------- complex index


def test_far_detuned_index_is_vacuum(atoms):
    cell = natural_cell(atoms)
    path = VaporPath(atoms, cell, 0.0, slices=1)
    n_plus, n_minus = path.index_at(np.array([atoms.d1_center_hz() + 1.2e12]), 0.0)
    assert abs(n_plus[0] - 1.0) < 1e-9
    assert abs(n_minus[0] - 1.0) < 1e-9


def test_index_passivity(atoms, d1_center):
    cell = natural_cell(atoms, temp_k=330.0)
    path = VaporPath(atoms, cell, 6e-3, slices=1)
    grid = make_frequency_grid(d1_center, 6e9, 10e6)
    n_plus, n_minus = path.index_at(grid, 6e-3)
    assert n_plus.imag.min() > -1e-15
    assert n_minus.imag.min() > -1e-15


def test_absorption_dips_300k_four_groups(atoms, fadof_grid):
    cell = natural_cell(atoms, temp_k=300.0)
    t = blocking_cell_transmission(cell, atoms)
    trans = t(fadof_grid)
    dips = trans < 0.9
    # count connected below-threshold regions
    starts = np.sum(dips[1:] & ~dips[:-1]) + int(dips[0])
    assert starts == 4


def test_absorption_365k_three_opaque_regions(atoms, fadof_grid):
    cell = natural_cell(atoms, temp_k=365.0)
    t = blocking_cell_transmission(cell, atoms)
    opaque = t(fadof_grid) < 1e-3
    starts = np.sum(opaque[1:] & ~opaque[:-1]) + int(opaque[0])
    assert starts == 3


def test_complex_index_grid_resolution_guard(atoms, d1_center):
    cell = natural_cell(atoms)
    path = VaporPath(atoms, cell, 0.0, slices=1)
    with pytest.raises(ResolutionError) as err:
        check_spacing(cell, atoms, 10e6)
    assert err.value.required_hz < 10e6
    fine = make_frequency_grid(d1_center, 0.1e9, 0.5e6)
    check_spacing(cell, atoms, 0.5e6)
    n_plus, _ = path.index_at(fine, 0.0)
    assert n_plus.shape == fine.shape


def test_kramers_kronig_consistency_single_line(atoms):
    """Dispersion of one isolated Voigt line equals the Hilbert transform of
    its absorption to 1e-3 relative."""
    from atompairs.faddeeva import voigt_profile_complex

    spacing = 1e6
    delta = np.arange(-60e9, 60e9, spacing)
    prof = voigt_profile_complex(delta, 6e6, 300e6)
    disp_numeric = hilbert_transform(prof.real, spacing)
    scale = np.abs(prof.imag).max()
    mask = np.abs(delta) < 3e9
    assert np.abs(disp_numeric[mask] - prof.imag[mask]).max() < 1e-3 * scale


# -------------------------------------------------------------- cell transfer


def test_zero_field_no_rotation(atoms, d1_center):
    cell = natural_cell(atoms, temp_k=320.0)
    path = VaporPath(atoms, cell, 0.0, slices=1)
    grid = make_frequency_grid(d1_center, 4e9, 50e6)
    t_plus, t_minus = path.transfer_at(grid)
    assert np.abs(t_plus - t_minus).max() < 1e-12
    assert np.abs(path.rotation_angle_at(grid)).max() < 1e-12


def test_rotation_linear_in_length(atoms, d1_center):
    nu = np.array([d1_center + 2.8e9])
    thetas = []
    for length in (0.05, 0.10):
        cell = VaporCellConfig(
            length_m=length,
            temperature_k=330.0,
            isotope_fractions=atoms.natural_fractions(),
        )
        path = VaporPath(atoms, cell, 4.5e-3, slices=1)
        thetas.append(path.rotation_angle_at(nu)[0])
    assert thetas[1] == pytest.approx(2.0 * thetas[0], rel=1e-9)


def test_cell_transfer_slice_convergence(atoms, sensing_cell, noon_line_hz):
    nu = np.array([noon_line_hz])
    out = {}
    for slices in (16, 32):
        path = VaporPath(atoms, sensing_cell, 40e-3, slices=slices)
        t_plus, t_minus = path.transfer_at(nu)
        out[slices] = np.array([t_plus[0], t_minus[0]])
    assert np.abs(out[16] - out[32]).max() < 1e-6


def test_cell_transfer_passivity_random_configs(atoms, d1_center):
    rng = np.random.default_rng(3)
    grid = make_frequency_grid(d1_center, 5e9, 100e6)
    for _ in range(5):
        cell = VaporCellConfig(
            length_m=rng.uniform(0.02, 0.15),
            temperature_k=rng.uniform(293.0, 400.0),
            isotope_fractions=atoms.natural_fractions(),
            droop_fraction=rng.uniform(0.0, 0.3),
        )
        path = VaporPath(atoms, cell, rng.uniform(0.0, 60e-3), slices=4)
        t_plus, t_minus = path.transfer_at(grid)
        assert np.abs(t_plus).max() <= 1.0 + 1e-12
        assert np.abs(t_minus).max() <= 1.0 + 1e-12


def test_cell_transfer_op_matches_path_and_closed_form(atoms, d1_center):
    """With slices=1 on a uniform cell the transfer equals the closed form."""
    cell = natural_cell(atoms, temp_k=330.0)
    grid = make_frequency_grid(d1_center, 0.5e9, 0.5e6)
    path = VaporPath(atoms, cell, 5e-3, slices=1)
    n_plus, n_minus = path.index_at(grid, 5e-3)
    k_vac = 2j * np.pi * grid / C_LIGHT
    t_plus, t_minus = path.transfer_at(grid)
    assert np.allclose(np.exp(k_vac * (n_plus - 1.0) * cell.length_m), t_plus)
    assert np.allclose(np.exp(k_vac * (n_minus - 1.0) * cell.length_m), t_minus)
    # jones at a grid point is diagonal in the circular basis
    j = circular_jones(t_plus[10], t_minus[10])
    v = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
    d = v.conj().T @ j @ v
    assert abs(d[0, 1]) < 1e-14 and abs(d[1, 0]) < 1e-14


def test_transfer_rejects_gain(atoms, d1_center, monkeypatch):
    path = VaporPath(atoms, natural_cell(atoms), 0.0, slices=1)
    # an inverted population: negative line strengths give Im n < 0, which amplifies
    monkeypatch.setattr(path._lines, "amp", -path._lines.amp)
    with pytest.raises(ValueError, match="gain"):
        path.transfer_at(np.array([d1_center, d1_center + 1e8]))


def test_no_frequencies_give_empty_transfers(atoms):
    path = VaporPath(atoms, natural_cell(atoms), 4.5e-3, slices=1)
    t_plus, t_minus = path.transfer_at(np.array([]))
    assert t_plus.shape == t_minus.shape == path.rotation_angle_at([]).shape == (0,)
    assert all(t.shape == (0,) for t in path.transmission_at([]))


@pytest.mark.parametrize("centers", [24e-3, FIG10_FIELDS], ids=["one", "many"])
def test_transmission_is_the_squared_transfer(atoms, sensing_cell, d1_center, centers):
    """(|t+|^2, |t-|^2) read as exp(2 Re log t+-) equal |t+-|^2 of the complex
    transfer to 1e-15 relative on fig10's grid, with the shapes of
    ``transfer_at``, where the transmissions fall to 2e-17."""
    path = VaporPath(atoms, sensing_cell, centers, slices=2)
    grid = make_frequency_grid(d1_center, 6e9, 1e6)
    for trans, t in zip(path.transmission_at(grid), path.transfer_at(grid)):
        assert trans.shape == t.shape == np.shape(centers) + grid.shape
        assert np.all(np.abs(trans - np.abs(t) ** 2) <= 1e-15 * np.abs(t) ** 2)


def _fadof_path(atoms):
    cell = VaporCellConfig(
        length_m=0.10, temperature_k=365.0, isotope_fractions=atoms.natural_fractions()
    )
    return VaporPath(atoms, cell, 4.5e-3, slices=1)


def _walk(lines, nu):
    """(columns, chi) of each block the walk hands its callback, after
    checking that it handed every block over on the calling thread, and
    into its own columns of the walk's output.  The walk stays in one
    process, so that every block reaches the callback."""
    blocks, threads = [], set()

    def keep(block, cols, chi):
        blocks.append((cols, chi))
        threads.add(threading.get_ident())
        block[...] = chi

    with pytest.MonkeyPatch.context() as one_process:
        one_process.setattr(vapor, "PARALLEL_BLOCKS", np.inf)
        out = vapor._walk_chi(lines, nu, (lines.nu0.shape[1],), keep)
    assert threads <= {threading.get_ident()}
    assert all(np.array_equal(out[:, cols], chi) for cols, chi in blocks)
    return blocks


def _per_cell(lines, cell=1):
    """``BLOCK_POINTS`` that each anchor cell of a block takes: two per line
    and two per group and frequency."""
    return 2 * (lines.nu0.size + lines.nu0.shape[1] * cell)


def _walked_chi(lines, nu):
    """The walk's chi over ``nu``, blocks joined, after checking that the
    blocks of one-point cells cover ``nu`` once, in order, each holding at
    most ``step`` = ``BLOCK_POINTS / _per_cell`` near frequencies (``_near``)
    and at most max(``step``, ``BLOCK_POINTS`` / (2 groups)) in all; where no
    frequency is far, in blocks of ``step``."""
    blocks = _walk(lines, nu)
    step = max(1, vapor.BLOCK_POINTS // _per_cell(lines))
    edges = [(cols.start, cols.stop) for cols, _ in blocks]
    near = _near(lines, nu)
    if near.all():
        assert edges == [(a, min(a + step, nu.size)) for a in range(0, nu.size, step)]
    else:
        cap = max(step, vapor.BLOCK_POINTS // (2 * lines.nu0.shape[1]))
        assert [a for a, _ in edges] == [0] + [b for _, b in edges[:-1]] and edges[-1][1] == nu.size
        assert all(0 < b - a <= cap and near[a:b].sum() <= step for a, b in edges)
    return np.concatenate([chi for _, chi in blocks], axis=1) if blocks else np.empty((lines.nu0.shape[1], 0), dtype=complex)


def _group_lines(lines, group):
    """One group's lines as a one-group table, its padding rows (amplitude 0)
    left out."""
    keep = lines.amp[:, group] != 0
    return vapor._LineArrays(*(x[keep][:, [group]] for x in (lines.nu0, lines.amp, lines.sigma_hz, lines.lorentz_fwhm_hz)))


def _nonuniform(center, n, half_span=6e9):
    """``center + linspace(-half_span, half_span, n)`` with every third point
    moved by a seventh of the spacing: no uniform grid, so the walk evaluates
    every line at every frequency, or its far-field series past
    ``_far_series``'s radius."""
    nu = center + np.linspace(-half_span, half_span, n)
    nu[1::3] += 2 * half_span / max(n - 1, 1) / 7
    return nu


def _near(lines, nu):
    """Where the walk evaluates the lines of ``nu``, not its far series."""
    series = vapor._far_series(lines, nu)
    return np.ones(nu.size, dtype=bool) if series is None else ~series[0]


def _edge_counts(step):
    return (0, 1, step - 1, step, step + 1, 3 * step + 5)


def _near_among_far(center, near, far):
    """``near`` frequencies within 2 GHz of ``center`` shuffled among ``far``
    ones 20-60 GHz either side, past ``_far_series``' radius of the 365 K
    cell's lines."""
    rng = np.random.default_rng(near)
    nu = np.concatenate([_nonuniform(center, near, 2e9), center + rng.choice([-1, 1], far) * rng.uniform(20e9, 60e9, far)])
    return rng.permutation(nu)


@pytest.mark.parametrize("pol", ["sigma+", "sigma-"])
@pytest.mark.parametrize("step", [7, None])
def test_blocked_susceptibility_equals_one_shot(atoms, d1_center, monkeypatch, pol, step):
    """Every block boundary case, with a small block and with the shipped
    one, on frequencies that form no uniform grid: the one-point cells' chi
    is the one-shot line-order sum bit for bit, since each frequency's lines
    are summed in line order whatever the block.  Out to +-60 GHz, where
    most frequencies take the far-field series, the chi of one block is
    reproduced bit for bit, and so is the one-shot sum at the others; also
    with step - 1, step and step + 1 near frequencies shuffled among far
    ones, where blocks end by their near count and by their size."""
    arrays = _group_lines(_fadof_path(atoms)._lines, ("sigma+", "sigma-").index(pol))
    count = _per_cell(arrays)
    if step is None:
        step = vapor.BLOCK_POINTS // count
    else:
        # a block constant that is not a multiple of a frequency's count
        monkeypatch.setattr(vapor, "BLOCK_POINTS", step * count + 3)
    for n in _edge_counts(step):
        nu = _nonuniform(d1_center, n)
        assert np.array_equal(_walked_chi(arrays, nu)[0], one_shot_susceptibility(arrays, nu))
        mixed = _nonuniform(d1_center, n, 60e9)
        near = _near(arrays, mixed)
        assert n < 3 or 0 < near.sum() < n
        chi = _walked_chi(arrays, mixed)[0]
        with monkeypatch.context() as m:
            m.setattr(vapor, "BLOCK_POINTS", max(n, 1) * count)
            assert np.array_equal(chi, _walked_chi(arrays, mixed)[0])
        assert np.array_equal(chi[near], one_shot_susceptibility(arrays, mixed[near]))
    # step - 1, step and step + 1 near frequencies among more far ones than
    # two blocks of ``BLOCK_POINTS`` / 2 hold
    for k in (step - 1, step, step + 1):
        mixed = _near_among_far(d1_center, k, vapor.BLOCK_POINTS + 5)
        near = _near(arrays, mixed)
        assert near.sum() == k
        chi = _walked_chi(arrays, mixed)[0]
        with monkeypatch.context() as m:
            m.setattr(vapor, "BLOCK_POINTS", mixed.size * count)
            assert np.array_equal(chi, _walked_chi(arrays, mixed)[0])
        assert np.array_equal(chi[near], one_shot_susceptibility(arrays, mixed[near]))


@pytest.mark.parametrize("fields", [FIG10_FIELDS[:1], FIG10_FIELDS, np.array([0.0, 30.0, 45.0])], ids=["1", "6", "ragged"])
def test_propagation_blocks_equal_one_block(atoms, sensing_cell, d1_center, monkeypatch, fields):
    """A path over one center, over six (fig10's fields and slices) and over
    0, 30 and 45 T, where the strength cut leaves some groups fewer lines
    than others, gives, at every block edge of a small block, the
    (t+, t-, theta) of one block over all frequencies, bit for bit; and each
    field's chi+- in the walk is its one-shot line-order sum, padding rows
    left out.  The frequencies form no uniform grid, so each is its own
    anchor."""
    path = VaporPath(atoms, sensing_cell, fields, slices=2)
    lines, groups = path._lines, 2 * path._fields.size
    assert lines.nu0.shape[1] == groups
    assert np.any(lines.amp == 0) == (fields.max() > 1.0)
    count, step = _per_cell(lines), 5
    for n in _edge_counts(step):
        nu = _nonuniform(d1_center, n)
        monkeypatch.setattr(vapor, "BLOCK_POINTS", step * count + 3)
        blocked = path._propagate(nu)
        chi = _walked_chi(lines, nu)
        monkeypatch.setattr(vapor, "BLOCK_POINTS", max(1, n) * count)
        one_block = path._propagate(nu)
        for got, want in zip(blocked, one_block):
            assert got.shape == (fields.size, n) and np.array_equal(got, want)
        for group in range(groups):
            arrays = _group_lines(lines, group)
            assert np.array_equal(chi[group], one_shot_susceptibility(arrays, nu))


def test_walk_runs_on_the_calling_thread(atoms, sensing_cell, d1_center, monkeypatch):
    """fig10's six fields on its 12,001-point grid, walked in many blocks:
    every Voigt evaluation of this process runs on the calling thread (the
    later half of the blocks runs in a forked child)."""
    threads = []
    voigt = vapor.voigt_profile_complex

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return voigt(*args, **kwargs)

    monkeypatch.setattr(vapor, "voigt_profile_complex", recorded)
    grid = make_frequency_grid(d1_center, 6e9, 1e6)
    VaporPath(atoms, sensing_cell, FIG10_FIELDS, slices=2).transfer_at(grid)
    assert len(threads) > 1 and set(threads) == {threading.get_ident()}


def test_concurrent_paths_give_the_serial_results(atoms, sensing_cell, d1_center):
    """Library callers that propagate paths on threads of their own each get
    what they get alone."""
    grid = make_frequency_grid(d1_center, 6e9, 2e6)
    paths = [VaporPath(atoms, sensing_cell, b, slices=2) for b in (0.0, 12e-3, 37e-3, 58e-3)]
    serial = [path._propagate(grid) for path in paths]
    with ThreadPoolExecutor(len(paths)) as callers:
        concurrent = list(callers.map(lambda path: path._propagate(grid), paths))
    for got, want in zip(concurrent, serial):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _count_forks(monkeypatch):
    """The pid of each process that calls ``os.fork``, which still forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _one_process(monkeypatch, run):
    with monkeypatch.context() as one_process:
        one_process.setattr(vapor, "PARALLEL_BLOCKS", np.inf)
        return run()


def test_split_walks_are_the_one_process_walks(atoms, sensing_cell, d1_center, monkeypatch):
    """A walk of ``PARALLEL_BLOCKS`` blocks or more forks once and gives the
    one-process walk's outputs bit for bit: fig10's anchored 70 C cell on its
    12,001-point grid (21 blocks), and, with the gate lowered to 2 blocks,
    ``index_at`` on fig2's grid (4 blocks), fig3's far-series comb (2
    blocks of one-point cells) and a small path in blocks of one anchor cell
    (an odd count, and one block with the gate at 1: the child walks it
    all).  No process is left."""
    forks = _count_forks(monkeypatch)
    grid = make_frequency_grid(d1_center, 6e9, 1e6)
    fig10 = VaporPath(atoms, sensing_cell, FIG10_FIELDS, slices=2)
    fadof = _fadof_path(atoms)
    spec, comb = _fig3_comb(atoms)
    small = VaporPath(atoms, sensing_cell, np.array([0.0, 24e-3, 49e-3]), slices=2)
    small_grid = make_frequency_grid(d1_center, 2e9, 2e6)[: 5 * 19 + 3]
    one_cell = _per_cell(small._lines, 19)
    cases = [  # (gate, BLOCK_POINTS, walk)
        (vapor.PARALLEL_BLOCKS, vapor.BLOCK_POINTS, lambda: fig10._propagate(grid)),
        (2, vapor.BLOCK_POINTS, lambda: fadof.index_at(make_frequency_grid(d1_center, 8e9, 0.5e6), 4.5e-3)),
        (2, vapor.BLOCK_POINTS, lambda: spec(comb)),
        (2, one_cell, lambda: small._propagate(small_grid)),
        (1, one_cell, lambda: small._propagate(small_grid[:19])),
    ]
    for gate, block_points, walk in cases:
        monkeypatch.setattr(vapor, "BLOCK_POINTS", block_points)
        want = _one_process(monkeypatch, walk)
        monkeypatch.setattr(vapor, "PARALLEL_BLOCKS", gate)
        forks.clear()
        got = walk()
        assert forks == [os.getpid()]
        for a, b in zip(np.atleast_2d(got), np.atleast_2d(want)):
            assert np.array_equal(a, b)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_walk_child_leaves_its_blocks_to_this_process(atoms, sensing_cell, d1_center, tmp_path, monkeypatch, capfd):
    """A child that raises only because it is the child is reaped and its
    blocks walked here: the outputs are the one-process walk's, bit for bit.
    A fault in the later half that any process meets is met here again, so
    fig10 refuses with the one-process walk's NumericError text and exit
    code, with nothing more on stderr; and the warnings of a walk under
    numpy's default error state reach the caller as they do from one
    process.  A fault in this process's own half is raised once the child
    is reaped.  No process is left."""
    from atompairs.cli import main

    parent, voigt = os.getpid(), vapor.voigt_profile_complex
    grid = make_frequency_grid(d1_center, 6e9, 1e6)
    path = VaporPath(atoms, sensing_cell, FIG10_FIELDS, slices=2)
    want = _one_process(monkeypatch, lambda: path._propagate(grid))

    def fails_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            raise FloatingPointError("overflow encountered in exp")
        return voigt(*args, **kwargs)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(vapor, "voigt_profile_complex", fails_in_the_child)
    for got, one in zip(path._propagate(grid), want):
        assert np.array_equal(got, one)
    assert forks == [parent]

    # a fault at the blocks that hold the last quarter of fig10's grid
    edge = grid[3 * grid.size // 4] - path._lines.nu0.min()

    def overflows_late(delta, *args, **kwargs):
        if np.max(delta) >= edge:
            np.exp(np.array(1e3))
        return voigt(delta, *args, **kwargs)

    monkeypatch.setattr(vapor, "voigt_profile_complex", overflows_late)
    argv = ["--out-dir", str(tmp_path / "out"), "scenario", "run", "fig10-spectroscopy"]
    errors = []
    for gate in (np.inf, vapor.PARALLEL_BLOCKS):
        with monkeypatch.context() as m:
            m.setattr(vapor, "PARALLEL_BLOCKS", gate)
            forks.clear()
            assert main(argv) == 3
        errors.append(capfd.readouterr().err)
        assert forks == ([] if gate == np.inf else [parent])
    assert errors[0] == errors[1] == "numeric error: spectroscopy: overflow encountered in exp\n"
    assert not (tmp_path / "out").exists()

    def warned():
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn"):
            warnings.simplefilter("always")
            return path._propagate(grid), [str(w.message) for w in caught]

    want, want_warnings = _one_process(monkeypatch, warned)
    forks.clear()
    got, got_warnings = warned()
    assert forks == [parent] and got_warnings == want_warnings and len(want_warnings) > 0
    assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def fails_here(*args, **kwargs):
        if os.getpid() == parent:
            raise FloatingPointError("overflow encountered in exp")
        return voigt(*args, **kwargs)

    monkeypatch.setattr(vapor, "voigt_profile_complex", fails_here)
    forks.clear()
    with pytest.raises(FloatingPointError, match="overflow encountered in exp"):
        path._propagate(grid)
    assert forks == [parent]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_second_thread_or_a_failing_fork_walks_in_one_process(atoms, sensing_cell, d1_center, monkeypatch):
    """With a second live thread nothing is forked, and a fork that fails
    leaves this process to walk every block; the outputs are the same."""
    grid = make_frequency_grid(d1_center, 6e9, 1e6)
    path = VaporPath(atoms, sensing_cell, FIG10_FIELDS, slices=2)
    want = _one_process(monkeypatch, lambda: path._propagate(grid))
    forks = _count_forks(monkeypatch)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        threaded = path._propagate(grid)
    finally:
        done.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and forks == []

    def no_fork():
        forks.append(os.getpid())
        raise BlockingIOError(errno.EAGAIN, "no process")

    monkeypatch.setattr(os, "fork", no_fork)
    unforked = path._propagate(grid)
    assert forks == [os.getpid()]
    for got in (threaded, unforked):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_fill_spans_and_blocks_give_the_one_span_results(atoms, sensing_cell, d1_center, monkeypatch):
    """On a uniform grid the walk fills chi from anchors, here in odd cells of
    19 points.  In the shipped blocks and in blocks of one anchor cell, two,
    or two and a short one, it gives the same chi, log t+- and (n+, n-) bit
    for bit, every block starting on a whole anchor cell."""
    path = VaporPath(atoms, sensing_cell, np.array([0.0, 24e-3, 49e-3]), slices=2)
    lines = path._lines
    nu = make_frequency_grid(d1_center, 2e9, 2e6)
    cell = vapor._anchor_cell(lines, nu)
    assert cell == 19
    per_cell = _per_cell(lines, cell)
    outputs = []
    for block_points in (vapor.BLOCK_POINTS, per_cell, 2 * per_cell, 3 * per_cell - 1):
        monkeypatch.setattr(vapor, "BLOCK_POINTS", block_points)
        blocks = _walk(lines, nu)
        assert all(cols.start % cell == 0 for cols, _ in blocks)
        assert [cols.stop for cols, _ in blocks[:-1]] == [cols.start for cols, _ in blocks[1:]]
        assert blocks[0][0].start == 0 and blocks[-1][0].stop == nu.size
        chi = np.concatenate([chi for _, chi in blocks], axis=1)
        outputs.append((chi, *path._propagate(nu), *path.index_at(nu, 24e-3)))
    for output in outputs[1:]:
        for got, want in zip(output, outputs[0]):
            assert np.array_equal(got, want)


def _one_field_lines(atoms, cell, b_t):
    built = lines_at_fields(atoms, cell.isotope_fractions, [b_t])
    return vapor._LineArrays.from_lines(built, cell, number_density(cell.temperature_k, atoms), 1)


def _assert_walk_matches_pointwise(lines, nu):
    """The walk's chi+- of one field against the one-shot pointwise line sum:
    Im chi >= 0 and to 1e-12 relative at every point, chi to 1e-11 of |chi|."""
    chi = vapor._walk_chi(lines, nu, (2,), lambda block, columns, walked: np.copyto(block, walked))
    for group in range(2):
        want = one_shot_susceptibility(_group_lines(lines, group), nu)
        assert np.all(chi[group].imag >= 0.0)
        assert np.all(np.abs(chi[group].imag - want.imag) <= 1e-12 * want.imag)
        assert np.all(np.abs(chi[group] - want) <= 1e-11 * np.abs(want))


@hypothesis.given(
    temp_k=st.floats(251.0, 449.0),
    buffer_mhz=st.floats(0.0, 178.0),
    field_mt=st.floats(0.0, 60.0),
    spacing_share=st.floats(0.02, 1.0),
    start_ghz=st.one_of(st.floats(-8.0, 8.0), st.floats(-100.0, 100.0)),
    n=st.integers(8, 2000),
    exact=st.booleans(),
)
def test_anchor_fill_matches_pointwise_lines(atoms, d1_center, temp_k, buffer_mhz, field_mt, spacing_share, start_ghz, n, exact):
    """The accuracy study behind ``TAYLOR_TERMS``, ``ANCHOR_REACH`` and
    ``ANCHOR_GROWTH``: over 251-449 K, 0-178 MHz of buffer gas, spacings up to
    the ``check_spacing`` limit and grids anywhere within +-100 GHz of the D1
    line, built by ``make_frequency_grid`` or ``np.linspace``, the walk's chi
    matches the one-shot pointwise line sum: Im chi to 1e-12 relative at
    every point, chi to 1e-11 of |chi|, and Im chi stays >= 0."""
    cell = natural_cell(atoms, temp_k=temp_k, buffer_mhz=buffer_mhz)
    with pytest.raises(ResolutionError) as limit:
        check_spacing(cell, atoms, 1e12)
    spacing = spacing_share * limit.value.required_hz
    start = d1_center + start_ghz * 1e9
    if exact:
        nu = make_frequency_grid(start + n // 2 * spacing, n // 2 * spacing, spacing)
    else:
        nu = np.linspace(start, start + (n - 1) * spacing, n)
    _assert_walk_matches_pointwise(_one_field_lines(atoms, cell, field_mt * 1e-3), nu)


@pytest.mark.parametrize(
    "temp_k, buffer_mhz, start_ghz, spacing_share",
    [(251.0, 0.0, -8.0, 0.25), (449.0, 178.0, 3.0, 0.25), (251.0, 0.0, 90.0, 0.05), (449.0, 0.0, -60.0, 0.1)],
)
def test_anchor_fill_matches_pointwise_at_the_corners(atoms, d1_center, temp_k, buffer_mhz, start_ghz, spacing_share):
    """The study's corners, each on a grid fine enough for the fill (at the
    ``check_spacing`` limit itself a cell would hold fewer than 8 points): the
    coldest narrowest and the hottest broadest lines near the lines, and far
    wings, where the anchor cell shrinks to keep 2 |z| |z - z_anchor| small."""
    cell = natural_cell(atoms, temp_k=temp_k, buffer_mhz=buffer_mhz)
    with pytest.raises(ResolutionError) as limit:
        check_spacing(cell, atoms, 1e12)
    spacing = spacing_share * limit.value.required_hz
    nu = make_frequency_grid(d1_center + start_ghz * 1e9 + 2000 * spacing, 2000 * spacing, spacing)
    lines = _one_field_lines(atoms, cell, 30e-3)
    assert vapor._anchor_cell(lines, nu) >= 8
    _assert_walk_matches_pointwise(lines, nu)


@hypothesis.given(
    temp_k=st.floats(251.0, 449.0),
    buffer_mhz=st.floats(0.0, 178.0),
    field_mt=st.floats(0.0, 60.0),
    shares=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=40),
    far_ghz=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=40),
    near_ghz=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
)
def test_far_series_matches_pointwise_lines(atoms, d1_center, temp_k, buffer_mhz, field_mt, shares, far_ghz, near_ghz):
    """The accuracy study behind ``FAR_SPREAD``, ``FAR_WIDTHS`` and
    ``FAR_TERMS``: over 251-449 K, 0-178 MHz of buffer gas and 0-60 mT, on
    frequency sets that mix points near the lines, points at half to twice
    the series' radius R = max(4 max |e|, 25 max sigma) from the lines'
    midpoint, either side, and points out to +-1,000 GHz, the walk's chi
    matches the one-shot pointwise line sum at the bounds of the anchor fill."""
    cell = natural_cell(atoms, temp_k=temp_k, buffer_mhz=buffer_mhz)
    lines = _one_field_lines(atoms, cell, field_mt * 1e-3)
    center = 0.5 * (lines.nu0.min() + lines.nu0.max())
    spread = np.abs(lines.nu0 - center - 0.5j * lines.lorentz_fwhm_hz).max()
    radius = max(vapor.FAR_SPREAD * spread, vapor.FAR_WIDTHS * lines.sigma_hz.max())
    signs = np.resize([1.0, -1.0], len(shares))
    nu = np.concatenate([center + signs * radius * np.array(shares), d1_center + 1e9 * np.array(far_ghz + near_ghz)])
    _assert_walk_matches_pointwise(lines, nu)


@hypothesis.given(
    temp_k=st.floats(251.0, 449.0),
    buffer_mhz=st.floats(0.0, 178.0),
    field_mt=st.floats(0.0, 60.0),
    spacing_share=st.floats(0.005, 1.0),
    start_ghz=st.one_of(st.floats(-8.0, 8.0), st.floats(-100.0, 100.0)),
    n=st.integers(2, 2000),
)
def test_anchor_cell_is_the_widest_the_bounds_allow(atoms, d1_center, temp_k, buffer_mhz, field_mt, spacing_share, start_ghz, n):
    """With half the largest offset in grid steps that ``ANCHOR_REACH`` and
    ``ANCHOR_GROWTH`` allow, a cell of m points reaches m // 2 <= half steps
    from its anchor, and one more point would pass the bound unless m is
    ``ANCHOR_CELL``; the walk is pointwise only where no such cell of 8 to n
    points exists."""
    cell = natural_cell(atoms, temp_k=temp_k, buffer_mhz=buffer_mhz)
    with pytest.raises(ResolutionError) as limit:
        check_spacing(cell, atoms, 1e12)
    spacing = spacing_share * limit.value.required_hz
    nu = d1_center + start_ghz * 1e9 + spacing * np.arange(n)
    lines = _one_field_lines(atoms, cell, field_mt * 1e-3)
    h = spacing / lines.sigma_hz
    far = np.maximum(abs(nu[0] - lines.nu0), abs(nu[-1] - lines.nu0)) + spacing * vapor.ANCHOR_CELL / 2
    z_max = np.hypot(far, 0.5 * lines.lorentz_fwhm_hz) / lines.sigma_hz
    half = min(vapor.ANCHOR_REACH / h.max(), vapor.ANCHOR_GROWTH / (2 * (h * z_max).max()))
    m = vapor._anchor_cell(lines, nu)
    if m == 1:
        assert not 8 <= min(vapor.ANCHOR_CELL, 2 * np.floor(half) + 1) <= n
    else:
        assert 8 <= m <= min(n, vapor.ANCHOR_CELL)
        assert m // 2 <= half and (m == vapor.ANCHOR_CELL or (m + 1) // 2 > half)


def test_coarse_and_irregular_frequencies_walk_pointwise(atoms, d1_center):
    """A uniform grid too coarse for the fill (the 50 MHz grid of
    ``test_zero_field_no_rotation``, and the 501 MHz comb that ``purity``
    reads through the hot cell), a short one, a non-uniform one and a single
    frequency all take one-point cells: each frequency is its own anchor."""
    from atompairs import cli

    zero_field = _one_field_lines(atoms, natural_cell(atoms, temp_k=320.0), 0.0)
    assert vapor._anchor_cell(zero_field, make_frequency_grid(d1_center, 4e9, 50e6)) == 1
    _, params = cli.validate_scenario({"scenario": "purity"})
    comb = cli._matching_pieces(params, atoms)[2].frequency_hz
    assert np.allclose(np.diff(comb), params["fsr_mhz"] * 1e6, rtol=1e-12, atol=0.0)
    hot = natural_cell(atoms, temp_k=params["hot_cell_temp_k"], buffer_mhz=params["hot_cell_buffer_mhz"])
    assert vapor._anchor_cell(_one_field_lines(atoms, hot, 0.0), comb) == 1
    fine = make_frequency_grid(d1_center, 6e9, 1e6)
    assert vapor._anchor_cell(zero_field, fine) == 37
    assert vapor._anchor_cell(zero_field, fine[:7]) == 1
    assert vapor._anchor_cell(zero_field, _nonuniform(d1_center, fine.size)) == 1
    assert vapor._anchor_cell(zero_field, fine[:1]) == 1


def _count_voigt_points(monkeypatch):
    points = []
    voigt = vapor.voigt_profile_complex

    def counted(delta, *args, **kwargs):
        points.append(np.size(delta))
        return voigt(delta, *args, **kwargs)

    monkeypatch.setattr(vapor, "voigt_profile_complex", counted)
    return points


def test_fill_reaches_faddeeva_once_per_anchor_and_line(atoms, fadof_grid, sensing_cell, monkeypatch):
    """fig2's grid takes anchor cells of 64 points and evaluates each line at
    no more than ceil(n / 64) frequencies; fig10's fields and grid take cells
    of 39 at 70 C."""
    points = _count_voigt_points(monkeypatch)
    path = _fadof_path(atoms)
    assert vapor._anchor_cell(path._lines, fadof_grid) == 64
    path.transfer_at(fadof_grid)
    assert sum(points) <= path._lines.nu0.size * -(-fadof_grid.size // 64)
    fig10 = VaporPath(atoms, sensing_cell, FIG10_FIELDS, slices=2)
    assert vapor._anchor_cell(fig10._lines, make_frequency_grid(atoms.d1_center_hz(), 6e9, 1e6)) == 39


def _record_far_series(monkeypatch):
    """What each walk's ``_far_series`` returns: None where it builds no
    coefficients."""
    returned = []
    far_series = vapor._far_series

    def recorded(*args):
        returned.append(far_series(*args))
        return returned[-1]

    monkeypatch.setattr(vapor, "_far_series", recorded)
    return returned


def _fig3_comb(atoms):
    """fig3's filter and the frequencies its comb reads it at: 1,093 modes x
    11 Lorentzian nodes out to +-274 GHz."""
    from atompairs import cavity, cli

    _, params = cli.validate_scenario({"scenario": "matching"})
    spec, _, comb, _ = cli._matching_pieces(params, atoms)
    nodes, _ = np.polynomial.legendre.leggauss(cavity.LORENTZIAN_NODES)
    nu = (comb.frequency_hz[:, None] + nodes * cavity.LORENTZIAN_HALF_RANGE * comb.linewidth_hz).ravel()
    assert nu.size == 12_023
    return spec, nu


def test_comb_reaches_faddeeva_only_near_the_lines(atoms, monkeypatch):
    """fig3's comb is read pointwise: each line's Voigt profile is evaluated
    only at the frequencies within the series' radius, at most 792 of the
    12,023, and the series' coefficients are built once."""
    spec, nu = _fig3_comb(atoms)
    lines = _fadof_path(atoms)._lines
    near = _near(lines, nu).sum()
    series = _record_far_series(monkeypatch)
    points = _count_voigt_points(monkeypatch)
    spec(nu)
    assert near <= 792 and sum(points) == lines.nu0.size * near <= 64 * 792
    assert [s is not None for s in series] == [True]


def test_comb_walks_in_two_blocks_within_its_memory(atoms, monkeypatch):
    """fig3's comb holds 689 near frequencies, two blocks' worth of 372 for
    its 64 lines, so it walks in 2 blocks, not in 33 blocks of 372
    frequencies; and its read peaks below 2.9 MB under ``tracemalloc``
    (2.82 MB, and 2.77 MB in the 33 blocks)."""
    spec, nu = _fig3_comb(atoms)
    spec(nu)  # warm the caches
    tracemalloc.start()
    try:
        spec(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9e6
    blocks, walk = [], vapor._walk_chi

    def recorded(lines, frequencies, rows, consume):
        return walk(lines, frequencies, rows, lambda block, columns, chi: (blocks.append(columns), consume(block, columns, chi)))

    monkeypatch.setattr(vapor, "_walk_chi", recorded)
    spec(nu)
    assert [(cols.start, cols.stop) for cols in blocks] == [(0, 5993), (5993, 12_023)]


@pytest.mark.parametrize("preset", ["fig2-fadof", "fig10-spectroscopy", "fig11-sensing"])
def test_grids_and_field_scans_never_build_the_far_series(tmp_path, monkeypatch, preset):
    """fig2's and fig10's grids are filled from anchors, so they never test
    for far frequencies; fig11's scan reads its probe on the lines, so it
    tests each block of centers and builds no coefficients."""
    from atompairs.cli import main

    series = _record_far_series(monkeypatch)
    assert main(["--out-dir", str(tmp_path), "scenario", "run", preset]) == 0
    assert all(s is None for s in series) and (len(series) > 0) == (preset == "fig11-sensing")


def test_transfer_peak_memory_follows_the_grid(atoms, d1_center):
    """A 100,001-point filter evaluation stays well below lines x grid memory:
    one complex lines x grid matrix alone would take 51 MB."""
    grid = make_frequency_grid(d1_center, 10e9, 0.2e6)
    assert grid.size == 100_001
    tracemalloc.start()
    try:
        _fadof_path(atoms).transfer_at(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_many_center_path_memory_grows_by_its_outputs_only(atoms, sensing_cell):
    """On fig10's 12,001-point grid, a 24-center path peaks above a 6-center
    one by no more than the extra centers' outputs (t+- in place of log t+-:
    32 bytes a center and frequency, allowed 40) plus 1 MB: the fields' chi
    and n+- are held one block at a time, never over the whole grid."""
    grid = make_frequency_grid(atoms.d1_center_hz(), 6e9, 1e6)
    assert grid.size == 12_001
    VaporPath(atoms, sensing_cell, 10e-3, slices=2).transfer_at(grid[:10])  # warm the caches
    peaks = []
    for centers in (6, 24):
        tracemalloc.start()
        try:
            VaporPath(atoms, sensing_cell, np.linspace(0.0, 58e-3, centers), slices=2).transfer_at(grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 18 * grid.size * 40 + 1e6


def _count_kernel_fields(monkeypatch):
    """The fields of each ``lines_at_fields`` call that ``vapor`` makes."""
    calls = []
    lines_at_fields = vapor.lines_at_fields

    def counted(atoms, fractions, fields_t):
        calls.append(np.asarray(fields_t).tolist())
        return lines_at_fields(atoms, fractions, fields_t)

    monkeypatch.setattr(vapor, "lines_at_fields", counted)
    return calls


def test_each_distinct_slice_field_is_evaluated_once(atoms, sensing_cell, noon_line_hz, monkeypatch):
    nu = np.array([noon_line_hz])
    calls = _count_kernel_fields(monkeypatch)
    droop = VaporPath(atoms, sensing_cell, 40e-3, slices=16)
    droop.transfer_at(nu)
    droop.transfer_at(nu + 1e6)
    # 32 Gauss nodes pair up as mirror images about the cell center; the
    # lines are built once, at construction
    assert len(calls) == 1 and len(calls[0]) == 16 and len(set(calls[0])) == 16

    calls.clear()
    uniform = VaporPath(atoms, natural_cell(atoms), 5e-3, slices=16)
    uniform.transfer_at(nu)
    assert calls == [[5e-3]]


def test_field_independent_work_happens_once(atoms, sensing_cell, noon_line_hz, monkeypatch):
    """A 101-field scan evaluates each dipole element once, not once per field."""
    from atompairs import atoms as atoms_module
    from atompairs.noon import make_noon_from_pair, sensing_scan

    calls = []
    wigner_3j = atoms_module.wigner_3j

    def counted(*args):
        calls.append(args)
        return wigner_3j(*args)

    monkeypatch.setattr(atoms_module, "wigner_3j", counted)
    atoms_module._dipole_block.cache_clear()
    b_list = np.linspace(0.0, 50e-3, 101)
    transfer = transfer_vs_field(atoms, sensing_cell, noon_line_hz, b_list)
    sensing_scan(make_noon_from_pair(imbalance=0.15), b_list, transfer)
    # one _dipole_block per (I, q): 12 elements for Rb85 and 8 for
    # Rb87 over sigma+ and sigma-
    assert 0 < len(calls) <= 20


def test_grouped_fields_match_per_node_sum(atoms, sensing_cell, d1_center):
    """(t+, t-, theta) of the half-cell nodes equal the sum over every Gauss
    node of the whole cell taken one by one, also at 0 mT, where all nodes
    of the drooping cell coincide."""
    grid = make_frequency_grid(d1_center, 4e9, 20e6)
    for cell, b_center_t in itertools.product((sensing_cell, natural_cell(atoms, temp_k=330.0)), (0.0, 37e-3)):
        path = VaporPath(atoms, cell, b_center_t, slices=16)
        dz = cell.length_m / path.slices
        mids = (np.arange(path.slices) + 0.5) * dz
        offset = 0.5 * dz / np.sqrt(3.0)
        nodes = np.sort(np.concatenate([mids - offset, mids + offset]))
        log_tp = np.zeros(grid.shape, dtype=complex)
        log_tm = np.zeros(grid.shape, dtype=complex)
        theta = np.zeros(grid.shape)
        k_vac = 2j * np.pi * grid / C_LIGHT
        for b in cell.field_at(nodes, b_center_t):
            n_plus, n_minus = path.index_at(grid, b)
            log_tp += k_vac * (n_plus - 1.0) * cell.length_m / nodes.size
            log_tm += k_vac * (n_minus - 1.0) * cell.length_m / nodes.size
            theta += np.pi * grid * (n_plus.real - n_minus.real) / C_LIGHT * cell.length_m / nodes.size
        t_plus, t_minus = path.transfer_at(grid)
        assert np.abs(t_plus - np.exp(log_tp)).max() <= 1e-12
        assert np.abs(t_minus - np.exp(log_tm)).max() <= 1e-12
        assert np.abs(path.rotation_angle_at(grid) - theta).max() <= 1e-12


CROSS_CHECK_FIELDS = np.array([0.0, 23.7e-3, 44e-3, 58e-3])


def _uniform_like(cell):
    return VaporCellConfig(
        length_m=cell.length_m, temperature_k=cell.temperature_k, isotope_fractions=cell.isotope_fractions
    )


@pytest.mark.parametrize("where", ["grid", "probe"])
def test_each_center_row_is_the_one_center_path(atoms, sensing_cell, noon_line_hz, d1_center, where):
    """A VaporPath over several center fields gives, row by row, what a
    VaporPath at each center gives, bit for bit: at 0 mT, where all nodes
    coincide, and at 23.7, 44 and 58 mT, for the drooping sensing cell and a
    uniform one, on a grid and at the probe frequency."""
    nu = make_frequency_grid(d1_center, 4e9, 20e6) if where == "grid" else np.array([noon_line_hz])
    for cell in (sensing_cell, _uniform_like(sensing_cell)):
        path = VaporPath(atoms, cell, CROSS_CHECK_FIELDS, slices=16)
        rows = (*path.transfer_at(nu), path.rotation_angle_at(nu))
        assert all(row.shape == (CROSS_CHECK_FIELDS.size, nu.size) for row in rows)
        for k, b in enumerate(CROSS_CHECK_FIELDS):
            one = VaporPath(atoms, cell, b, slices=16)
            for got, want in zip(rows, (*one.transfer_at(nu), one.rotation_angle_at(nu))):
                assert np.array_equal(got[k], want)


@pytest.mark.parametrize("block_centers", [None, 1])
def test_transfer_vs_field_equals_vapor_path(atoms, sensing_cell, noon_line_hz, monkeypatch, block_centers):
    """The field scan is VaporPath's transfer_at and rotation_angle_at, center
    by center and bit for bit, on the cells and fields of the test above; in
    the shipped blocks and in blocks of one center."""
    if block_centers is not None:
        monkeypatch.setattr(vapor, "SCAN_BLOCK_NODES", 32 * block_centers)
    nu = np.array([noon_line_hz])
    for cell in (sensing_cell, _uniform_like(sensing_cell)):
        t_plus, t_minus, theta = transfer_vs_field(atoms, cell, noon_line_hz, CROSS_CHECK_FIELDS)
        for k, b in enumerate(CROSS_CHECK_FIELDS):
            path = VaporPath(atoms, cell, b, slices=16)
            want_plus, want_minus = path.transfer_at(nu)
            assert t_plus[k] == want_plus[0] and t_minus[k] == want_minus[0]
            assert theta[k] == path.rotation_angle_at(nu)[0]


def test_transfer_vs_field_memory_follows_the_block(atoms, sensing_cell, noon_line_hz):
    """A 2,001-center scan peaks at no more than 1.5x fig11's 101 centers.  The
    shipped block holds six centers of the 16-slice cell, so both scans span
    many blocks."""
    assert vapor.SCAN_BLOCK_NODES // 32 <= 101 // 4
    transfer_vs_field(atoms, sensing_cell, noon_line_hz, [10e-3])  # warm the caches
    peaks = []
    for centers in (101, 2001):
        tracemalloc.start()
        try:
            transfer_vs_field(atoms, sensing_cell, noon_line_hz, np.linspace(0.0, 50e-3, centers))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize(
    "fields, nu_offset",
    [([np.nan], 0.0), ([np.inf], 0.0), ([1e-3, -1e-3], 0.0), ([], 0.0), ([1e-3], np.nan)],
)
def test_transfer_vs_field_rejects_bad_fields_and_frequencies(atoms, sensing_cell, noon_line_hz, fields, nu_offset):
    with pytest.raises(ConfigError):
        transfer_vs_field(atoms, sensing_cell, noon_line_hz + nu_offset, fields)


@pytest.mark.parametrize("centers", [1e297, [0.0, 1e297], 1e5, 1.7e308], ids=["1e297", "array", "1e5", "max"])
def test_fields_whose_lines_leave_the_optical_range_are_refused(atoms, sensing_cell, centers, monkeypatch):
    """Past the field where mu_B B reaches half the D1 frequency, a path is
    refused at construction, before any line is built or numpy warns: from
    about 2e4 T a sigma- line lies below 0 Hz, and at 1e297 T the Doppler
    widths overflow.  Just below it every line frequency and Doppler width is
    finite and > 0."""
    monkeypatch.setattr(vapor, "lines_at_fields", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^field "):
            VaporPath(atoms, sensing_cell, centers)
    monkeypatch.undo()
    below = np.nextafter(0.5 * atoms.d1_center_hz(sensing_cell.isotope_fractions) / MU_B_HZ_PER_T, 0.0)
    lines = VaporPath(atoms, sensing_cell, below)._lines
    assert np.all(np.isfinite(lines.sigma_hz)) and lines.nu0.min() > 0 and lines.sigma_hz.min() > 0


def test_non_finite_cell_and_path_inputs_rejected(atoms, sensing_cell, noon_line_hz):
    base = dict(length_m=0.075, temperature_k=343.15, isotope_fractions={"Rb85": 1.0})
    for key, value in [
        ("length_m", np.nan),
        ("length_m", np.inf),
        ("temperature_k", np.nan),
        ("buffer_fwhm_hz", np.nan),
        ("isotope_fractions", {"Rb85": np.nan, "Rb87": np.nan}),
    ]:
        with pytest.raises(ConfigError):
            VaporCellConfig(**{**base, key: value})
    with pytest.raises(ConfigError, match="finite"):
        VaporPath(atoms, sensing_cell, np.nan)
    path = VaporPath(atoms, sensing_cell, 10e-3)
    with pytest.raises(ConfigError, match="finite"):
        path.transfer_at(np.array([noon_line_hz, np.nan]))


def test_a_bad_isotope_fraction_is_named_with_its_value():
    """A fraction that is negative or not finite is refused naming its
    isotope and value, also when the fractions still sum to 1."""
    base = dict(length_m=0.075, temperature_k=343.15)
    for fractions, named in [
        ({"Rb85": 1.5, "Rb87": -0.5}, "Rb87 must be finite and >= 0 (got -0.5)"),
        ({"Rb85": np.nan, "Rb87": 0.5}, "Rb85 must be finite and >= 0 (got nan)"),
        ({"Rb85": 1.0, "Rb87": np.inf}, "Rb87 must be finite and >= 0 (got inf)"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(f"isotope fraction {named}")):
            VaporCellConfig(**base, isotope_fractions=fractions)


def test_sensing_cell_rotation_grows_and_transmits(atoms, sensing_cell, noon_line_hz):
    """Rotation grows nonlinearly with B and transmission stays above 0.5
    until the 50 mT absorption onset."""
    nu = np.array([noon_line_hz])
    theta, trans = [], []
    fields = np.array([10e-3, 25e-3, 37e-3, 49e-3])
    for b in fields:
        path = VaporPath(atoms, sensing_cell, b, slices=8)
        theta.append(abs(path.rotation_angle_at(nu)[0]))
        t_plus, t_minus = path.transfer_at(nu)
        trans.append(0.5 * (abs(t_plus[0]) ** 2 + abs(t_minus[0]) ** 2))
    theta = np.array(theta)
    assert np.all(np.diff(theta) > 0)
    # superlinear growth: incremental slope increases
    slopes = np.diff(theta) / np.diff(fields)
    assert slopes[-1] > 1.5 * slopes[0]
    assert min(trans) > 0.5


# -------------------------------------------------------------- blocking cell


def test_hot_cell_blocks_filter_passband(atoms, fadof_main):
    hot = natural_cell(atoms, temp_k=390.0, buffer_mhz=178.0)
    t = blocking_cell_transmission(hot, atoms)
    # opaque across the main transmission peak (half-maximum region)
    peak_idx = int(np.argmax(fadof_main.transmission))
    t_max = fadof_main.transmission[peak_idx]
    region = fadof_main.grid_hz[fadof_main.transmission > 0.5 * t_max]
    assert t(region).max() < 1e-3


def test_cold_cell_transparent_at_operating_point(atoms, fadof_main):
    cold = natural_cell(atoms, temp_k=295.0, buffer_mhz=178.0)
    t = blocking_cell_transmission(cold, atoms)
    nu0 = fadof_main.grid_hz[int(np.argmax(fadof_main.transmission))]
    assert t(np.array([nu0]))[0] > 0.9


def test_blocking_transmission_bounded(atoms, d1_center):
    hot = natural_cell(atoms, temp_k=380.0, buffer_mhz=178.0)
    grid = make_frequency_grid(d1_center, 6e9, 5e6)
    t = blocking_cell_transmission(hot, atoms)
    assert np.all(t(grid) > 0.0)
    assert np.all(t(grid) <= 1.0)


def test_spectroscopy_broadening_monotone_in_field(atoms, sensing_cell):
    """Second moment of the absorption grows with field at every cell
    temperature (the curves broaden in field order)."""

    center = atoms.d1_center_hz()
    grid = make_frequency_grid(center, 5e9, 25e6)  # coarse probe of widths
    from dataclasses import replace

    for temp_c in (22.0, 53.0, 83.0):
        widths = []
        cell = replace(sensing_cell, temperature_k=temp_c + 273.15)
        for b_mt in (0.0, 12.0, 24.0, 37.0, 49.0, 58.0):
            path = VaporPath(atoms, cell, b_mt * 1e-3, slices=4)
            t_plus, t_minus = path.transfer_at(grid)
            absorb = 1.0 - 0.5 * (np.abs(t_plus) ** 2 + np.abs(t_minus) ** 2)
            mu = (grid * absorb).sum() / absorb.sum()
            widths.append(np.sqrt(((grid - mu) ** 2 * absorb).sum() / absorb.sum()))
        assert np.all(np.diff(widths) > 0), f"not monotone at {temp_c} C: {widths}"


@pytest.mark.parametrize("half_span_hz, spacing_hz", [(1e9, 0.0), (1e9, -1e6), (-1e9, 1e6)])
def test_frequency_grid_rejects_bad_steps(half_span_hz, spacing_hz):
    with pytest.raises(ConfigError):
        make_frequency_grid(377e12, half_span_hz, spacing_hz)

