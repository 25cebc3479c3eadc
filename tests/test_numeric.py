import collections
import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

import affineosc
from affineosc import analytic, checks, numeric
from affineosc.analytic import coupled_y1_eigen, coupled_y2_eigen, half_ho_eigen
from affineosc.core import DomainError, PhysicalParams
from affineosc.numeric import (
    ConvergenceError,
    Grid,
    GridPolicy,
    ProblemSpec,
    TridiagonalMatrix,
    assemble,
    default_domain,
    eigenvector,
    lowest_eigenvalues,
    potential_of,
    sign_changes,
    solve,
)
from oracles import hext1_ritz, unscaled

UNIT = PhysicalParams()
COUPLED = PhysicalParams(g=0.6)
FINITE_MESSAGE = r"^matrix entries must be finite, got NaN or infinity$"


def matvec(matrix, v):
    """Product of a symmetric tridiagonal matrix and a vector."""
    diag, off = unscaled(matrix)
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def level_vectors(result):
    """The fine-grid eigenvector of each solved level, as a numpy view."""
    return [
        np.asarray(eigenvector(result.matrix, lv.lam_fine, result.grid.h))
        for lv in result.levels
    ]


def count_eigen_calls(monkeypatch):
    """Count calls of numeric.lowest_eigenvalues and numeric.eigenvector."""
    calls = {"lowest_eigenvalues": 0, "eigenvector": 0}
    for name in calls:
        original = getattr(numeric, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(numeric, name, counted)
    return calls


class TestGrid:
    def test_spacing_and_nodes(self):
        grid = Grid(0.0, 16.0, 16)
        assert grid.h == 1.0
        np.testing.assert_allclose(grid.nodes, np.arange(0.5, 16.0))

    def test_refinement_splits_every_cell(self):
        grid = Grid(0.0, 1.0, 31)
        fine = grid.refined()
        assert fine.n == 62
        assert fine.h == grid.h / 2.0
        # each coarse centre is the face between the two fine cells it was split into
        fine_nodes = np.asarray(fine.nodes)
        np.testing.assert_allclose(0.5 * (fine_nodes[::2] + fine_nodes[1::2]), grid.nodes,
                                   rtol=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 100)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 8)

    @pytest.mark.parametrize("n", [100.5, 100.0, True, np.int64(100)])
    def test_cell_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match=r"^cell count must be an integer, got "):
            Grid(0.0, 1.0, n)

    @pytest.mark.parametrize("x_min,x_max", [(0.0, math.inf), (-1e308, 1e308)])
    def test_width_must_be_finite(self, monkeypatch, x_min, x_max):
        # 2e308 overflows: the width is infinite although both ends are finite
        grids = record_grids(monkeypatch)
        # an infinite end is refused as such, a finite pair by its width
        message = (r"^x_max must be finite, got " if x_max == math.inf
                   else r"^need a finite x_max - x_min, got ")
        with pytest.raises(ValueError, match=message):
            Grid(x_min, x_max, 16)
        with pytest.raises(ValueError, match=r"^grid domain must be finite, got "):
            numeric.coarse_grid(ProblemSpec(kind="eqo2", params=PhysicalParams(g=0.5)), 4,
                                GridPolicy(domain=(x_min, x_max)))
        assert grids == []


class TestProblemSpec:
    def test_energy_scales(self):
        assert ProblemSpec(kind="eqintro").energy_scale == 0.5
        assert ProblemSpec(kind="hext1", b=1.0).energy_scale == 0.5
        assert ProblemSpec(kind="eqo1", params=COUPLED).energy_scale == 0.25
        assert ProblemSpec(kind="eqo2", params=COUPLED).energy_scale == 0.25

    def test_kind_field_coupling(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="nosuch")
        with pytest.raises(ValueError):
            ProblemSpec(kind="hext1")  # missing b
        with pytest.raises(ValueError):
            ProblemSpec(kind="eqintro", b=1.0)
        with pytest.raises(ValueError):
            ProblemSpec(kind="truncated", b=1.0)  # missing order
        with pytest.raises(ValueError):
            ProblemSpec(kind="truncated", b=1.0, order=5)
        with pytest.raises(ValueError):
            ProblemSpec(kind="eqo1", params=PhysicalParams(g=0.0))


    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind,order", [("hext1", None), ("truncated", 2)])
    def test_non_finite_b_rejected(self, kind, order, b):
        with pytest.raises(ValueError, match=r"^b must be finite, got "):
            ProblemSpec(kind=kind, b=b, order=order)

    def test_kind_table_matches_kinds(self):
        assert numeric.KINDS == tuple(numeric.KIND_FACTS)
        for kind, facts in numeric.KIND_FACTS.items():
            args = {"b": 1.0} if facts.takes_b else {}
            if facts.series:
                args["order"] = 2
            spec = ProblemSpec(kind=kind, params=COUPLED, **args)
            assert (spec.singular_point is not None) == facts.barrier
            low, high = default_domain(spec, 2)
            assert low == (spec.singular_point if facts.barrier else -high)


class TestPotentials:
    def test_eqintro_shape(self):
        v = potential_of(ProblemSpec(kind="eqintro"))
        assert v(1.0) == pytest.approx(0.75 + 1.0, rel=1e-15)
        assert v(2.0) == pytest.approx(0.75 / 4.0 + 4.0, rel=1e-15)

    def test_eqo1_eqo2_coefficients(self):
        v1 = potential_of(ProblemSpec(kind="eqo1", params=COUPLED))
        v2 = potential_of(ProblemSpec(kind="eqo2", params=COUPLED))
        assert v1(1.0) == pytest.approx(0.75 + 1.6, rel=1e-14)
        assert v2(1.0) == pytest.approx(0.4, rel=1e-14)

    def test_truncated_constant_term(self):
        v = potential_of(ProblemSpec(kind="truncated", b=1.0, order=4))
        assert v(0.0) == pytest.approx(0.75, rel=1e-15)

    def test_hext1_b0_reduces_to_eqintro(self):
        v_h = potential_of(ProblemSpec(kind="hext1", b=0.0))
        v_i = potential_of(ProblemSpec(kind="eqintro"))
        xs = np.linspace(0.1, 6.0, 100)
        np.testing.assert_allclose([v_h(x) for x in xs], [v_i(x) for x in xs], rtol=1e-15)

    def test_truncation_remainder_bound(self):
        # remainder of the alternating series is at most the first omitted term
        b, x = 10.0, 0.1
        v_exact = potential_of(ProblemSpec(kind="hext1", b=b))
        v_trunc = potential_of(ProblemSpec(kind="truncated", b=b, order=4))
        bound = 0.75 * 6.0 * abs(x) ** 5 / b**7
        assert abs(v_exact(x) - v_trunc(x)) <= bound

    def test_singular_point_rejected(self):
        with pytest.raises(DomainError):
            potential_of(ProblemSpec(kind="eqintro"))(0.0)
        with pytest.raises(DomainError):
            potential_of(ProblemSpec(kind="hext1", b=2.0))(-2.0)

    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo1", params=COUPLED),
        ProblemSpec(kind="eqo2", params=COUPLED),
        ProblemSpec(kind="hext1", b=1.0),
        ProblemSpec(kind="truncated", b=5.0, order=4),
    ], ids=lambda spec: spec.kind)
    def test_one_smooth_potential_for_every_kind(self, monkeypatch, spec):
        # assemble and potential_of both take the well from numeric._smooth_potential:
        # one substitution shifts every kind's diagonal and potential by 1, and nothing else
        grid = numeric.coarse_grid(spec, 2)
        x = grid.nodes[3]
        (diag, off), value = unscaled(assemble(spec, grid)), potential_of(spec)(x)
        smooth = numeric._smooth_potential

        def shifted(spec):
            well = smooth(spec)
            return lambda x: well(x) + 1.0

        monkeypatch.setattr(numeric, "_smooth_potential", shifted)
        diag_shifted, off_shifted = unscaled(assemble(spec, grid))
        np.testing.assert_allclose(diag_shifted - diag, 1.0, rtol=0,
                                   atol=1e-12 * np.max(np.abs(diag)))
        np.testing.assert_array_equal(off_shifted, off)
        assert potential_of(spec)(x) == pytest.approx(value + 1.0, rel=1e-15)


class TestAssemble:
    def test_structure(self):
        # without a barrier: the 3-point stencil on the cell centres, and a
        # ghost cell behind each Dirichlet face adds 1/h^2 to the end rows
        spec = ProblemSpec(kind="eqo2", params=COUPLED)
        grid = Grid(-4.0, 4.0, 63)
        matrix = assemble(spec, grid)
        v = np.array([potential_of(spec)(x) for x in grid.nodes])
        stencil = np.full(grid.n, 2.0 / grid.h**2)
        stencil[[0, -1]] = 3.0 / grid.h**2
        diag, off = unscaled(matrix)
        np.testing.assert_allclose(diag, stencil + v, rtol=1e-14)
        np.testing.assert_allclose(off, -1.0 / grid.h**2, rtol=1e-14)

    def test_barrier_rows(self):
        # psi = s^(3/2) u: faces carry t^3, cells weigh ((t + 1)^4 - t^4) / 4 in
        # units of h, the face at the barrier carries nothing
        spec = ProblemSpec(kind="eqintro")
        grid = Grid(0.0, 16.0, 16)
        matrix = assemble(spec, grid)
        t = np.arange(17.0)
        flux, weight = t**3, ((t[1:]) ** 4 - t[:-1] ** 4) / 4.0
        flux[-1] *= 2.0
        x = np.asarray(grid.nodes)
        diag, off = unscaled(matrix)
        np.testing.assert_allclose(diag, (flux[:-1] + flux[1:]) / weight + x * x, rtol=1e-15)
        np.testing.assert_allclose(off, -flux[1:-1] / np.sqrt(weight[:-1] * weight[1:]),
                                   rtol=1e-15)
        assert diag[0] == 4.0 + 0.25  # (0 + 1) / (1/4) + x^2 at x = 1/2

    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo1", params=COUPLED),
        ProblemSpec(kind="eqo2", params=COUPLED),
        ProblemSpec(kind="hext1", b=2.0),
        *[ProblemSpec(kind="truncated", b=b, order=order) for b in (0.7, 5.0) for order in range(5)],
    ], ids=lambda spec: f"{spec.kind}-{spec.b}-{spec.order}")
    def test_rows_match_numpy_assembly(self, spec):
        # the same scheme written with numpy arrays, as the reference
        grid = finest_grid(spec, 4)
        x = np.asarray(grid.nodes)
        c, sing = spec.quad_coeff, spec.singular_point
        if spec.facts.series:
            coeffs = [(-1.0) ** j * (j + 1) / spec.b**j for j in range(spec.order + 1)]
            v = 0.75 / spec.b**2 * sum(cj * x**j for j, cj in enumerate(coeffs)) + c * x**2
        else:
            v = c * x**2
        if sing is None:
            flux, weight = np.ones(grid.n + 1), np.ones(grid.n)
        else:
            t = (grid.x_min - sing) / grid.h + np.arange(grid.n + 1.0)
            flux, weight = t**3, t[:-1] ** 3 + 1.5 * t[:-1] ** 2 + t[:-1] + 0.25
        flux[[0, -1]] *= 2.0
        matrix = assemble(spec, grid)
        assert matrix.diag.typecode == matrix.off.typecode == "d"
        diag, off = unscaled(matrix)
        np.testing.assert_allclose(
            diag, (flux[:-1] + flux[1:]) / weight / grid.h**2 + v, rtol=1e-15, atol=0
        )
        np.testing.assert_allclose(
            off, -flux[1:-1] / np.sqrt(weight[:-1] * weight[1:]) / grid.h**2,
            rtol=1e-15, atol=0,
        )

    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo1", params=COUPLED),
        ProblemSpec(kind="eqo2", params=COUPLED),
        ProblemSpec(kind="hext1", b=2.0),
        ProblemSpec(kind="truncated", b=5.0, order=4),
    ], ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("n", [3180, 2 * numeric.ROW_BLOCK + 3])
    def test_rows_bit_identical_to_one_pass_formulas(self, spec, n):
        # the block-wise build gives the bits of the row formulas taken in one pass
        domain = default_domain(spec, 4)
        grid = Grid(domain[0], domain[1], n)
        matrix = assemble(spec, grid)
        diag, off = one_pass_rows(spec, grid)
        assert [band.tobytes() for band in unscaled(matrix)] == [
            array("d", diag).tobytes(), array("d", off).tobytes()
        ]

    def test_bands_stored_as_float64_arrays(self):
        matrix = TridiagonalMatrix(diag=np.array([2.0, 3.0]), off=[-1])
        # stored times the power of two that puts the largest |entry| in [0.5, 1)
        assert (matrix.diag, matrix.off, matrix.scale) == (
            array("d", [0.5, 0.75]), array("d", [-0.25]), 0.25
        )
        assert [band.tolist() for band in unscaled(matrix)] == [[2.0, 3.0], [-1.0]]
        # a float64 array is copied too, and the caller's is left unscaled
        same = array("d", [3.0])
        assert TridiagonalMatrix(diag=same, off=array("d")).diag is not same
        assert same == array("d", [3.0])

    @pytest.mark.parametrize("diag,off", [([1e-320], []), ([1e-320, 1e-320], [1e-321])],
                             ids=["1x1", "2x2"])
    def test_subnormal_matrix(self, diag, off):
        # below 2^-1024 the scale stays at 2^1023: still exact, with the bands under 0.5
        matrix = TridiagonalMatrix(diag, off)
        assert matrix.scale == math.ldexp(1.0, 1023)
        assert [band.tolist() for band in unscaled(matrix)] == [diag, off]
        expected = sorted({diag[0] - sum(off), diag[0] + sum(off)})
        assert lowest_eigenvalues(matrix, len(diag)) == expected

    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo2", params=COUPLED),
        ProblemSpec(kind="eqintro", params=PhysicalParams(hbar=1e-150)),
        ProblemSpec(kind="eqintro", params=PhysicalParams(hbar=1e100)),
    ], ids=["eqintro", "eqo2", "hbar-1e-150", "hbar-1e100"])
    def test_assembled_bands_prescaled(self, spec):
        matrix = assemble(spec, finest_grid(spec, 4))
        assert 0.5 <= max(map(abs, matrix.diag + matrix.off)) < 1.0
        assert math.frexp(matrix.scale)[0] == 0.5  # a power of two

    def test_domain_kind_mismatch(self):
        with pytest.raises(DomainError):
            assemble(ProblemSpec(kind="eqintro"), Grid(-1.0, 4.0, 63))
        with pytest.raises(DomainError):
            assemble(ProblemSpec(kind="eqo2", params=COUPLED), Grid(-1.0, 4.0, 63))
        with pytest.raises(DomainError):
            assemble(ProblemSpec(kind="hext1", b=1.0), Grid(-2.0, 4.0, 63))


def one_pass_rows(spec, grid):
    """assemble's row formulas over the whole grid at once, with the same operations in order."""
    n, h, x_min = grid.n, grid.h, grid.x_min
    if spec.facts.barrier:
        first = (x_min - spec.singular_point) / h
        flux = [(t := first + i) * t * t for i in range(n + 1)]
        weight = [(((t := first + i) + 1.5) * t + 1.0) * t + 0.25 for i in range(n)]
        c = spec.quad_coeff

        def v(x):
            return c * (x * x)

    else:
        flux, weight, v = [1.0] * (n + 1), [1.0] * n, potential_of(spec)
    flux[0] *= 2.0
    flux[n] *= 2.0
    scale = 1.0 / (h * h)
    diag = [(flux[i] + flux[i + 1]) / weight[i] * scale + v(x_min + h * (i + 0.5))
            for i in range(n)]
    off = [-flux[i + 1] / (math.sqrt(weight[i]) * math.sqrt(weight[i + 1])) * scale
           for i in range(n - 1)]
    return diag, off


def laplacian_3():
    return TridiagonalMatrix(
        diag=np.array([2.0, 2.0, 2.0]), off=np.array([-1.0, -1.0])
    )


class TestLowestEigenvalues:
    def test_small_laplacian(self):
        got = lowest_eigenvalues(laplacian_3(), 3)
        expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_diagonal_matrix(self):
        matrix = TridiagonalMatrix(
            diag=np.array([3.0, 1.0, 2.0]), off=np.array([0.0, 0.0])
        )
        np.testing.assert_allclose(
            lowest_eigenvalues(matrix, 3), [1.0, 2.0, 3.0], atol=1e-12
        )

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        for n in (10, 25, 50):
            diag = rng.uniform(-5.0, 5.0, size=n)
            off = rng.uniform(-3.0, 3.0, size=n - 1)
            matrix = TridiagonalMatrix(diag=diag, off=off)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            expected = np.sort(np.linalg.eigvalsh(dense))[:4]
            got = lowest_eigenvalues(matrix, 4)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            lowest_eigenvalues(laplacian_3(), 4)
        with pytest.raises(ValueError):
            lowest_eigenvalues(laplacian_3(), 0)

    def test_one_by_one(self):
        matrix = TridiagonalMatrix(diag=np.array([3.5]), off=np.array([]))
        assert lowest_eigenvalues(matrix, 1) == [3.5]

    def test_split_matrix_repeated_eigenvalues(self):
        matrix = TridiagonalMatrix(
            diag=np.array([1.0, 1.0, 2.0, 1.0]), off=np.zeros(3)
        )
        assert lowest_eigenvalues(matrix, 4) == [1.0, 1.0, 1.0, 2.0]

    def test_stiff_grid_against_dense_oracle(self):
        # 1-norm about 1e5, set by the stencil and not by the low
        # eigenvalues asked for
        matrix = assemble(ProblemSpec(kind="eqintro"), Grid(0.0, 6.3, 1000))
        diag, off = unscaled(matrix)
        assert 0.5e5 <= np.max(np.abs(diag)) + 2 * abs(off[0]) <= 2e5
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.linalg.eigvalsh(dense)[:10]
        np.testing.assert_allclose(lowest_eigenvalues(matrix, 10), expected, rtol=1e-10)

    def test_stiff_laplacian_closed_form(self):
        # 1-norm about 6e7: with the LAPACK default tolerance eps * |T| the
        # lowest eigenvalues come out only to about 4e-10 relative
        n = 4000
        h = 1.0 / (n + 1)
        matrix = TridiagonalMatrix(
            diag=np.full(n, 2.0 / h**2), off=np.full(n - 1, -1.0 / h**2)
        )
        j = np.arange(1, 11)
        exact = 4.0 / h**2 * np.sin(j * math.pi * h / 2.0) ** 2
        np.testing.assert_allclose(lowest_eigenvalues(matrix, 10), exact, rtol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # when the matrix is built, so neither eigensolver is ever handed one
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            TridiagonalMatrix([1.0, bad, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match=FINITE_MESSAGE):
            TridiagonalMatrix([1.0, 1.0, 2.0], [0.5, -bad])

    def test_only_building_a_matrix_scans_its_bands(self, monkeypatch):
        scanned = []
        all_finite = numeric._all_finite

        def counted(values):
            scanned.append(len(values))
            return all_finite(values)

        monkeypatch.setattr(numeric, "_all_finite", counted)
        matrix = TridiagonalMatrix([2.0, 2.0, 2.0], [-1.0, -1.0])
        assert scanned == [3, 2]
        lowest_eigenvalues(matrix, 3)
        eigenvector(matrix, 2.0, h=1.0)
        assert scanned == [3, 2]
        assemble(ProblemSpec(kind="eqintro"), Grid(0.0, 8.0, 16))
        assert scanned == [3, 2, 16, 15]


class TestEigenvector:
    def test_laplacian_middle_mode(self):
        v = eigenvector(laplacian_3(), 2.0, h=1.0)
        expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(v, expected, atol=1e-8)

    def test_residual_bound(self):
        spec = ProblemSpec(kind="eqo2", params=COUPLED)
        grid = Grid(-8.0, 8.0, 400)
        matrix = assemble(spec, grid)
        for lam in lowest_eigenvalues(matrix, 3):
            v = eigenvector(matrix, lam, h=grid.h)
            unit = v / np.linalg.norm(v)
            assert np.linalg.norm(matvec(matrix, unit) - lam * unit) <= 1e-8

    def test_trapezoid_normalization_and_sign(self):
        spec = ProblemSpec(kind="eqintro")
        grid = Grid(0.0, 9.0, 500)
        matrix = assemble(spec, grid)
        lam = lowest_eigenvalues(matrix, 1)[0]
        v = np.asarray(eigenvector(matrix, lam, h=grid.h))
        assert grid.h * np.sum(v**2) == pytest.approx(1.0, rel=1e-12)
        assert v[np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]] > 0

    def test_orthogonality_of_distinct_modes(self):
        spec = ProblemSpec(kind="eqo2", params=COUPLED)
        grid = Grid(-8.0, 8.0, 400)
        matrix = assemble(spec, grid)
        lams = lowest_eigenvalues(matrix, 3)
        vecs = [eigenvector(matrix, lam, h=grid.h) for lam in lams]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = grid.h * np.dot(vecs[i], vecs[j])
                assert abs(overlap) <= 1e-8


class TestSteinEigenvector:
    def test_one_by_one(self):
        matrix = TridiagonalMatrix(diag=np.array([3.5]), off=np.array([]))
        np.testing.assert_array_equal(eigenvector(matrix, 3.5, h=0.25), [2.0])

    def test_split_matrix(self):
        # zero off-diagonal: the matrix is passed to ?stein as one block anyway
        matrix = TridiagonalMatrix(diag=np.array([1.0, 1.0, 2.0, 1.0]), off=np.zeros(3))
        v = np.asarray(eigenvector(matrix, 2.0, h=1.0))
        np.testing.assert_allclose(v, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(matvec(matrix, v) - 2.0 * v) <= 1e-12

    def test_repeatable(self):
        spec = ProblemSpec(kind="eqo2", params=COUPLED)
        grid = Grid(-8.0, 8.0, 400)
        matrix = assemble(spec, grid)
        lam = lowest_eigenvalues(matrix, 2)[1]
        np.testing.assert_array_equal(
            eigenvector(matrix, lam, h=grid.h), eigenvector(matrix, lam, h=grid.h)
        )

    def test_stiff_laplacian_closed_form(self):
        # 1-norm about 6e7: handed the eigenvalue itself, ?stein is off by
        # 6e-11 here; with the 1e-13 shift, by 7e-12
        n = 4000
        h = 1.0 / (n + 1)
        matrix = TridiagonalMatrix(
            diag=np.full(n, 2.0 / h**2), off=np.full(n - 1, -1.0 / h**2)
        )
        x = h * np.arange(1, n + 1)
        for j, lam in enumerate(lowest_eigenvalues(matrix, 10), start=1):
            exact = np.sin(j * math.pi * x)
            exact /= math.sqrt(h) * np.linalg.norm(exact)
            np.testing.assert_allclose(eigenvector(matrix, lam, h=h), exact, rtol=0, atol=2e-11)

    @pytest.mark.parametrize("info,value", [(1, 0.0), (0, np.nan)])
    def test_lapack_failure_raises(self, monkeypatch, info, value):
        def failed(diag, off, lam):
            return np.full(len(diag), value), info

        monkeypatch.setattr(numeric, "_lapack", functools.partial(numeric._lapack()._replace,
                                                                 dstein=failed))
        with pytest.raises(ConvergenceError, match="stein"):
            eigenvector(laplacian_3(), 2.0, h=1.0)

    @pytest.mark.parametrize("h,lam", [
        (0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_bad_h_or_lam_refused_before_stein(self, monkeypatch, h, lam):
        def no_stein(diag, off, lam):
            raise AssertionError("eigenvector called LAPACK ?stein")

        matrix = laplacian_3()
        monkeypatch.setattr(numeric, "_lapack", functools.partial(numeric._lapack()._replace,
                                                                 dstein=no_stein))
        message = r"^lam must be finite, got " if 0.0 < h < math.inf else r"^h must be "
        with pytest.raises(ValueError, match=message):
            eigenvector(matrix, lam, h=h)

    @pytest.mark.parametrize("scale", [2.0**-500, 2.0**480, 1e146])
    def test_scale_invariant(self, scale):
        # unscaled, ?stein returns NaN for entries near 1e146
        matrix = assemble(ProblemSpec(kind="eqo2", params=COUPLED), Grid(-8.0, 8.0, 400))
        lam = lowest_eigenvalues(matrix, 3)[2]
        scaled = TridiagonalMatrix(*(band * scale for band in unscaled(matrix)))
        np.testing.assert_allclose(
            eigenvector(scaled, lam * scale, h=0.04), eigenvector(matrix, lam, h=0.04),
            rtol=0, atol=1e-12,
        )


def numpy_eigenvector(matrix, lam, h):
    """The eigenvector by numpy array arithmetic around the same ?stein call, as the reference.

    Returns the vector and whether its sign was flipped.
    """
    n = matrix.n
    if n == 1:
        return np.array([1.0 / math.sqrt(h)]), False
    diag, off = unscaled(matrix)
    factor = math.ldexp(1.0, -math.frexp(np.max(np.abs(np.concatenate([diag, off]))))[1])
    assert factor == matrix.scale
    vector, info = numeric._lapack().dstein(diag * factor, off * factor, lam * factor + 1e-13)
    v = np.array(vector, dtype=float)
    assert info == 0 and np.all(np.isfinite(v))
    v /= math.sqrt(h) * math.sqrt(math.fsum(v * v))
    lead = np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
    if v[lead] < 0:
        return -v, True
    return v, False


def bits(vector):
    """The bytes of a float64 vector: equal only when every entry, and its sign, is."""
    return np.asarray(vector, dtype=np.float64).tobytes()


def finest_grid(spec, k):
    """The finest grid solve(spec, k) uses by default, the one its eigenvectors live on."""
    return numeric.coarse_grid(spec, k).refined().refined()


EVERY_KIND = [
    ProblemSpec(kind="eqintro"),
    ProblemSpec(kind="eqo1", params=COUPLED),
    ProblemSpec(kind="eqo2", params=COUPLED),
    ProblemSpec(kind="hext1", b=2.0),
    ProblemSpec(kind="truncated", b=5.0, order=4),
]


class TestEigenvectorMatchesNumpy:
    @pytest.mark.parametrize("k", [4, 20])
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda spec: spec.kind)
    def test_every_kind(self, spec, k):
        grid = finest_grid(spec, k)
        matrix = assemble(spec, grid)
        flipped = []
        for n, lam in enumerate(lowest_eigenvalues(matrix, k)):
            expected, flip = numpy_eigenvector(matrix, lam, grid.h)
            assert bits(eigenvector(matrix, lam, grid.h)) == bits(expected), n
            flipped.append(flip)
        # ?stein hands back some level with a negative lead in every kind, so
        # the sign flip is exercised
        assert any(flipped)

    def test_one_by_one(self):
        matrix = TridiagonalMatrix(diag=[3.5], off=[])
        expected, _ = numpy_eigenvector(matrix, 3.5, 0.25)
        assert bits(eigenvector(matrix, 3.5, h=0.25)) == bits(expected)

    def test_scaled_near_1e146(self):
        matrix = assemble(ProblemSpec(kind="eqo2", params=COUPLED), Grid(-8.0, 8.0, 400))
        lam = lowest_eigenvalues(matrix, 3)[2] * 1e146
        scaled = TridiagonalMatrix(*(band * 1e146 for band in unscaled(matrix)))
        expected, _ = numpy_eigenvector(scaled, lam, 0.04)
        assert bits(eigenvector(scaled, lam, h=0.04)) == bits(expected)


# sha256 of the repr of lowest_eigenvalues on the 30 default matrices (every
# kind, k = 4 and 20, the three grids of each solve) and of the bytes of the
# eigenvectors of levels 0-2 on each finest grid, with the bundled OpenBLAS:
# how the bands are stored and scaled must not change a bit of either
EIGEN_BITS_SHA256 = "03029cd991d6031e94a27318f7aff59b0a34a88cdd752a2fc49ba0d2ed59cb1c"


def test_eigen_bits_pinned():
    digest = hashlib.sha256()
    for spec in EVERY_KIND:
        for k in (4, 20):
            coarse = numeric.coarse_grid(spec, k)
            for grid in (coarse, coarse.refined(), coarse.refined().refined()):
                matrix = assemble(spec, grid)
                lams = lowest_eigenvalues(matrix, k)
                digest.update(repr(lams).encode())
            for lam in lams[:3]:  # on the finest grid, the last one
                digest.update(bits(eigenvector(matrix, lam, grid.h)))
    assert digest.hexdigest() == EIGEN_BITS_SHA256


def test_eigenvalues_copy_no_band():
    # a copy of both bands would take 2 x 8n bytes, and so would ?stebz's w,
    # iblock and isplit as ctypes arrays; they live in an anonymous mapping,
    # whose untouched pages are never resident and which tracemalloc does not count
    matrix = assemble(ProblemSpec(kind="eqintro"), Grid(0.0, 9.0, 2**16))
    numeric._lapack()  # bound before tracing
    tracemalloc.start()
    try:
        lowest_eigenvalues(matrix, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * matrix.n


def test_eigenvector_holds_no_list():
    # ?stein's own w and z take 16n bytes and the result 8n more; a list of
    # the n squares or quotients would add about 4 x 8n (a float and a pointer each)
    matrix = assemble(ProblemSpec(kind="eqintro"), Grid(0.0, 9.0, 2**16))
    lam = lowest_eigenvalues(matrix, 1)[0]
    tracemalloc.start()
    try:
        eigenvector(matrix, lam, 9.0 / 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * matrix.n


def forced_fallback(monkeypatch, path_finder):
    """The routines ``_lapack`` binds when ``_openblas_path`` is path_finder."""
    monkeypatch.setattr(numeric, "_openblas_path", path_finder)
    # the loader itself, past the cache that holds this process's LAPACKE binding
    return numeric._lapack.__wrapped__()


def no_openblas():
    raise OSError("synthetic: no bundled OpenBLAS")


class TestLapackLoad:
    @pytest.mark.parametrize("k", [4, 20])
    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo2", params=COUPLED),
        ProblemSpec(kind="hext1", b=2.0),
    ], ids=lambda spec: spec.kind)
    def test_public_module_gives_identical_bits(self, monkeypatch, spec, k):
        direct = numeric._lapack()
        assert direct.source.endswith(".so")  # the LAPACKE binding succeeded
        public = forced_fallback(monkeypatch, no_openblas)
        assert public.source == "scipy.linalg.lapack"
        coarse = numeric.coarse_grid(spec, k)
        for grid in (coarse, coarse.refined(), coarse.refined().refined()):
            results = []
            for routines in (direct, public):
                # every LAPACK and BLAS call of the solver, the prescale too, goes
                # through this binding
                monkeypatch.setattr(numeric, "_lapack", lambda routines=routines: routines)
                matrix = assemble(spec, grid)
                lams = lowest_eigenvalues(matrix, k)
                vecs = [bits(eigenvector(matrix, lam, h=grid.h)) for lam in lams]
                results.append((matrix, lams, vecs))
            direct_run, public_run = results
            assert direct_run[0] == public_run[0]  # the prescaled bands and their scale
            assert direct_run[1:] == public_run[1:]  # eigenvalues and eigenvector bits

    def test_failed_direct_load_falls_back_to_scipy_linalg_lapack(self, monkeypatch):
        public = forced_fallback(monkeypatch, no_openblas)
        assert public.source == "scipy.linalg.lapack"
        values, info = public.dstebz(array("d", [2.0] * 3), array("d", [-1.0] * 2), 3, 1e-12)
        assert info == 0
        np.testing.assert_allclose(values, [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
        vector, info = public.dstein(np.full(3, 2.0), np.full(2, -1.0), 2.0)
        assert info == 0
        np.testing.assert_allclose(np.abs(vector), [0.5**0.5, 0.0, 0.5**0.5], atol=1e-12)

    @pytest.mark.parametrize("d", [2.0, -3.5, 1e-320, 1e300])
    def test_one_by_one_matrix_gives_identical_bits(self, monkeypatch, d):
        # a 1x1 matrix has an empty off-diagonal: LAPACKE takes it as it is, the
        # scipy fallback pads it to [0.0], and LAPACK reads neither
        direct = numeric._lapack()
        public = forced_fallback(monkeypatch, no_openblas)
        h = 0.3
        for routines in (direct, public):
            monkeypatch.setattr(numeric, "_lapack", lambda routines=routines: routines)
            matrix = TridiagonalMatrix([d], [])
            assert bits(lowest_eigenvalues(matrix, 1)) == bits([matrix.diag[0] / matrix.scale])
            assert bits(eigenvector(matrix, d, h)) == bits([1.0 / math.sqrt(h)])

    def test_library_without_lapacke_falls_back(self, monkeypatch):
        import _ctypes

        # a loadable shared library that exports no scipy_LAPACKE_* symbols
        assert forced_fallback(monkeypatch, lambda: _ctypes.__file__).source == (
            "scipy.linalg.lapack"
        )


ROUTINES = ("dstebz", "dstein", "dscal", "idamax")


def recording_binding(monkeypatch, calls):
    """Substitute ``numeric._lapack``: this process's binding, each routine counting its calls."""
    bound = numeric._lapack()

    def counted(name):
        routine = getattr(bound, name)

        def call(*args):
            calls[name] += 1
            return routine(*args)

        return call

    recorder = bound._replace(**{name: counted(name) for name in ROUTINES})
    monkeypatch.setattr(numeric, "_lapack", lambda: recorder)


def count_module_calls(monkeypatch, calls, *names):
    """Count the calls of numeric's functions names, each looked up at call time."""
    for name in names:
        function = getattr(numeric, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(numeric, name, counted)


class TestOneLapackEntryPoint:
    def test_no_wrapper_beside_the_binding(self):
        assert not hasattr(numeric, "dstebz") and not hasattr(numeric, "dstein")

    def test_every_call_is_recorded(self, monkeypatch, capsys):
        # each matrix prescales its two bands (idamax and dscal on each), each
        # eigenvalue search reads max|diag| (idamax) before ?stebz, and each
        # eigenvector takes ?stein and then idamax for its sign
        spec = ProblemSpec(kind="eqo2", params=COUPLED)

        def run():
            result = numeric.solve(spec, 3)
            vector = numeric.eigenvector(result.matrix, result.levels[2].lam_fine, result.grid.h)
            ok = checks.run_all()
            return result.levels, result.err_est, bits(vector), ok, capsys.readouterr().out

        plain = run()
        calls = collections.Counter()
        recording_binding(monkeypatch, calls)
        count_module_calls(monkeypatch, calls, "_prescale", "lowest_eigenvalues", "eigenvector")
        assert run() == plain
        matrices, searches = calls["_prescale"], calls["lowest_eigenvalues"]
        assert matrices > 3 and searches > 3 and calls["eigenvector"] == 1
        assert {name: calls[name] for name in ROUTINES} == {
            "dstebz": searches, "dstein": calls["eigenvector"], "dscal": 2 * matrices,
            "idamax": 2 * matrices + searches + calls["eigenvector"],
        }

    def test_one_substitution_reaches_every_routine(self, monkeypatch):
        calls = collections.Counter()
        recording_binding(monkeypatch, calls)
        result = solve(ProblemSpec(kind="eqintro"), 2)
        eigenvector(result.matrix, result.levels[0].lam_fine, result.grid.h)
        assert calls == {"dstebz": 3, "dstein": 1, "dscal": 6, "idamax": 10}


def run_script(script, *args, **environ):
    """Run a Python script in a fresh interpreter with this package on its path."""
    src = os.path.dirname(os.path.dirname(affineosc.__file__))
    env = {**os.environ, **environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )


FOOTPRINT_HELPERS = """
import contextlib, io, math, os, sys, tempfile

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()

def loaded():
    \"\"\"Which of numpy's core extension and scipy's f2py LAPACK extension are loaded.\"\"\"
    names = {m.rsplit(".", 1)[-1] for m in sys.modules}
    return sorted(names & {"_multiarray_umath", "_flapack"})

def startup_extras():
    \"\"\"Which of dataclasses, inspect (which dataclasses imports) and the check suite are loaded.\"\"\"
    return sorted(sys.modules.keys() & {"dataclasses", "inspect", "affineosc.checks"})
"""

IMPORT_FOOTPRINT_SCRIPT = FOOTPRINT_HELPERS + """
# 1. The imports bench/job.py makes, then coupled in every form, load neither
#    numpy nor LAPACK.
import affineosc
from affineosc import cli, interp, numeric, specfun
from affineosc.core import PhysicalParams
assert not loaded(), loaded()
assert numeric._lapack.cache_info().currsize == 0, "LAPACK bound by import affineosc"
assert specfun._legendre_pair.cache_info().currsize == 0, "rules built by import affineosc"
assert "numpy.polynomial" not in sys.modules, "loaded by import affineosc"
assert not startup_extras(), startup_extras()
csv = os.path.join(tempfile.mkdtemp(), "coupled.csv")
assert run("coupled", "--g", "0.6", "--count", "5", "--out", csv)[0] == 0
assert open(csv).read().startswith("n1,n2,energy\\n0,0,")
assert open(csv[:-4] + "_branches.csv").read().startswith("branch,n,energy\\ncoupled_y1,0,")
code, out, _ = run("coupled", "--g", "0.6", "--count", "5", "--format", "json")
assert code == 0 and out.startswith('{\\n  "composite": [{"n1": 0, "n2": 0,'), out
code, out, _ = run("coupled", "--count", "1000", "--dump-config")
assert code == 0 and '"count": 1000' in out, out
code, _, err = run("coupled", "--g", "2.0")
assert code == 1 and err.startswith("validation error:"), err
for command in ("spectrum", "coupled", "sweep", "specfun", "check"):
    code, out, _ = run(command, "--dump-config")
    assert code == 0 and out.startswith('{\\n  "command": "%s",' % command), out
assert not loaded(), loaded()
assert not startup_extras(), startup_extras()

# 2. Energies and eigenvectors load no numpy: spectrum with and without
#    --samples, both sweeps, the truncated-series sweep and a solve with the
#    truncation re-solve.  They run LAPACK and BLAS through ctypes, not through
#    scipy's f2py extensions.
code, out, _ = run("spectrum", "--levels", "4")
assert code == 0 and out.startswith("n,energy_analytic,energy_numeric,abs_diff\\n0,"), out
csv = os.path.join(tempfile.mkdtemp(), "spectrum.csv")
assert run("spectrum", "--levels", "4", "--samples", "8", "--out", csv)[0] == 0
assert open(csv).read().startswith("n,energy_analytic,energy_numeric,abs_diff\\n0,")
assert open(csv[:-4] + "_wavefunctions.csv").read().startswith("n,x,value\\n0,")
code, out, _ = run("spectrum", "--kind", "hext1", "--b", "2", "--levels", "3", "--samples", "16",
                   "--format", "json")
assert code == 0 and '"wavefunctions": [{"n": 0, "samples": [[' in out, out
code, out, _ = run("spectrum", "--kind", "eqo2", "--g", "0.6", "--levels", "20", "--format", "json")
assert code == 0 and out.startswith('{\\n  "levels": [{"n": 0,'), out
code, out, _ = run("sweep")
assert code == 0 and out.startswith("b,n,energy,dev_half,dev_full\\n0"), out
code, out, _ = run("sweep", "--b-values", "0,0.75,3.2", "--format", "json")
assert code == 0 and out.startswith('{\\n  "rows": [{"b": 0'), out
result = interp.truncated_sweep(PhysicalParams(), 2.0, range(5), 4)
assert [len(e) for e in result.energies.values()] == [4] * 5, result
policy = numeric.GridPolicy(check_truncation=True)
assert len(numeric.solve(numeric.ProblemSpec(kind="hext1", b=2.0), 4, policy).levels) == 4
assert not loaded(), loaded()
assert not startup_extras(), startup_extras()
assert numeric._lapack().source.endswith(".so"), numeric._lapack().source

# 3. specfun loads neither numpy nor inspect (which numpy imports); check
#    loads the check suite but still no numpy: its Gauss rules come from
#    ctypes LAPACK, and its seeded inputs from the random module.
code, out, _ = run("specfun", "--fn", "laguerre", "--n", "3", "--points", "0.5,2")
assert code == 0 and out.startswith("x,value\\n5.0"), out
assert not loaded(), loaded()
assert not startup_extras(), startup_extras()
assert "numpy" not in sys.modules, "loaded by specfun"
code, out, _ = run("check")
assert code == 0 and "[FAIL]" not in out, out
assert "affineosc.checks" in sys.modules
assert "numpy" not in sys.modules, "loaded by check"
assert not loaded(), loaded()
import numpy as np
value = specfun.integrate_halfline(lambda x: np.exp(-x * x) * (1.0 + x), 0.5, 1.0)
exact = math.sqrt(math.pi) / 2.0 * math.erfc(0.5) + math.exp(-0.25) / 2.0
assert abs(value - exact) <= 1e-10, value
assert loaded() == ["_multiarray_umath"], loaded()

# 4. Neither scipy.linalg nor scipy.integrate was loaded; LAPACKE and
#    scipy.linalg's wrapper give the same bits.
for name in ("scipy.linalg", "scipy.integrate"):
    assert name not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
import scipy.linalg
matrix = numeric.assemble(numeric.ProblemSpec(kind="eqintro"), numeric.Grid(0.0, 9.0, 500))
values, info = numeric._lapack().dstebz(matrix.diag, matrix.off, 20, 1e-12)
m, w, _, _, info_pub = scipy.linalg.lapack.dstebz(
    matrix.diag, matrix.off, 2, 0.0, 1.0, 1, 20, 1e-12, "E"
)
assert (len(values), info) == (m, info_pub) == (20, 0)
assert values == w[:m].tolist()
print("ok")
"""


def test_import_footprint():
    proc = run_script(IMPORT_FOOTPRINT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


LOADED_SCRIPT = FOOTPRINT_HELPERS + """
from affineosc import cli
code, out, _ = run(*sys.argv[1:])
assert code == 0, out
print(loaded())
"""


@pytest.mark.parametrize("argv", [["check"]], ids=lambda argv: argv[0])
def test_array_work_loads_numpy(argv):
    # the integrals, Gram matrices and node counts of check run on floats
    proc = run_script(LOADED_SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_specfun_loads_no_numpy():
    # the recurrences run on the float points in plain arithmetic
    proc = run_script(LOADED_SCRIPT, "specfun", "--points", "1,2.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_samples_load_no_numpy(fmt, tmp_path):
    # CSV to a file writes the wavefunctions companion as well
    out = ["--out", str(tmp_path / "spectrum.csv")] if fmt == "csv" else ["--format", "json"]
    proc = run_script(LOADED_SCRIPT, "spectrum", "--levels", "2", "--samples", "4", *out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    if fmt == "csv":
        assert (tmp_path / "spectrum_wavefunctions.csv").read_text().startswith("n,x,value\n0,")


HIDDEN_LOAD_SCRIPT = FOOTPRINT_HELPERS + """
import importlib.util

def assert_no_numpy(after):
    # find_spec of a module already in sys.modules reads that module's __spec__
    assert "numpy" not in sys.modules, after
    assert importlib.util.find_spec("numpy") is not None
    assert "_multiarray_umath" not in loaded(), after

import affineosc
from affineosc import cli, interp, numeric, specfun
assert_no_numpy("import affineosc")
csv = os.path.join(tempfile.mkdtemp(), "spectrum.csv")
for argv in (["coupled", "--g", "0.6", "--count", "5"],
             ["spectrum", "--samples", "8", "--out", csv],
             ["spectrum", "--samples", "8", "--format", "json"],
             ["sweep"],
             ["specfun", "--points", "1,1e200,nan"]):
    code, _, err = run(*argv)
    assert code == 0 and err == "", (argv, err)
    assert_no_numpy(argv)
assert open(csv[:-4] + "_wavefunctions.csv").read().startswith("n,x,value\\n0,")
print("ok")
"""


def test_no_hidden_numpy_load():
    proc = run_script(HIDDEN_LOAD_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_check_draws_plain_floats():
    # the seeded checks' phase-space points, in the order q1, q2, p1, p2
    points = checks._random_original_points(random.Random(0), 3)
    assert len(points) == 3
    for pt in points:
        assert all(type(v) is float for v in (pt.q1, pt.q2, pt.p1, pt.p2)), pt
        assert 0.1 <= pt.q1 < 4.0 and 0.1 <= pt.q2 < 4.0
        assert -4.0 <= pt.p1 < 4.0 and -4.0 <= pt.p2 < 4.0
    rng = random.Random(0)
    assert points[0].q1 == rng.uniform(0.1, 4.0) and points[0].q2 == rng.uniform(0.1, 4.0)


def test_check_runs_without_inverse_iteration(monkeypatch, capsys):
    # the Gauss rules take their weights from the Christoffel function, not from ?stein
    def no_stein(diag, off, lam):
        raise AssertionError("check called LAPACK ?stein")

    monkeypatch.setattr(numeric, "_lapack", functools.partial(numeric._lapack()._replace,
                                                             dstein=no_stein))
    assert checks.run_all()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and all(line.startswith("[PASS] ") for line in lines)


NO_SCIPY_LINALG_SCRIPT = """
import sys
import affineosc
from affineosc import cli, numeric
assert "numpy.polynomial" not in sys.modules, "loaded by import affineosc"
assert cli.main(["spectrum", "--levels", "4"]) == 0
assert cli.main(["coupled", "--g", "0.6", "--count", "5"]) == 0
assert "numpy.polynomial" not in sys.modules, "loaded by spectrum or coupled"
assert cli.main(["check"]) == 0
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
import scipy.linalg
matrix = numeric.assemble(numeric.ProblemSpec(kind="eqintro"), numeric.Grid(0.0, 9.0, 500))
values, info = numeric._lapack().dstebz(matrix.diag, matrix.off, 20, 1e-12)
m, w, _, _, info_pub = scipy.linalg.lapack.dstebz(
    matrix.diag, matrix.off, 2, 0.0, 1.0, 1, 20, 1e-12, "E"
)
assert numeric._lapack().source != "scipy.linalg.lapack"
assert (len(values), info) == (m, info_pub) == (20, 0)
assert values == w[:m].tolist()
"""


def test_scipy_linalg_never_loaded():
    proc = run_script(NO_SCIPY_LINALG_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,energy_analytic,energy_numeric,abs_diff\n0,")


class TestGridCap:
    def test_auto_grid_over_cap(self):
        # the grid grows with b: about 2.5e8 coarse nodes at b = 1e6
        with pytest.raises(ValueError, match=r"'hext1' at b = 1000000.0 .*N = \d+"):
            solve(ProblemSpec(kind="hext1", b=1e6), 1)

    def test_policy_n_over_cap(self):
        with pytest.raises(ValueError, match="N = 524289"):
            solve(ProblemSpec(kind="eqintro"), 1, GridPolicy(n=numeric.MAX_COARSE_N + 1))

    def test_truncation_resolve_over_cap(self, monkeypatch):
        # the 1.5x wider re-solve keeps the spacing, so it needs 1.5N cells;
        # the cap must stop it before the first matrix is built
        monkeypatch.setattr(numeric, "assemble", None)
        policy = GridPolicy(n=400_000, check_truncation=True)
        with pytest.raises(ValueError, match="N = 600000"):
            solve(ProblemSpec(kind="eqintro"), 1, policy)

    @pytest.mark.parametrize("field,value", [
        ("domain", (0.0, math.inf)), ("domain", (math.nan, 5.0)),
    ])
    def test_non_finite_policy_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridPolicy(**{field: value})

    @pytest.mark.parametrize("domain", [(), (1.0,), (0.0, 5.0, 9.0), ("0", "5"), [0.0, "5"],
                                        5.0, "05", {0.0: 5.0}])
    def test_domain_must_be_two_numbers(self, monkeypatch, domain):
        # None is the only "use the default domain"
        grids = record_grids(monkeypatch)
        # a pair is checked end by end
        pair = isinstance(domain, (tuple, list)) and len(domain) == 2
        message = (r"^grid domain must be a number, got '" if pair
                   else r"^grid domain must be two numbers \(x_min, x_max\), got ")
        with pytest.raises(ValueError, match=message):
            solve(ProblemSpec(kind="eqintro"), 4, GridPolicy(domain=domain))
        assert grids == []

    def test_cell_count_zero_is_not_the_default(self, monkeypatch):
        grids = record_grids(monkeypatch)
        for n in (0, 0.0, False):
            with pytest.raises(ValueError, match=r"^cell count must be "):
                numeric.coarse_grid(ProblemSpec(kind="eqintro"), 4, GridPolicy(n=n))
        assert grids == []


def record_grids(monkeypatch):
    """The grids passed to numeric.assemble, in call order; assemble still runs."""
    grids, original = [], numeric.assemble

    def recorded(spec, grid):
        grids.append(grid)
        return original(spec, grid)

    monkeypatch.setattr(numeric, "assemble", recorded)
    return grids


class TestInputTypes:
    @pytest.mark.parametrize("k", [2.5, 4.0, True, None])
    def test_k_must_be_an_int(self, monkeypatch, k):
        grids = record_grids(monkeypatch)
        with pytest.raises(ValueError, match=r"^levels must be an integer, got "):
            solve(ProblemSpec(kind="eqintro"), k)
        assert grids == []

    def test_policy_n_must_be_an_int(self, monkeypatch):
        grids = record_grids(monkeypatch)
        with pytest.raises(ValueError, match=r"^cell count must be an integer, got 100\.5$"):
            solve(ProblemSpec(kind="eqintro"), 4, GridPolicy(n=100.5))
        assert grids == []

    @pytest.mark.parametrize("value", ["no", "", 1, 0, None, np.bool_(True)])
    def test_check_truncation_must_be_a_bool(self, value):
        # "no" and 1 used to run the 1.5x re-solve
        with pytest.raises(ValueError, match=r"^check_truncation must be a bool, got "):
            GridPolicy(check_truncation=value)


class TestTruncationCheckPlan:
    def test_clipped_wide_domain_refused_before_any_matrix(self, monkeypatch):
        # truncated keeps |x| <= 0.9 b = 0.9, so no re-solve can reach x = 15
        grids = record_grids(monkeypatch)
        policy = GridPolicy(n=100, domain=(-10.0, 10.0), check_truncation=True)
        with pytest.raises(ValueError, match=r"check_truncation needs x up to 15, "
                                             r"beyond 0\.9 b = 0\.9$"):
            solve(ProblemSpec("truncated", b=1.0, order=1), 4, policy)
        assert grids == []

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_default_domain_at_b5_refused_by_the_gate(self, order):
        spec = ProblemSpec("truncated", b=5.0, order=order)
        with pytest.raises(ValueError, match=rf"^kind 'truncated' at b = 5\.0, order {order}: "):
            numeric.coarse_grid(spec, 4, GridPolicy(check_truncation=True))

    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_resolve_reaches_one_and_a_half_times_out(self, monkeypatch, order):
        grids = record_grids(monkeypatch)
        solve(ProblemSpec("truncated", b=20.0, order=order), 4, GridPolicy(check_truncation=True))
        # finest, fine and coarse grid of the solve, then of the re-solve
        finest, wide = grids[0], grids[3]
        assert len(grids) == 6
        assert wide.x_max == 1.5 * finest.x_max and wide.x_min == 1.5 * finest.x_min
        assert wide.h == pytest.approx(finest.h, rel=2.0 / wide.n)


class TestSolve:
    def test_eqintro_ladder(self):
        result = solve(ProblemSpec(kind="eqintro"), 3)
        for level in result.levels:
            assert level.energy == pytest.approx(2.0 * (level.n + 1), rel=1e-6)

    def test_eqo1_matches_closed_form(self):
        result = solve(ProblemSpec(kind="eqo1", params=COUPLED), 2)
        for level in result.levels:
            assert level.energy == pytest.approx(
                coupled_y1_eigen(level.n, COUPLED).energy, rel=1e-6
            )

    def test_eqo2_matches_closed_form(self):
        result = solve(ProblemSpec(kind="eqo2", params=COUPLED), 1)
        assert result.levels[0].energy == pytest.approx(0.15811388300841897, rel=1e-6)

    def test_hext1_b0_matches_eqintro(self):
        r1 = solve(ProblemSpec(kind="eqintro"), 3)
        r2 = solve(ProblemSpec(kind="hext1", b=0.0), 3)
        for l1, l2 in zip(r1.levels, r2.levels):
            assert l2.energy == pytest.approx(l1.energy, abs=1e-8)

    def test_levels_ascending_and_normalized(self):
        result = solve(ProblemSpec(kind="eqintro"), 4)
        energies = [level.energy for level in result.levels]
        assert energies == sorted(energies)
        for samples in level_vectors(result):
            assert result.grid.h * np.sum(samples**2) == pytest.approx(1.0, rel=1e-10)

    def test_node_count_correspondence(self):
        result = solve(ProblemSpec(kind="eqo2", params=COUPLED), 4)
        for level, samples in zip(result.levels, level_vectors(result)):
            assert sign_changes(samples) == level.n

    def test_variational_shift(self):
        spec = ProblemSpec(kind="eqintro")
        grid = Grid(0.0, 9.0, 800)
        matrix = assemble(spec, grid)
        diag, off = unscaled(matrix)
        shifted = TridiagonalMatrix(diag=diag + 1.0, off=off)
        lam = lowest_eigenvalues(matrix, 3)
        lam_up = lowest_eigenvalues(shifted, 3)
        for a, b in zip(lam, lam_up):
            assert b - a == pytest.approx(1.0, abs=1e-10)

    def test_truncation_check_passes_on_default_domain(self):
        policy = GridPolicy(n=800, check_truncation=True)
        solve(ProblemSpec(kind="eqintro"), 1, policy)

    def test_truncation_check_rejects_tight_domain(self):
        policy = GridPolicy(n=400, domain=(0.0, 2.5), check_truncation=True)
        with pytest.raises(ConvergenceError):
            solve(ProblemSpec(kind="eqintro"), 2, policy)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            solve(ProblemSpec(kind="eqintro"), 0)

    def test_k_above_coarsest_grid_fails_before_any_matrix(self, monkeypatch):
        calls = count_eigen_calls(monkeypatch)
        monkeypatch.setattr(numeric, "assemble", None)
        with pytest.raises(ValueError, match=r"^levels must be in 1\.\.16, got 20$"):
            solve(ProblemSpec(kind="eqintro"), 20, GridPolicy(n=16))
        assert calls == {"lowest_eigenvalues": 0, "eigenvector": 0}

    @pytest.mark.parametrize("m,omega,hbar", [
        (1.0, 1.0, 1e-3),
        # every matrix entry is below 1e-11, under the absolute eigenvalue
        # tolerance of unit-scale problems
        (1.0, 1.0, 1e16),
        # entries near 1e146
        (30794250.0, 1e-14, 2.0998212739038304e-147),
    ])
    def test_energy_scale_far_from_one(self, m, omega, hbar):
        params = PhysicalParams(m=m, omega=omega, hbar=hbar)
        result = solve(ProblemSpec(kind="eqintro", params=params), 3)
        for level, samples in zip(result.levels, level_vectors(result)):
            assert level.energy == pytest.approx(half_ho_eigen(level.n, params).energy, rel=1e-6)
            assert sign_changes(samples) == level.n

    def test_eigen_calls_go_through_module_attributes(self, monkeypatch):
        calls = count_eigen_calls(monkeypatch)
        solve(ProblemSpec(kind="eqintro"), 3)
        # eigenvalues on the three nested grids; no eigenvector unless asked for
        assert calls == {"lowest_eigenvalues": 3, "eigenvector": 0}

    def test_truncation_resolve_computes_no_eigenvectors(self, monkeypatch):
        calls = count_eigen_calls(monkeypatch)
        solve(ProblemSpec(kind="hext1", b=2.0), 4, GridPolicy(check_truncation=True))
        # the three grids of the solve and of the 1.5x wider re-solve
        assert calls == {"lowest_eigenvalues": 6, "eigenvector": 0}

    def test_level_eigenvalue_gives_fine_grid_vector(self):
        result = solve(ProblemSpec(kind="eqintro"), 2)
        for level, v in zip(result.levels, level_vectors(result)):
            residual = matvec(result.matrix, v) - level.lam_fine * v
            assert np.max(np.abs(residual)) <= 1e-8 * level.lam_fine * np.max(np.abs(v))


class TestConvergenceOrder:
    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo2", params=COUPLED),
    ])
    def test_richardson_ratio_near_four(self, spec):
        ratios = checks.convergence_ratios(spec)
        assert len(ratios) == 2
        assert all(3.6 <= ratio <= 4.4 for ratio in ratios)

    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo1", params=COUPLED),
        ProblemSpec(kind="hext1", params=COUPLED, b=1.0),
    ], ids=lambda spec: spec.kind)
    def test_barrier_ratio_four(self, spec):
        # the weighted finite volumes leave a clean h^2 term at the barrier
        assert all(3.95 <= ratio <= 4.05 for ratio in checks.convergence_ratios(spec))

    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo2", params=COUPLED),
    ], ids=lambda spec: spec.kind)
    def test_grid_lams_are_the_three_grids_coarse_to_finest(self, spec):
        # the eigenvalues the ratios read are those of the grids solve extrapolates on
        result = solve(spec, 3)
        coarse = numeric.coarse_grid(spec, 3)
        grids = [coarse, coarse.refined(), coarse.refined().refined()]
        assert result.grid == grids[2]
        assert result.grid_lams == [lowest_eigenvalues(assemble(spec, grid), 3) for grid in grids]
        assert [level.lam_fine for level in result.levels] == result.grid_lams[2]


def closed_form_specs():
    yield ProblemSpec(kind="eqintro")
    for g in (0.2, 0.6, 0.9):
        for kind in ("eqo1", "eqo2"):
            yield ProblemSpec(kind=kind, params=PhysicalParams(g=g))


def relative_errors(result, spec):
    branch = spec.facts.branch
    return [abs(lv.energy / analytic.branch_energy(branch, lv.n, spec.params) - 1.0)
            for lv in result.levels]


class TestAccuracy:
    @pytest.mark.parametrize("k", [1, 4, 20, 100])
    @pytest.mark.parametrize("spec", list(closed_form_specs()),
                             ids=lambda spec: f"{spec.kind}-{spec.params.g}")
    def test_every_level_within_1e9_of_closed_form(self, spec, k):
        assert max(relative_errors(solve(spec, k), spec)) <= 1e-9

    @pytest.mark.parametrize("k", [4, 20])
    @pytest.mark.parametrize("spec", list(closed_form_specs()),
                             ids=lambda spec: f"{spec.kind}-{spec.params.g}")
    def test_err_est_bounds_true_error(self, spec, k):
        result = solve(spec, k)
        for level, err_est, rel in zip(result.levels, result.err_est,
                                       relative_errors(result, spec)):
            assert rel * level.energy <= err_est, level.n

    @pytest.mark.parametrize("hbar", [1e-150, 1e-151, 1e-153])
    @pytest.mark.parametrize("kind", ["eqintro", "eqo1", "eqo2"])
    def test_independent_of_unit_system(self, kind, hbar):
        # the finest-grid entries reach 1e154 and more, whose squares overflow
        # in ?stebz unless the bands are scaled first
        spec = ProblemSpec(kind=kind, params=PhysicalParams(g=0.6, hbar=hbar))
        assert max(relative_errors(solve(spec, 4), spec)) <= 1e-9

    @pytest.mark.parametrize("k", [4, 20])
    def test_truncated_matches_twice_finer_grid(self, k):
        spec = ProblemSpec(kind="truncated", b=5.0, order=4)
        n = numeric.coarse_grid(spec, k).n
        fine = solve(spec, k, GridPolicy(n=2 * n))
        for level, ref in zip(solve(spec, k).levels, fine.levels):
            assert level.energy == pytest.approx(ref.energy, rel=1e-9, abs=0)


ORACLE_B = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0]


@functools.cache
def ritz(b, size=100):
    return hext1_ritz(b, size)


class TestHext1Oracle:
    @pytest.mark.parametrize("b", ORACLE_B)
    def test_oracle_converged(self, b):
        coarse, fine = ritz(b)[:20], ritz(b, 120)[:20]
        assert np.max(np.abs(coarse / fine - 1.0)) <= 1e-11
        if b == 0.0:  # the half-line ladder 4(n + 1)
            np.testing.assert_allclose(fine, 4.0 * np.arange(1, 21), rtol=1e-11, atol=0)

    @pytest.mark.parametrize("k", [1, 4, 20])
    @pytest.mark.parametrize("b", ORACLE_B)
    def test_solve_matches_oracle(self, b, k):
        # the oracle is the operator at unit parameters, where E = lambda / 2
        levels = solve(ProblemSpec(kind="hext1", b=b), k).levels
        np.testing.assert_allclose([lv.lam for lv in levels], ritz(b)[:k], rtol=1e-9, atol=0)


# Rows solve passed to lowest_eigenvalues before the three-grid scheme: a node
# grid at a fixed spacing of 0.004 natural lengths and its refinement, N + 2N + 1.
#   k = 4:  eqintro 6364, eqo1 6364, eqo2 9367, hext1 7213, truncated 6748
#   k = 20: eqintro 12187, eqo1 12187, eqo2 17428, hext1 12988, truncated 6748
NODE_BUDGET = {
    4: {"eqintro": 6364, "eqo1": 6364, "eqo2": 9367, "hext1": 7213, "truncated": 6748},
    20: {"eqintro": 12187, "eqo1": 12187, "eqo2": 17428, "hext1": 12988, "truncated": 6748},
}
BUDGET_SPECS = {
    "eqintro": ProblemSpec(kind="eqintro"),
    "eqo1": ProblemSpec(kind="eqo1", params=COUPLED),
    "eqo2": ProblemSpec(kind="eqo2", params=COUPLED),
    "hext1": ProblemSpec(kind="hext1", b=1.0),
    "truncated": ProblemSpec(kind="truncated", b=5.0, order=4),
}


@pytest.mark.parametrize("k", [4, 20])
@pytest.mark.parametrize("kind", list(BUDGET_SPECS))
def test_rows_within_40_percent_of_former_grid(monkeypatch, kind, k):
    rows = []
    original = numeric.lowest_eigenvalues

    def counted(matrix, k):
        rows.append(matrix.n)
        return original(matrix, k)

    monkeypatch.setattr(numeric, "lowest_eigenvalues", counted)
    solve(BUDGET_SPECS[kind], k)
    assert len(rows) == 3
    assert sum(rows) <= 0.4 * NODE_BUDGET[k][kind], rows


CLI_SCRIPT = """
import sys
from affineosc import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_samples_do_not_depend_on_openblas_threads():
    # above 10000 rows a threaded dot product would split the norm's sum
    argv = ["spectrum", "--kind", "hext1", "--b", "4.493281", "--levels", "20",
            "--samples", "43", "--grid-n", "2600", "--format", "json"]
    outputs = []
    for threads in ("1", "2"):
        proc = run_script(CLI_SCRIPT, *argv, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert '"grid": {"n": 10400,' in outputs[0]
    assert outputs[0] == outputs[1]
