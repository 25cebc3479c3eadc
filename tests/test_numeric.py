import math

import numpy as np
import pytest

from affineosc import numeric
from affineosc.analytic import coupled_y1_eigen, coupled_y2_eigen, half_ho_eigen
from affineosc.core import DomainError, PhysicalParams
from affineosc.numeric import (
    ConvergenceError,
    Grid,
    GridPolicy,
    ProblemSpec,
    TridiagonalMatrix,
    assemble,
    commutator_residual,
    default_domain,
    eigenvector,
    lowest_eigenvalues,
    potential_of,
    sign_changes,
    solve,
)

UNIT = PhysicalParams()
COUPLED = PhysicalParams(g=0.6)


class TestGrid:
    def test_spacing_and_nodes(self):
        grid = Grid(0.0, 17.0, 16)
        assert grid.h == 1.0
        np.testing.assert_allclose(grid.nodes, np.arange(1.0, 17.0))

    def test_refinement_is_node_nested(self):
        grid = Grid(0.0, 1.0, 31)
        fine = grid.refined()
        assert fine.n == 63
        assert fine.h == pytest.approx(grid.h / 2.0)
        np.testing.assert_allclose(fine.nodes[1::2], grid.nodes, rtol=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 100)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 8)


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
        with pytest.raises(ValueError, match="finite b"):
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
        np.testing.assert_allclose(v_h(xs), v_i(xs), rtol=1e-15)

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


class TestAssemble:
    def test_structure(self):
        spec = ProblemSpec(kind="eqo2", params=COUPLED)
        grid = Grid(-4.0, 4.0, 63)
        matrix = assemble(spec, grid)
        v = potential_of(spec)(grid.nodes)
        np.testing.assert_allclose(matrix.diag, 2.0 / grid.h**2 + v, rtol=1e-14)
        np.testing.assert_allclose(matrix.off, -1.0 / grid.h**2, rtol=1e-14)

    def test_domain_kind_mismatch(self):
        with pytest.raises(DomainError):
            assemble(ProblemSpec(kind="eqintro"), Grid(-1.0, 4.0, 63))
        with pytest.raises(DomainError):
            assemble(ProblemSpec(kind="eqo2", params=COUPLED), Grid(-1.0, 4.0, 63))
        with pytest.raises(DomainError):
            assemble(ProblemSpec(kind="hext1", b=1.0), Grid(-2.0, 4.0, 63))


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
        assert 0.5e5 <= np.max(np.abs(matrix.diag)) + 2 * abs(matrix.off[0]) <= 2e5
        dense = np.diag(matrix.diag) + np.diag(matrix.off, 1) + np.diag(matrix.off, -1)
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
        matrix = TridiagonalMatrix(diag=np.array([2.0, bad, 2.0]), off=np.array([-1.0, -1.0]))
        with pytest.raises(ValueError, match="NaN"):
            lowest_eigenvalues(matrix, 1)


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
            assert np.linalg.norm(matrix.matvec(unit) - lam * unit) <= 1e-8

    def test_trapezoid_normalization_and_sign(self):
        spec = ProblemSpec(kind="eqintro")
        grid = Grid(0.0, 9.0, 500)
        matrix = assemble(spec, grid)
        lam = lowest_eigenvalues(matrix, 1)[0]
        v = eigenvector(matrix, lam, h=grid.h)
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
        v = eigenvector(matrix, 2.0, h=1.0)
        np.testing.assert_allclose(v, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(matrix.matvec(v) - 2.0 * v) <= 1e-12

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
        def failed(d, e, w, iblock, isplit):
            return np.full((len(d), len(w)), value), info

        monkeypatch.setattr(numeric, "dstein", failed)
        with pytest.raises(ConvergenceError, match="stein"):
            eigenvector(laplacian_3(), 2.0, h=1.0)

    @pytest.mark.parametrize("scale", [2.0**-500, 2.0**480, 1e146])
    def test_scale_invariant(self, scale):
        # unscaled, ?stein returns NaN for entries near 1e146
        matrix = assemble(ProblemSpec(kind="eqo2", params=COUPLED), Grid(-8.0, 8.0, 400))
        lam = lowest_eigenvalues(matrix, 3)[2]
        scaled = TridiagonalMatrix(diag=matrix.diag * scale, off=matrix.off * scale)
        np.testing.assert_allclose(
            eigenvector(scaled, lam * scale, h=0.04), eigenvector(matrix, lam, h=0.04),
            rtol=0, atol=1e-12,
        )


class TestGridCap:
    def test_auto_grid_over_cap(self):
        # the grid grows with b: about 2.5e8 coarse nodes at b = 1e6
        with pytest.raises(ValueError, match=r"'hext1' at b = 1000000.0 .*N = \d+"):
            solve(ProblemSpec(kind="hext1", b=1e6), 1)

    def test_policy_n_over_cap(self):
        with pytest.raises(ValueError, match="N = 1048577"):
            solve(ProblemSpec(kind="eqintro"), 1, GridPolicy(n=numeric.MAX_COARSE_N + 1))

    def test_truncation_resolve_over_cap(self, monkeypatch):
        # the 1.5x wider re-solve keeps the spacing, so it needs about 1.5N nodes;
        # the cap must stop it before the first grid is assembled
        monkeypatch.setattr(numeric, "assemble", None)
        policy = GridPolicy(n=800_000, check_truncation=True)
        with pytest.raises(ValueError, match="N = 1200001"):
            solve(ProblemSpec(kind="eqintro"), 1, policy)

    @pytest.mark.parametrize("field,value", [
        ("domain", (0.0, math.inf)), ("domain", (math.nan, 5.0)),
        ("truncation_tol", math.nan), ("truncation_tol", math.inf),
    ])
    def test_non_finite_policy_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridPolicy(**{field: value})


class TestSolve:
    def test_eqintro_ladder(self):
        result = solve(ProblemSpec(kind="eqintro"), 3)
        for n, _, energy, _ in result.levels:
            assert energy == pytest.approx(2.0 * (n + 1), rel=1e-6)

    def test_eqo1_matches_closed_form(self):
        result = solve(ProblemSpec(kind="eqo1", params=COUPLED), 2)
        for n, _, energy, _ in result.levels:
            assert energy == pytest.approx(
                coupled_y1_eigen(n, COUPLED).energy, rel=1e-6
            )

    def test_eqo2_matches_closed_form(self):
        result = solve(ProblemSpec(kind="eqo2", params=COUPLED), 1)
        assert result.levels[0][2] == pytest.approx(0.15811388300841897, rel=1e-6)

    def test_hext1_b0_matches_eqintro(self):
        r1 = solve(ProblemSpec(kind="eqintro"), 3)
        r2 = solve(ProblemSpec(kind="hext1", b=0.0), 3)
        for (_, _, e1, _), (_, _, e2, _) in zip(r1.levels, r2.levels):
            assert e2 == pytest.approx(e1, abs=1e-8)

    def test_levels_ascending_and_normalized(self):
        result = solve(ProblemSpec(kind="eqintro"), 4)
        energies = [e for _, _, e, _ in result.levels]
        assert energies == sorted(energies)
        for _, _, _, samples in result.levels:
            assert result.grid.h * np.sum(samples**2) == pytest.approx(1.0, rel=1e-10)

    def test_node_count_correspondence(self):
        result = solve(ProblemSpec(kind="eqo2", params=COUPLED), 4)
        for n, _, _, samples in result.levels:
            assert sign_changes(samples) == n

    def test_variational_shift(self):
        spec = ProblemSpec(kind="eqintro")
        grid = Grid(0.0, 9.0, 800)
        matrix = assemble(spec, grid)
        shifted = TridiagonalMatrix(diag=matrix.diag + 1.0, off=matrix.off)
        lam = lowest_eigenvalues(matrix, 3)
        lam_up = lowest_eigenvalues(shifted, 3)
        for a, b in zip(lam, lam_up):
            assert b - a == pytest.approx(1.0, abs=1e-10)

    def test_truncation_check_passes_on_default_domain(self):
        policy = GridPolicy(n=800, check_truncation=True, truncation_tol=1e-7)
        solve(ProblemSpec(kind="eqintro"), 1, policy)

    def test_truncation_check_rejects_tight_domain(self):
        policy = GridPolicy(
            n=400, domain=(0.0, 2.5), check_truncation=True, truncation_tol=1e-8
        )
        with pytest.raises(ConvergenceError):
            solve(ProblemSpec(kind="eqintro"), 2, policy)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            solve(ProblemSpec(kind="eqintro"), 0)

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
        for n, _, energy, samples in result.levels:
            assert energy == pytest.approx(half_ho_eigen(n, params).energy, rel=1e-6)
            assert sign_changes(samples) == n

    def test_eigen_calls_go_through_module_attributes(self, monkeypatch):
        calls = {"lowest_eigenvalues": 0, "eigenvector": 0}
        for name in calls:
            original = getattr(numeric, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(numeric, name, counted)
        solve(ProblemSpec(kind="eqintro"), 3)
        # fine and coarse grid eigenvalues, then one eigenvector per level
        assert calls == {"lowest_eigenvalues": 2, "eigenvector": 3}


class TestConvergenceOrder:
    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo2", params=COUPLED),
    ])
    def test_richardson_ratio_near_four(self, spec):
        domain = default_domain(spec, 2)
        grids = [Grid(domain[0], domain[1], 600)]
        grids.append(grids[0].refined())
        grids.append(grids[1].refined())
        lams = [lowest_eigenvalues(assemble(spec, g), 2) for g in grids]
        for idx in range(2):
            star = (4.0 * lams[2][idx] - lams[1][idx]) / 3.0
            ratio = (lams[0][idx] - star) / (lams[1][idx] - star)
            assert 3.6 <= ratio <= 4.4


class TestCommutatorResidual:
    @staticmethod
    def bump(x):
        return np.exp(-((x - 4.0) ** 2))

    def test_second_order_decay(self):
        coarse = Grid(0.0, 8.0, 400)
        fine = coarse.refined()
        r_c = commutator_residual(coarse, self.bump)
        r_f = commutator_residual(fine, self.bump)
        assert r_c / r_f == pytest.approx(4.0, rel=0.1)

    def test_zero_function(self):
        grid = Grid(0.0, 8.0, 200)
        assert commutator_residual(grid, lambda x: np.zeros_like(x)) == 0.0

    def test_multiplication_operators_commute(self):
        grid = Grid(0.0, 8.0, 200)
        x = grid.nodes
        f = self.bump(x)
        np.testing.assert_array_equal(x * (x * f) - x * (x * f), 0.0)

    def test_bracket_factor_two_convention(self):
        grid = Grid(0.0, 8.0, 800)
        r1 = commutator_residual(grid, self.bump, bracket_factor=1.0)
        r2 = commutator_residual(grid, self.bump, bracket_factor=2.0)
        # doubling hbar in operators and target scales the residual linearly
        assert r2 == pytest.approx(2.0 * r1, rel=1e-10)
        assert r1 <= 1e-3

    def test_requires_vanishing_near_ends(self):
        grid = Grid(0.0, 8.0, 200)
        with pytest.raises(DomainError):
            commutator_residual(grid, lambda x: np.ones_like(x))
