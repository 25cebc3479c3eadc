import pytest

from affineosc import interp
from affineosc.core import PhysicalParams
from affineosc.interp import b_sweep, truncated_sweep
from affineosc.numeric import GridPolicy, ProblemSpec, default_domain, solve

UNIT = PhysicalParams()


def count_solves(monkeypatch):
    """The calls of interp.solve, which still run."""
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(interp, "solve", counted)
    return calls


class TestBSweep:
    def test_b0_row_reproduces_halfline_ladder(self):
        result = b_sweep(UNIT, [0.0], 3)
        for row in result.rows:
            assert row.energy == pytest.approx(2.0 * (row.n + 1), rel=1e-6)
            assert row.dev_half <= 1e-6 * 2.0 * (row.n + 1)
            assert row.dev_full == pytest.approx(abs(row.energy - (row.n + 0.5)))

    def test_deviation_from_full_line_decreases(self):
        result = b_sweep(UNIT, [1.0, 5.0], 1)
        devs = [row.dev_full for row in result.rows]
        assert devs[1] < devs[0]

    def test_rows_ordered_and_meta_recorded(self):
        result = b_sweep(UNIT, [0.0, 1.0], 2)
        assert [(r.b, r.n) for r in result.rows] == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]
        assert set(result.grid_meta) == {0.0, 1.0}

    def test_deviations_nonnegative(self):
        result = b_sweep(UNIT, [0.0, 2.0], 2)
        assert all(r.dev_half >= 0 and r.dev_full >= 0 for r in result.rows)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            b_sweep(UNIT, [1.0, 0.5], 1)  # not ascending
        with pytest.raises(ValueError):
            b_sweep(UNIT, [-1.0], 1)
        with pytest.raises(ValueError):
            b_sweep(UNIT, [0.0], 0)

    def test_no_b_values_give_no_rows(self):
        # with no b there is no grid to check k against
        assert b_sweep(UNIT, [], 0) == ([], {})

    def test_truncation_grid_cap_checked_before_any_solve(self, monkeypatch):
        # b = 0 passes; at the last b the coarse grid is under the cap and the
        # 1.5x wider one of check_truncation is over it
        solves = count_solves(monkeypatch)
        with pytest.raises(ValueError, match=r"'hext1' at b = 26205\.91471862557 .*N = 524373 "):
            b_sweep(UNIT, [0.0, 26205.91471862557], 4, GridPolicy(check_truncation=True))
        assert solves == []


class TestTruncatedSweep:
    def test_order0_is_shifted_oscillator(self):
        b = 5.0
        result = truncated_sweep(UNIT, b, [0], 3)
        for n, energy in enumerate(result.energies[0]):
            expected = (n + 0.5) + 3.0 / (8.0 * b**2)
            assert energy == pytest.approx(expected, rel=1e-6)

    def test_order4_close_to_exact_at_large_b(self):
        result = truncated_sweep(UNIT, 8.0, [4], 2)
        for e_trunc, e_exact in zip(result.energies[4], result.exact):
            assert e_trunc == pytest.approx(e_exact, abs=1e-4)

    def test_domain_clipped_for_positive_orders(self):
        spec = ProblemSpec(kind="truncated", b=3.0, order=3)
        domain = default_domain(spec, 2)
        assert domain[1] <= 0.9 * 3.0 + 1e-12
        assert domain[0] == -domain[1]

    def test_order0_domain_not_clipped(self):
        spec = ProblemSpec(kind="truncated", b=3.0, order=0)
        domain = default_domain(spec, 2)
        assert domain[1] > 0.9 * 3.0

    def test_validity_note_present(self):
        result = truncated_sweep(UNIT, 5.0, [0], 1)
        assert "|x/b| < 1" in result.note

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            truncated_sweep(UNIT, 0.0, [0], 1)
        with pytest.raises(ValueError):
            truncated_sweep(UNIT, 5.0, [7], 1)

    def test_orders_checked_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(interp, "solve", lambda *args: solves.append(args))
        with pytest.raises(ValueError):
            truncated_sweep(UNIT, 5.0, [0, 7], 1)
        assert solves == []

    def test_grid_caps_checked_before_any_solve(self, monkeypatch):
        # the exact spectrum's grid (N = 300001) is under the cap, order 0's is not
        solves = count_solves(monkeypatch)
        with pytest.raises(ValueError, match=r"^kind 'truncated' at b = 0\.0001 .*N = 600001 "):
            truncated_sweep(UNIT, 1e-4, [0, 1, 2, 3, 4], 4)
        assert solves == []

    def test_k_checked_before_any_solve(self, monkeypatch):
        solves = count_solves(monkeypatch)
        with pytest.raises(ValueError, match=r"^levels must be at least 1, got 0$"):
            truncated_sweep(UNIT, 5.0, [0], 0)
        assert solves == []
