"""Self-test of the benchmark on tiny job lists.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json

import gate
import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload):
    jobs = run.make_jobs(workload, seed=7)
    if workload == "solve":
        # level-4 spectra (CSV with samples, JSON), the seeded sweep and a library job
        return jobs[:2] + [j for j in jobs if "b_values" in j["opts"] or j["cmd"] == "hext1_truncation"]
    if workload == "coupled":
        return jobs[:2]
    return jobs


def _measure(workload, trace):
    record = run.measure(workload, seed=7, seconds=0, trace=trace, min_jobs=1,
                         jobs=_tiny(workload))
    assert record["failed"] == 0, record["failures"]
    return record


def _printed(record):
    """name -> unit, as report_lines prints them."""
    printed = {}
    for line in run.report_lines(record):
        if not line.startswith("#"):
            name, _, unit = line.split()[:3]
            printed[name] = unit
    return printed


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_every_metric_printed_with_its_unit():
    for workload in run.WORKLOADS:
        plain = _printed(_measure(workload, trace=False))
        for metric in SPEC["end_to_end"]:
            assert plain[metric["name"]] == metric["unit"], (workload, metric)
        assert plain["fail_frac"] == "1"
        assert plain["work_s"] == "s"
        assert ("max_rel_err" in plain) == (workload == "solve")
        traced = _printed(_measure(workload, trace=True))
        for metric in SPEC["per_layer"]:
            assert traced[metric["name"]] == metric["unit"], (workload, metric)


def test_summary_line_has_exactly_the_four_keys():
    record = _measure("check", trace=False)
    line = run.summary([record])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_traced_spans_nest_inside_their_parents(tmp_path):
    for workload in run.WORKLOADS:
        for job in _tiny(workload):
            sample = run.run_job(job, tmp_path, traced=True, timeout=run.JOB_TIMEOUT)
            assert sample["ok"], sample["reason"]
            trace = sample["trace"]
            assert trace["spans"], job["id"]
            assert spans.nesting_violations(trace["spans"]) == []
            assert all(span[4] == job["id"] for span in trace["spans"])


def test_self_time_subtracts_covered_child_time():
    trace = [
        ["a", 0.0, 10.0, None, "j"],
        ["b", 1.0, 4.0, 0, "j"],
        ["c", 3.0, 6.0, 0, "j"],  # overlaps b: covered time is 1..6
        ["d", 1.5, 2.0, 1, "j"],
    ]
    assert spans.self_times(trace) == [5.0, 2.5, 3.0, 0.5]
    assert spans.nesting_violations(trace) == []
    assert spans.nesting_violations([*trace, ["e", 9.0, 11.0, 2, "j"]]) == ["e"]


def test_gate_rejects_wrong_output(tmp_path):
    job = run.make_jobs("coupled", seed=7)[0]
    rows = gate.composite_levels(job["opts"]["g"], job["opts"]["count"])
    lines = ["n1,n2,energy"] + [f"{a},{b},{e:.14e}" for a, b, e in rows]
    branches = ["branch,n,energy"] + [
        f"{name},{n},{gate.closed_form(kind, n, job['opts']['g']):.14e}"
        for name, kind in (("coupled_y1", "eqo1"), ("coupled_y2", "eqo2"))
        for n in range(job["opts"]["count"])
    ]
    (tmp_path / job["out"]).write_text("\n".join(lines) + "\n")
    (tmp_path / job["out"].replace(".csv", "_branches.csv")).write_text("\n".join(branches) + "\n")
    assert gate.check(job, tmp_path, 0)[0]
    lines[3], lines[4] = lines[4], lines[3]
    (tmp_path / job["out"]).write_text("\n".join(lines) + "\n")
    assert not gate.check(job, tmp_path, 0)[0]
    assert not gate.check(job, tmp_path, 1)[0]


def test_same_seed_same_jobs():
    for workload in run.WORKLOADS:
        assert run.make_jobs(workload, 3) == run.make_jobs(workload, 3)
    assert run.make_jobs("solve", 3) != run.make_jobs("solve", 4)
