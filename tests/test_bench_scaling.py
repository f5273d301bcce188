"""bench.py --scaling labels its output with the CPU levels it ran at."""

import bench


def _run(docs_per_s: float, cpus: int) -> dict:
    return {"docs_per_s": docs_per_s, "value": 100.0 / docs_per_s,
            "mb_html_per_s": docs_per_s / 10, "queries": {"extract": cpus},
            "n_docs": 100, "checksum": "3:abc"}


def test_scaling_report_names_its_levels():
    # sorted by seconds, as main() sorts them
    runs_lo = [_run(v, 2) for v in (11.0, 10.0, 9.0)]
    runs_hi = [_run(v, 6) for v in (30.0, 27.0, 24.0)]
    rep = bench.scaling_report(2, 6, runs_lo, runs_hi, ceiling=0.8)
    assert rep["metric"] == "scaling efficiency (docs/s at 2 vs 6 cpus)"
    assert (rep["lo"], rep["hi"]) == (2, 6)
    assert rep["docs_per_s_lo"] == 10.0 and rep["docs_per_s_hi"] == 27.0
    assert rep["stages_lo"] == {"extract": 2} and rep["stages_hi"] == {"extract": 6}
    assert rep["value"] == round((27.0 / 10.0) / 3, 3)
    assert rep["checksum_equal_across_parallelism"]
    assert not any(k.endswith(("_8", "_32", "_8_all", "_32_all")) for k in rep)
