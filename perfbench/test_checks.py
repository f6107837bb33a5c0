"""Self-tests: every workload check accepts a right output and rejects a
wrong one.

    python3 -m pytest perfbench -q
"""
import checks
from checks import Row

SLIDING_TSV = """# manifest 0123456789abcdef
t\tx1\tx2\tmode\talpha\tpsi
0.001\t0.301\t0.499\tsmooth:1\t\t
0.5\t0.8\t0\tsmooth:1\t\t
0.501\t0.8\t0\tsliding:1,2\t0.5\t
2.5\t0.8\t0\tsliding:1,2\t0.5\t

# events
# t\tkind\tdetail
0.5\tcrossing\t(1,2)
0.5\tsliding_entry\t(1,2)
2.5\tt_end\t
"""


def _sliding(text=SLIDING_TSV, a=0.3, y0=0.5, t_end=2.5):
    rows, events = checks.parse_trajectory(text)
    return checks.check_sliding(rows, events, a, y0, t_end, step=1e-3)


def test_parse_trajectory_reads_rows_and_events():
    rows, events = checks.parse_trajectory(SLIDING_TSV)
    assert len(rows) == 4 and len(events) == 3
    assert rows[2] == Row(0.501, (0.8, 0.0), "sliding:1,2", 0.5, None)
    assert events[1] == (0.5, "sliding_entry", "(1,2)")
    assert [checks.region_of(r.mode) for r in rows] == [1, 1, 1, 1]
    assert checks.region_of("stopped:t_end") is None


def test_verify_check():
    ok = "verdict: no-violation-found\n"
    assert checks.check_verify(False, 0, ok) == []
    assert checks.check_verify(True, 4, "verdict: violated-at(1, 0)\n") == []
    # the perturbed family must be refuted: exit 0 on it is wrong
    assert checks.check_verify(True, 0, ok)
    assert checks.check_verify(False, 4, "verdict: violated-at(1, 0)\n")


def test_sliding_check():
    assert _sliding() == []
    # x1 off by 1e-2 from a + y0
    assert _sliding(SLIDING_TSV.replace("2.5\t0.8\t0", "2.5\t0.81\t0"))
    assert _sliding(SLIDING_TSV.replace("\t0.5\t\n2.5", "\t0.6\t\n2.5"))
    assert _sliding(SLIDING_TSV.replace("0.5\tsliding_entry", "0.7\tsliding_entry"))
    assert _sliding(SLIDING_TSV.replace("sliding_entry", "crossing"))


def _sweep_rows(values):
    rows = [Row(0.1 * k, (2.0 - 0.1 * k, 2.0 - 0.1 * k), "smooth:1", None, None)
            for k in range(len(values))]
    return rows, [(rows[-1].t, "t_end", "")]


def test_sweep_check():
    rows, events = _sweep_rows([8.0, 7.0, 6.0])
    assert checks.check_sweep_run(rows, events, (2.0, 2.0), [8.0, 7.0, 6.0]) == []
    # an increase of the certificate value along the trajectory
    assert checks.check_sweep_run(rows, events, (2.0, 2.0), [8.0, 7.0, 7.1])
    # rises within 1e-6*(1+psi) are rounding, not violations
    assert checks.check_sweep_run(rows, events, (2.0, 2.0),
                                  [8.0, 7.0, 7.0 + 1e-7]) == []
    assert checks.check_sweep_run(rows, events + [(0.2, "escaped", "")],
                                  (2.0, 2.0), [8.0, 7.0, 6.0])
    # final norm must drop below the start norm
    assert checks.check_sweep_run(rows, events, (1.0, 1.0), [8.0, 7.0, 6.0])


def _sizes(**override):
    sizes = {deg: {"rows": rows, "blocks": 29, "largest_block": largest,
                   "free_scalars": free}
             for deg, (rows, largest, free) in checks.ASSEMBLE_LIMITS.items()}
    for key, value in override.items():
        sizes[6][key] = value
    return sizes


def test_assemble_check():
    assert checks.check_assemble(_sizes()) == []
    assert checks.check_assemble(_sizes(rows=300)) == []   # smaller is fine
    assert checks.check_assemble(_sizes(rows=340))
    assert checks.check_assemble(_sizes(largest_block=15))
    assert checks.check_assemble(_sizes(free_scalars=154))
    assert checks.check_assemble(_sizes(blocks=30))
    missing = _sizes()
    del missing[8]
    assert checks.check_assemble(missing)
