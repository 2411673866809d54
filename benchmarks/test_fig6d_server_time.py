"""E8 / Fig. 6(d): server processing time split across approaches.

Compares the server load (alarm processing + index lookup + the rest
of the safe-region computation) of PRD, MWPSR, PBSR (h=5), SP and OPT at
1% and 10% public alarms.

Shape checks (the paper's claims):
* the periodic approach "has much higher alarm processing costs as each
  update needs to be processed" — its alarm-processing time towers over
  every other approach's;
* PRD's load barely moves with the alarm density ("the processing load
  does not rise much at higher alarm densities");
* the safe-region approaches carry a much lower total than PRD;
* SP processes more updates than the safe-region approaches, so its
  alarm-processing share exceeds theirs.
"""

from repro.experiments import BENCH, figure6d

from .conftest import print_table

PUBLICS = (0.01, 0.10)


def _by_public_and_name(table):
    out = {}
    for row in table.rows:
        public = int(row[0])
        out.setdefault(public, {})[row[1]] = tuple(
            float(value) for value in row[2:])
    return out


def test_fig6d_server_time(benchmark):
    table = benchmark.pedantic(figure6d, args=(BENCH, PUBLICS),
                               rounds=1, iterations=1)
    print_table(table)

    data = _by_public_and_name(table)
    for public, rows in data.items():
        prd_alarm, prd_lookup, prd_sr, prd_total = rows["PRD"]
        mwpsr = rows["MWPSR(y=1,z=32)"]
        pbsr = rows["PBSR(h=5)"]
        sp = rows["SP"]
        # PRD's alarm processing dominates everyone's
        for name, (alarm_s, lookup_s, _, _) in rows.items():
            if name != "PRD":
                assert prd_alarm > alarm_s, (public, name)
                assert lookup_s > 0, (public, name)
        assert prd_lookup == prd_sr == 0.0
        # safe-region approaches beat PRD on total load
        assert mwpsr[3] < prd_total
        assert pbsr[3] < prd_total
        # SP processes more updates than the safe-region approaches
        assert sp[0] > mwpsr[0]
        assert sp[0] > pbsr[0]

    # PRD's load is insensitive to alarm density (within noise)
    prd_low = data[1]["PRD"][3]
    prd_high = data[10]["PRD"][3]
    assert abs(prd_high - prd_low) / prd_low < 0.6
