import json
from dataclasses import dataclass, fields

import pytest

from clgcd.algorithm import cl_run
from clgcd.constants import ConstantsTable, m_table
from clgcd.dynamics import birkhoff_estimates
from clgcd.experiments import (
    ConjectureReport,
    DirichletReport,
    OmegaSpec,
    SlopeReport,
    WorstCaseReport,
    conjecture_check,
    dirichlet_check,
    mean_costs,
    slope_estimate,
    worstcase_scan,
)
from clgcd.report import fields_json
from clgcd.spectral import solve_operator, taylor_estimates

# the reports whose JSON is their fields, through the one rule
RULE_BUILT = (ConstantsTable, DirichletReport, WorstCaseReport, SlopeReport,
              ConjectureReport)


@dataclass(frozen=True)
class _Inner:
    x: int

    def to_json_dict(self) -> dict:
        return {"own": self.x}


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    rows: tuple
    table: dict
    nothing: None = None

    to_json_dict = fields_json


def test_fields_json_rule():
    # fields in declaration order, a nested report through its own method,
    # tuples and lists as lists at any depth, dicts copied
    rows = ((1, 2.5), [_Inner(3)])
    table = {"a": {"b": (4,)}, "c": _Inner(5)}
    d = _Outer("x", _Inner(1), rows, table).to_json_dict()
    assert list(d) == ["name", "inner", "rows", "table", "nothing"]
    assert d == {"name": "x", "inner": {"own": 1},
                 "rows": [[1, 2.5], [{"own": 3}]],
                 "table": {"a": {"b": [4]}, "c": {"own": 5}},
                 "nothing": None}
    assert d["table"] is not table and d["table"]["a"] is not table["a"]


def test_nested_reports_keep_their_own_json():
    # unlike dataclasses.asdict, a rung keeps ExperimentReport's flattened
    # spec and its deviations
    rep = slope_estimate(1 << 16, 500)
    d = rep.to_json_dict()
    assert d["rungs"] == [r.to_json_dict() for r in rep.rungs]
    assert "deviations" in d["rungs"][0] and "spec" not in d["rungs"][0]


def _reports(threads):
    # every report type, at sizes that give the pool two chunks or more
    return [
        cl_run(31, 75),
        solve_operator(1.0, 0.0, n=32),
        taylor_estimates(n=32),
        m_table(),
        dirichlet_check(N=1000),
        worstcase_scan(8),
        birkhoff_estimates(64, 2100, 1, threads),
        mean_costs(OmegaSpec(N=10 ** 6, sample_count=5000), threads),
        mean_costs(OmegaSpec(N=1 << 64, sample_count=50), threads),
        mean_costs(OmegaSpec(N=300, mode="exhaustive"), threads),
        slope_estimate(1 << 16, 5000, threads=threads),
        conjecture_check(bits=64, trajectory_samples=2100, N_max=1 << 16,
                         pair_samples=5000, threads=threads),
    ]


def _leaves(value):
    if isinstance(value, dict):
        assert all(type(key) is str for key in value)
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("threads", [1, 2])
def test_report_json_is_plain(threads):
    plain = (int, float, str, bool, type(None))
    reports = _reports(threads)
    assert set(RULE_BUILT) <= {type(r) for r in reports}
    for rep in reports:
        d = rep.to_json_dict()
        bad = [v for v in _leaves(d) if type(v) not in plain]
        assert not bad, (type(rep).__name__, bad[:3])
        if type(rep) in RULE_BUILT:
            assert list(d) == [f.name for f in fields(rep)]
        assert json.loads(json.dumps(d)) == d
