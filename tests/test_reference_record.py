import json

from reference_record import RECORD, compute_record, moved_fields


def test_shipped_configs_reproduce_the_reference_record(shipped_sweep):
    # the recorded numbers of the four shipped configs, against the
    # committed record; see reference_record.py for how to regenerate it
    moved = moved_fields(json.loads(RECORD.read_text()), compute_record(sweep=shipped_sweep))
    assert not moved, "moved fields (path, old, new):\n" + "\n".join(map(repr, moved))


def test_moved_fields_reports_each_move_by_its_path():
    old = {"bounds": [{"name": "shannon_deviation", "lhs": 0.5, "window_count": 3, "status": "holds"}],
           "rows": [1.0, 2.0]}
    assert moved_fields(old, json.loads(json.dumps(old))) == []
    new = {"bounds": [{"name": "shannon_deviation", "lhs": 0.5 * (1 + 1e-6), "window_count": 4,
                       "status": "violated"}],
           "rows": [1.0 + 1e-13, 2.0, 3.0]}
    assert moved_fields(old, new) == [
        ("bounds[0:shannon_deviation].lhs", 0.5, 0.5 * (1 + 1e-6)),
        ("bounds[0:shannon_deviation].status", "holds", "violated"),
        ("bounds[0:shannon_deviation].window_count", 3, 4),
        ("rows.length", 2, 3),
    ]
    # within rel 1e-9 or abs 1e-12 a float has not moved; an integer has
    assert moved_fields({"x": 1.0, "n": 3}, {"x": 1.0 + 5e-10, "n": 3}) == []
    assert moved_fields({"x": 0.0}, {"x": 5e-13}) == []
    assert moved_fields({"n": 3}, {"n": 3.0}) == [("n", 3, 3.0)]
