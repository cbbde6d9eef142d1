"""File readers and config fields under mutated input: the CLI exits 0, 1 or 2
and never lets an exception escape.

Valid records CSVs and table JSONs are mutated (fields swapped, numbers
made huge or non-finite, rows dropped, text truncated) and fed to
``weaktomo reconstruct`` and ``weaktomo verify`` in-process.  Config fields
get ill-typed and out-of-range values through ``reconstruct --set``.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktomo import cli, serialize
from weaktomo.harness import SCHEMES, ExperimentConfig, simulate

RECORDS = simulate(ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                                    shots=12, state_seed=3, seed=4)).to_csv()
TABLE = serialize.table_to_json(simulate(ExperimentConfig(dim=2, scheme="all_data",
                                                          state_seed=3)))
SET = ["--set", "dim=2", "--set", "scheme=all_data"]
HUGE_INT = "1" + "0" * 400

# Text that replaces one CSV field or one JSON scalar.
BAD_TEXT = ["1e400", "-1e400", "nan", "inf", "NaN", "Infinity", "-Infinity",
            "99999999999999999999", "-99999999999999999999", HUGE_INT,
            "1e-400", "-1", "2.5", "0", "", "q", "p", "true", "null", "[]", "x"]

# (kind, a, b, text).  Records: a picks the line, b the field or the cut.
# Tables: a picks a value (a scalar for "number", the cut for "truncate"),
# b the value it swaps with.
mutation = st.tuples(st.sampled_from(["swap", "number", "drop", "truncate"]),
                     st.integers(0, 10**6), st.integers(0, 10**6),
                     st.sampled_from(BAD_TEXT))


def _mutate_records(text: str, steps) -> str:
    lines = text.splitlines()
    for kind, a, b, bad in steps:
        if not lines:
            break
        row = a % len(lines)
        fields = lines[row].split(",")
        if kind == "swap":
            i, j = b % len(fields), a % len(fields)
            fields[i], fields[j] = fields[j], fields[i]
            lines[row] = ",".join(fields)
        elif kind == "number":
            fields[b % len(fields)] = bad
            lines[row] = ",".join(fields)
        elif kind == "drop":
            del lines[row]
        else:
            lines[row] = lines[row][: b % (len(lines[row]) + 1)]
            del lines[row + 1:]
    return "\n".join(lines) + "\n"


def _paths(obj, path=()):
    """Paths to every value below a JSON object, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, path + (key,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate_table(table: dict, steps) -> str:
    obj = json.loads(json.dumps(table))
    raw = {}                       # placeholder string -> the text it stands for

    def text():
        out = json.dumps(obj)
        for key, value in raw.items():
            out = out.replace(key, value)
        return out

    for kind, a, b, bad in steps:
        paths = list(_paths(obj))
        if not paths:
            break
        path = paths[a % len(paths)]
        if kind == "swap":
            other = paths[b % len(paths)]
            if path[:len(other)] == other or other[:len(path)] == path:
                continue  # one holds the other
            x, y = _get(obj, path[:-1]), _get(obj, other[:-1])
            x[path[-1]], y[other[-1]] = y[other[-1]], x[path[-1]]
        elif kind == "number":
            scalars = [p for p in paths if not isinstance(_get(obj, p), (dict, list))]
            path = scalars[a % len(scalars)]
            key = f"__bad_{len(raw)}__"
            raw[json.dumps(key)] = bad
            _get(obj, path[:-1])[path[-1]] = key
        elif kind == "drop":
            del _get(obj, path[:-1])[path[-1]]
        else:
            out = text()
            return out[: a % (len(out) + 1)]
    return text()


def _run(argv) -> int:
    code = cli.main(argv)
    assert code in (0, 1), (argv, code)
    return code


@settings(max_examples=150)
@given(steps=st.lists(mutation, min_size=1, max_size=3))
@example(steps=[("number", 1, 0, "99999999999999999999")])  # trial beyond 64 bits
@example(steps=[("truncate", 1, 0, "")])                     # the header alone
def test_mutated_records_never_escape(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_text(_mutate_records(RECORDS, steps))
        _run(["reconstruct", *SET, "--records", str(path),
              "--out", str(Path(tmp) / "bundle.json"), "--quiet"])


# Scalars in table_to_json order: dim, W_re (4), W_im (4), P (2), defined (2),
# n_trials.
@settings(max_examples=150)
@given(steps=st.lists(mutation, min_size=1, max_size=3))
@example(steps=[("number", 0, 0, "1e400")])                  # dim
@example(steps=[("number", 0, 0, "2.5")])                    # dim
@example(steps=[("number", 13, 0, "1e400")])                 # n_trials
@example(steps=[("number", 1, 0, HUGE_INT)])                 # W_re[0][0]
def test_mutated_tables_never_escape(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(_mutate_table(TABLE, steps))
        _run(["verify", str(path)])
        _run(["reconstruct", *SET, "--table", str(path),
              "--out", str(Path(tmp) / "bundle.json"), "--quiet"])


def test_unmutated_inputs_succeed():
    with tempfile.TemporaryDirectory() as tmp:
        records, table = Path(tmp) / "records.csv", Path(tmp) / "table.json"
        records.write_text(RECORDS)
        table.write_text(json.dumps(TABLE))
        assert _run(["reconstruct", *SET, "--records", str(records), "--quiet",
                     "--out", str(Path(tmp) / "a.json")]) == 0
        assert _run(["verify", str(table)]) == 0
        assert _run(["reconstruct", *SET, "--table", str(table), "--quiet",
                     "--out", str(Path(tmp) / "b.json")]) == 0


# Every scalar config field but dim, which sets the size of every array.
CONFIG_FIELDS = sorted(set(ExperimentConfig.__dataclass_fields__) - {"dim"}
                       - set(serialize._ARRAY_FIELDS))

config_value = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
    st.sampled_from(BAD_TEXT),
    st.sampled_from(sorted(SCHEMES)),
    st.text(max_size=8),
    st.lists(st.integers(-3, 3), max_size=3).map(json.dumps),
)


@settings(max_examples=150)
@given(field=st.sampled_from(CONFIG_FIELDS), value=config_value,
       scheme=st.sampled_from(sorted(SCHEMES)),
       state_spec=st.sampled_from(["haar-pure", "ginibre"]),
       mode=st.sampled_from(["--exact", "--sampled"]))
@example(field="shots", value="2.5", scheme="all_data", state_spec="haar-pure",
         mode="--sampled")
@example(field="shots", value="true", scheme="all_data", state_spec="haar-pure",
         mode="--sampled")
@example(field="seed", value="1e400", scheme="all_data", state_spec="haar-pure",
         mode="--sampled")
@example(field="seed", value="2.5", scheme="all_data", state_spec="haar-pure",
         mode="--sampled")
@example(field="state_seed", value="1.5", scheme="all_data", state_spec="haar-pure",
         mode="--exact")
@example(field="state_rank", value="1.5", scheme="mixed_a", state_spec="ginibre",
         mode="--exact")
@example(field="postselect_row", value="0.5", scheme="postselected",
         state_spec="haar-pure", mode="--exact")
@example(field="noise_offset", value="7.4e152", scheme="all_data",   # readout sums
         state_spec="haar-pure", mode="--sampled")                   # overflow
def test_config_fields_never_escape(field, value, scheme, state_spec, mode):
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main(["reconstruct", "--set", "dim=2", "--set", f"scheme={scheme}",
                         "--set", f"state_spec={state_spec}", "--set", "shots=1000", mode,
                         "--set", f"{field}={value}",
                         "--out", str(Path(tmp) / "bundle.json"), "--quiet"])
    assert code in (0, 1, 2), (field, value, code)
