"""Generated inputs depend on the seed and nothing else."""

import os

from workloads import CliWorkload, op_seed, write_cli_inputs


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        os.makedirs(tmp_path / name)
        write_cli_inputs(str(tmp_path / name), seed, n=300, m=2)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert set(a) == {"impute.csv", "impute_schema.csv", "analyze_long.csv",
                      "analyze_schema.csv"}
    assert a == b
    assert a["impute.csv"] != c["impute.csv"]
    assert a["analyze_long.csv"] != c["analyze_long.csv"]


def test_inputs_have_the_documented_shape(tmp_path):
    write_cli_inputs(str(tmp_path), 3, n=400, m=2)
    workload = CliWorkload(str(tmp_path), 3, m=2)
    values = workload.input_values
    assert values.shape == (400, 3)
    missing = (values != values).mean(axis=0)
    assert 0.2 < missing[0] < 0.4 and 0.2 < missing[1] < 0.4 and missing[2] == 0
    with open(tmp_path / "analyze_long.csv") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "_imp,x1,x2,w,d" and len(rows) == 1 + 2 * 400
    assert all("," in r and "" not in r.split(",") for r in rows[1:])


def test_op_seeds_are_distinct_per_op_and_per_seed():
    seeds = {op_seed(s, i) for s in range(3) for i in range(1000)}
    assert len(seeds) == 3000
