import numpy as np
import pytest

from magnomech.csvio import CHUNK_ROWS, fmt, write_csv


def _contract_lines(header, blocks):
    """The byte contract, cell by cell: tags as fmt formats them, then
    every numeric cell at 17 significant digits."""
    lines = [",".join(header)]
    for tags, columns in blocks:
        for row in zip(*columns):
            lines.append(",".join([fmt(t) for t in tags] +
                                  [format(float(x), ".17g") for x in row]))
    return lines


def test_block_lines_match_the_per_cell_contract(tmp_path):
    rng = np.random.default_rng(20260418)
    n = 2 * CHUNK_ROWS + 100      # the first block spans three chunks
    # every binary exponent of a double, subnormals included, both signs
    finite = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1024, n))
    finite *= rng.choice([-1.0, 1.0], n)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                        1.7976931348623157e308, 2.2250738585072014e-308, 1.0,
                        0.1, 1e16, 123456789012345678.0])
    first = np.concatenate([special, finite])
    columns = (first, *(rng.permutation(first) for _ in range(4)),
               rng.choice([1, 3], first.size))        # an integer roots column
    blocks = [((), columns),
              ((0.15, -0.0), tuple(c[:7] for c in columns)),
              ((1e-300,), tuple(c[:0] for c in columns)),
              ((2.0 / 3.0,), tuple(c[-5:] for c in columns))]
    header = ["a", "b", "c", "d", "e", "roots"]
    out = tmp_path / "contract.csv"
    write_csv(out, header, blocks)
    got = out.read_bytes().decode("utf-8").split("\n")
    expected = _contract_lines(header, blocks)
    assert got[-1] == "" and len(got) == len(expected) + 1
    # the first few mismatches, not a diff of the whole file
    assert [(k, line, want) for k, (line, want) in enumerate(
        zip(got, expected)) if line != want][:3] == []
    assert got[1].startswith("nan,")
    assert got[1 + first.size].startswith("0.14999999999999999,-0,")


def test_text_columns_and_trailing_comments(tmp_path):
    out = tmp_path / "crossings.csv"
    write_csv(out, ["tag", "parameter", "value", "direction"],
              [((0.5,), (["f_rad_per_s", "f_hz"], [6.283185307179586, 1.0],
                         ["pos->neg", "pos->neg"])),
               ((0.25,), ([], [], []))],
              trailing_comments=["max_rel_dev=1e-15"])
    assert out.read_text() == ("tag,parameter,value,direction\n"
                               "0.5,f_rad_per_s,6.2831853071795862,pos->neg\n"
                               "0.5,f_hz,1,pos->neg\n"
                               "# max_rel_dev=1e-15\n")


def test_a_block_that_raises_leaves_no_file(tmp_path):
    out = tmp_path / "x.csv"

    def blocks():
        # more than one chunk is on disk before the second block raises
        yield (), (np.arange(2.0 * CHUNK_ROWS + 3),)
        raise RuntimeError("second curve failed")

    with pytest.raises(RuntimeError, match="second curve failed"):
        write_csv(out, ["x"], blocks())
    assert list(tmp_path.iterdir()) == []   # neither the CSV nor a temporary

    out.write_text("earlier run\n")
    with pytest.raises(RuntimeError, match="second curve failed"):
        write_csv(out, ["x"], blocks())
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "earlier run\n"
