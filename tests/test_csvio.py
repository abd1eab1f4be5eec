import numpy as np
import pytest

from magnomech.csvio import CHUNK_ROWS, _format_values, fmt, write_csv


def _contract_lines(header, blocks):
    """The byte contract, cell by cell: tags as fmt formats them, then
    every numeric cell at 17 significant digits."""
    lines = [",".join(header)]
    for tags, columns in blocks:
        for row in zip(*columns):
            lines.append(",".join([fmt(t) for t in tags] +
                                  [format(float(x), ".17g") for x in row]))
    return lines


def _trailing_zeros(x):
    """Trailing zeros among the 17 significant digits of ``x``."""
    digits = format(abs(x), ".16e")[:18].replace(".", "")
    return len(digits) - len(digits.rstrip("0"))


def _trailing_zero_pins():
    """One positive value per count t = 0..16 of trailing zero digits, at
    exponent 0 (fixed notation) and at exponent -8 (scientific)."""
    # 1 + 2**-s = (10**s + 5**s) / 10**s has exactly s + 1 digits
    fixed = [1.0 + 2.0 ** (t - 16) for t in range(17)]
    # the double nearest a (17 - t)-digit decimal prints it back only when
    # it lies within half a unit of the 17th digit: take the first last
    # digit for which it does
    scientific = []
    for t in range(17):
        lead = ("1" + "2" * (15 - t))[:16 - t]
        candidates = (float(f"{lead}{d}e{t - 24}") for d in "123456789")
        scientific.append(next(x for x in candidates
                               if _trailing_zeros(x) == t))
    return np.array(fixed + scientific)


def test_block_lines_match_the_per_cell_contract(tmp_path):
    rng = np.random.default_rng(20260418)
    n = 2 * CHUNK_ROWS + 100      # the first block spans three chunks
    # every binary exponent of a double, subnormals included, both signs
    finite = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1024, n))
    finite *= rng.choice([-1.0, 1.0], n)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                        1.7976931348623157e308, 2.2250738585072014e-308, 1.0,
                        0.1, 1e16, 123456789012345678.0])
    # every 4-digit group boundary of the trailing-zero count, both signs
    pins = _trailing_zero_pins()
    assert [_trailing_zeros(x) for x in pins] == 2 * list(range(17))
    first = np.concatenate([special, pins, -pins, finite])
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


def _written_cells(tmp_path, values):
    """The cells write_csv gives one column of ``values``."""
    out = tmp_path / "cells.csv"
    write_csv(out, ["x"], [((), (np.asarray(values, dtype=float),))])
    return out.read_text().split("\n")[1:-1]


def test_decimal_ties_round_half_to_even(tmp_path):
    # both values are exactly halfway between two 17-digit decimals
    ties = [(2 ** 53 - 1) / 4, 2251799813685246.25]
    assert _written_cells(tmp_path, ties) == ["2251799813685247.8",
                                              "2251799813685246.2"]


def test_powers_of_ten_and_their_neighbours(tmp_path):
    powers = 10.0 ** np.arange(-300, 301)
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), -powers])
    assert _written_cells(tmp_path, values) == [
        format(x, ".17g") for x in values.tolist()]
    assert _written_cells(tmp_path, [1e-16, 1e-5]) == [
        "9.9999999999999998e-17", "1.0000000000000001e-05"]


def test_decade_edges_and_notation_boundaries(tmp_path):
    edges = np.array([99999999999999999.0, 9.9999999999999995e22,
                      1e-4, 1e-5, 1e16, 1e17])
    values = np.concatenate([edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf)])
    cells = _written_cells(tmp_path, values)
    assert cells == [format(x, ".17g") for x in values.tolist()]
    assert cells[:6] == ["1e+17", "9.9999999999999992e+22", "0.0001",
                         "1.0000000000000001e-05", "10000000000000000",
                         "1e+17"]
    # 1e-4 and 1e16 print in fixed notation, both neighbours of 1e-5 and
    # the upper neighbour of 1e16 in scientific
    assert cells[6 + 2] == "9.9999999999999991e-05"
    assert cells[12 + 4] == "10000000000000002"
    assert cells[6 + 3].endswith("e-06") and cells[12 + 3].endswith("e-05")


def test_special_values_never_take_the_per_cell_path():
    v = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                  1.7976931348623157e308, 0.1, -3.0])
    words = np.zeros((6, v.size), dtype=np.uint32)
    _, slow = _format_values(v, words)
    assert not slow.any()
    tie = np.array([(2 ** 53 - 1) / 4])
    assert _format_values(tie, words[:, :1])[1].all()


def test_tagged_text_and_float_columns_over_chunks(tmp_path):
    n = 2 * CHUNK_ROWS + 5
    rng = np.random.default_rng(7)
    names = np.array(["f_rad_per_s", "G_au_hz", "a", "pos->neg", "é"])[
        rng.integers(0, 5, n)]
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
    values[::97] = 0.0
    blocks = [((0.3, 1e-7), (names, values, np.arange(n))),
              ((-2.5, 1.0), (names[:3], values[:3], np.arange(3)))]
    out = tmp_path / "mixed.csv"
    write_csv(out, ["t1", "t2", "name", "value", "k"], blocks)
    expected = ["t1,t2,name,value,k"] + [
        f"{fmt(t1)},{fmt(t2)},{name},{format(x, '.17g')},{k}"
        for (t1, t2), (ns, xs, ks) in blocks
        for name, x, k in zip(ns.tolist(), xs.tolist(), ks.tolist())]
    assert out.read_bytes().decode("utf-8").split("\n") == expected + [""]
