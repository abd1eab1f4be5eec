"""Deterministic CSV output: every numeric cell as ``%.17g``, byte-exact.

``write_csv`` formats a chunk of rows in one numpy pass and checks each
result before it trusts it (the method of Grisu3 and Ryu printf).  For a
finite nonzero ``x`` it takes ``k = floor(log10|x|)`` and forms
``|x| * 10**(16 - k)`` as a double-double: a table of ``10**j`` split into
two doubles, built with exact integer arithmetic, and Dekker's exact
product.  Its absolute error is below 1e-14, so the nearest integer ``N``
holds the 17 significant digits wherever the value lies in [1e16, 1e17)
and more than 1e-6 from a rounding tie.  Python's own ``'%.17g'`` formats
the few cells that fail that test: decimal ties, a ``k`` that ``log10``
put one off, a round-up into the next decade.

Every cell -- digits, exponent, ``0``/``nan``/``inf``, text, tags and the
slow-path strings -- is then one fixed-width byte row, and a gather
through a table of ``%g`` layouts, keyed by sign, exponent form and
significant-digit count, lays out the chunk, 256 rows per gather.
"""

from __future__ import annotations

import functools
import os

import numpy as np

CHUNK_ROWS = 1024   # rows per formatting pass: bounds the memory
_GATHER_ROWS = 256  # rows per gather and write: 8 index bytes per output byte

# Byte positions in a cell's source row.  It starts with six uint32
# groups of four ASCII digits: "000" and d0, then d1..d16, then the
# exponent's magnitude.  Positions 34 and 35 are never written: NUL.
_D0, _EXP, _SEP, _NUL, _TEXT = 3, 20, 24, 35, 36
_CONST_AT, _CONST_BYTES = 25, b"-.0enaif+"                  # 25..33
_CONST = {chr(c): _CONST_AT + i for i, c in enumerate(_CONST_BYTES)}
_MIN_TEXT = 24      # text, tag and slow-path field: fits any '%.17g'

# Layout keys.  A regular value's key is (sign * _FORMS + form) * 17 +
# digits - 1.  Forms 0..20 are fixed notation for exponents -4..16;
# 21..24 are scientific with exponent e+XX, e+XXX, e-XX and e-XXX.
_FORMS = 25
_ZERO = 2 * _FORMS * 17        # '0', then '-0', 'nan', 'inf', '-inf', text
_NAN, _INF, _TEXT_KEY = _ZERO + 2, _ZERO + 3, _ZERO + 5

# 10**j for every j = 16 - k a finite double can need, k one off included
_J_MIN, _J_MAX = -300, 350
_K_MIN = 16 - _J_MAX
_SPLIT = 134217729.0   # 2**27 + 1, Dekker's splitting constant


def fmt(value) -> str:
    """Render one tag or note value at 17 significant digits."""
    return format(float(value), ".17g")


def _layout(key: int) -> list[int]:
    """Source-row positions of one layout key's bytes, separator last."""
    c = _CONST
    if key >= _ZERO:
        return [[c["0"]], [c["-"], c["0"]], [c["n"], c["a"], c["n"]],
                [c["i"], c["n"], c["f"]], [c["-"], c["i"], c["n"], c["f"]]
                ][key - _ZERO] + [_SEP]
    digits = list(range(_D0, _D0 + 17))
    rest, n = divmod(key, 17)
    neg, form = divmod(rest, _FORMS)
    n += 1
    out = [c["-"]] if neg else []
    if form > 20:      # d.ddde+XX
        out += digits[:1] + ([c["."]] + digits[1:n] if n > 1 else [])
        out += [c["e"], c["+" if form < 23 else "-"]]
        out += range(_EXP + 1 + form % 2, _EXP + 4)
    elif form >= 4:    # ddd.ddd: exponent form - 4 >= 0
        whole = form - 3
        out += digits[:whole] + ([c["."]] + digits[whole:n]
                                 if n > whole else [])
    else:              # 0.000ddd: exponent form - 4 < 0
        out += [c["0"], c["."]] + [c["0"]] * (3 - form) + digits[:n]
    return out + [_SEP]


@functools.lru_cache(maxsize=None)
def _layouts(width: int, ncols: int) -> np.ndarray:
    """Gather offsets of every layout key's bytes, padded with the NUL
    position to ``width + 1`` columns, for a text field ``width`` bytes
    wide and word-major cells, ``ncols * CHUNK_ROWS`` cells per word."""
    table = np.full((_TEXT_KEY + 1, width + 1), _NUL, dtype=np.intp)
    for key in range(_TEXT_KEY):
        row = _layout(key)
        table[key, :len(row)] = row
    table[_TEXT_KEY] = [*range(_TEXT, _TEXT + width), _SEP]
    return table // 4 * (4 * ncols * CHUNK_ROWS) + table % 4


@functools.lru_cache(maxsize=None)
def _tables():
    """Per ``j``: ``10**j = (hi + lo) * 2**e`` with ``hi`` near [0.5, 1),
    ``hi`` split in halves for Dekker's product, and ``2**e`` as two
    factors that cannot overflow.  Per exponent ``k``: the layout key of
    its form at 17 digits.  Per group of four digits: its ASCII bytes as
    one uint32 and its count of trailing zeros.  Exact integer arithmetic
    only (``int / int`` is correctly rounded)."""
    hi, lo, exp = [], [], []
    for j in range(_J_MIN, _J_MAX + 1):
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        e = num.bit_length() - den.bit_length()
        if num << max(0, -e) >= den << max(0, e):
            e += 1
        num, den = num << max(0, -e), den << max(0, e)   # num/den in [0.5, 1)
        h = num / den
        hi.append(h)
        lo.append((num * 2 ** 53 - int(h * 2 ** 53) * den) / (den * 2 ** 53))
        exp.append(e)
    hi, exp = np.array(hi), np.array(exp)
    t = hi * _SPLIT
    hi_hi = t - (t - hi)
    ascii = (48 + np.arange(10000, dtype=np.int16)[:, None]
             // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
             ).astype(np.uint8)
    quads = ascii.view(np.uint32)[:, 0].copy()
    zeros = np.cumprod(ascii[:, ::-1] == 48, axis=1, dtype=np.uint8).sum(
        axis=1, dtype=np.uint8)
    k = np.arange(_K_MIN, 17 - _J_MIN)
    form = np.where((k >= -4) & (k <= 16), k + 4,
                    21 + (np.abs(k) >= 100) + 2 * (k < 0))
    return (np.ldexp(1.0, exp // 2), np.ldexp(1.0, exp - exp // 2), hi,
            hi_hi, hi - hi_hi, np.array(lo), form * 17 + 16, quads, zeros)


def _digits(a: np.ndarray):
    """The 17 significant digits of every positive finite ``a``, as an
    integer ``n`` in [1e16, 1e17), its decimal exponent ``k``, and the
    mask of values whose ``n`` the error bound proves."""
    scale1, scale2, hi, hi_hi, hi_lo, lo = _tables()[:6]
    k = np.floor(np.log10(a)).astype(np.intp)
    j = 16 - _J_MIN - k
    # a * 10**(16 - k) = x * (hi + lo), x = a * 2**e exact, about 1e16
    x = a * np.take(scale1, j) * np.take(scale2, j)
    t = x * _SPLIT
    x_hi = t - (t - x)
    x_lo = x - x_hi
    h1, h2 = np.take(hi_hi, j), np.take(hi_lo, j)
    p = x * np.take(hi, j)    # p + err = x * hi exactly; p is an integer
    err = ((x_hi * h1 - p) + x_hi * h2 + x_lo * h1) + x_lo * h2
    rest = err + x * np.take(lo, j)     # absolute error below 1e-14
    whole = np.floor(rest)
    frac = rest - whole
    n = p.astype(np.int64) + whole.astype(np.int64)     # floor of the value
    ok = (np.abs(frac - 0.5) > 1e-6) & (n >= 10 ** 16)
    n += frac > 0.5
    ok &= n < 10 ** 17
    n[~ok] = 10 ** 16
    return n, k, ok


def _format_values(v: np.ndarray, words: np.ndarray):
    """Write the digit and exponent words of every value of ``v`` into
    ``words[:6]`` (shape ``(words,) + v.shape``); return the layout keys
    and the mask of finite nonzero values whose digits the error bound
    does not prove."""
    form_key, quads, zeros = _tables()[6:]
    regular = np.isfinite(v) & (v != 0.0)
    n, k, ok = _digits(np.where(regular, np.abs(v), 1.0))
    ok &= regular

    # six groups of four digits: d0, d1..d16 in four, the exponent's size;
    # below 1e9 the floats are exact and 1e-8, 1e-4 round up, so floor
    # of a product is the integer quotient
    top = n // 10 ** 8
    groups = np.empty((6,) + v.shape)
    groups[0] = np.floor(top * 1e-8)
    eights = np.stack([top - groups[0] * 1e8, n - top * 10 ** 8])
    groups[1:5:2] = np.floor(eights * 1e-4)
    groups[2:5:2] = eights - groups[1:5:2] * 1e4
    groups[5] = np.abs(k)
    index = groups.astype(np.intp)
    words[:6] = np.take(quads, index)
    run = np.zeros(v.shape, dtype=np.uint8)   # trailing zeros of d1..d16
    for tz in np.take(zeros, index[1:5]):
        run = tz + (tz == 4) * run
    key = np.take(form_key, k - _K_MIN) - run + np.signbit(v) * (_FORMS * 17)
    odd = ~regular
    if odd.any():
        w = v[odd]
        key[odd] = np.where(np.isnan(w), _NAN,
                            _ZERO + np.signbit(w) + 3 * np.isinf(w))
    return key, regular & ~ok


def _block_bytes(tags, columns):
    """Yield the CSV bytes of one ``(tags, columns)`` block chunk by
    chunk.  Every cell is a row of uint32 words, stored word-major so
    that each word of all cells is one contiguous plane; tags and text
    columns are NUL-padded byte fields of the same rows."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    if not rows:
        return
    cells = [np.array([fmt(t)]) for t in tags] + columns
    for c in columns:
        if c.dtype.kind == "c":
            raise TypeError("complex column: write its real and "
                            "imaginary parts as two columns")
    text = {i: np.char.encode(c, "utf-8") if c.dtype.kind == "U" else c
            for i, c in enumerate(cells) if c.dtype.kind in "US"}
    width = max([_MIN_TEXT] + [c.itemsize for c in text.values()])
    width += -width % 4                     # whole words
    ncols, chunk = len(cells), min(rows, CHUNK_ROWS)
    # planes of CHUNK_ROWS cells per column, so that the layout offsets
    # depend on the column count only; the rows past ``chunk`` stay unused
    src = np.zeros(((_TEXT + width) // 4, ncols, CHUNK_ROWS), dtype=np.uint32)
    tail = np.zeros((ncols, 12), dtype=np.uint8)     # bytes _SEP..35
    tail[:, 0] = ord(",")
    tail[-1, 0] = ord("\n")
    tail[:, 1:1 + len(_CONST_BYTES)] = np.frombuffer(_CONST_BYTES, np.uint8)
    src[_SEP // 4:_TEXT // 4, :, :chunk] = tail.view(np.uint32).T[:, :, None]
    text = {i: c.astype(f"S{width}").view(np.uint32).reshape(len(c), -1).T
            for i, c in text.items()}
    for i in range(len(tags)):
        src[_TEXT // 4:, i, :chunk] = text.pop(i)
    fixed = list(range(len(tags))) + list(text)
    numeric = [i for i in range(ncols) if i not in fixed]
    lo, hi = (numeric[0], numeric[-1] + 1) if numeric else (0, 0)
    layouts = _layouts(width, ncols)
    base = 4 * np.arange(ncols * CHUNK_ROWS).reshape(ncols, -1)[:, :chunk].T
    keys = np.full((ncols, chunk), _TEXT_KEY)
    values = np.zeros((hi - lo, chunk))
    flat = src.view(np.uint8).reshape(-1)
    for start in range(0, rows, CHUNK_ROWS):
        m = min(CHUNK_ROWS, rows - start)
        for i in numeric:
            values[i - lo, :m] = cells[i][start:start + m]
        for i, c in text.items():
            src[_TEXT // 4:, i, :m] = c[:, start:start + m]
        v = values[:, :m]
        key, slow = _format_values(v, src[:, lo:hi, :m])
        keys[lo:hi, :m] = key
        keys[fixed] = _TEXT_KEY
        if slow.any():
            where = np.nonzero(slow)
            strings = np.array([b"%.17g" % x for x in v[where].tolist()],
                               dtype=f"S{width}")
            src[_TEXT // 4:, lo + where[0], where[1]] = strings.view(
                np.uint32).reshape(len(strings), -1).T
            keys[lo + where[0], where[1]] = _TEXT_KEY
        for r in range(0, m, _GATHER_ROWS):
            part = slice(r, min(r + _GATHER_ROWS, m))
            index = np.take(layouts, keys[:, part].T, axis=0)
            index += base[part, :, None]
            out = np.take(flat, index)
            yield out[out != 0].tobytes()


def write_csv(path, header, blocks, trailing_comments=()) -> None:
    """Write a header line, every ``(tags, columns)`` block and ``# ``
    comment lines, each ending in '\\n'.  A block's tags, formatted with
    ``fmt``, prefix its lines; each of its cells is ``%.17g`` of the value
    (text cells as they are; integer columns as float64, exact below
    2**53).  Each chunk of lines goes to a temporary file beside ``path``
    as soon as it is formatted; the file replaces ``path`` once every
    block is written, so a block that raises leaves neither file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for tags, columns in blocks:
                fh.writelines(_block_bytes(tags, columns))
            fh.write("".join(f"# {comment}\n" for comment in
                             trailing_comments).encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
