"""The text ``'%.17g' %`` gives each float64 of a row block, computed in NumPy.

Python prints a double x with %.17g from D, its 17 significant digits
(10**16 <= D < 10**17), and its decimal exponent e, where D is the exact
binary value of |x| * 10**(16 - e) rounded half to even.  Here, for |x| in
[_LO, _HI]:

- e starts as floor(log10|x|), which may be off by one next to a power of ten;
- s = |x| * 10**(16 - e) is formed in double-double arithmetic: 10**k is held
  as its correctly rounded double plus its residual, rounded, both from exact
  integer ratios, and Dekker's TwoProduct gives |x| times that double
  exactly, so s is known to within about 1e-14, a bound that holds because
  every power, residual and partial product stays a normal double;
- e is corrected from that unrounded s (s < 10**16 or s >= 10**17 moves it by
  one and s is formed again); correcting it from the rounded D would print
  values just below a power of ten, such as nextafter(1e37, 0), as that power;
- D is s rounded to the nearest integer, and D = 10**17 carries into e.

So D is exact whenever the fraction of s lies farther than _TIE from 1/2.
A zero is printed as 1.0 with its digit cleared ('0' or '-0').  Each other
cell the argument does not cover (a non-finite value, |x| outside [_LO, _HI],
a fraction within _TIE of 1/2, which takes in exact ties such as 2.0**-25)
is formatted by ``'%.17g' %`` itself.

The text of a cell is assembled in a fixed-width byte row (see ``_masks``)
from 4-digit lookup words, then compacted by a keep mask chosen by e, the
trailing zeros of D and the sign.
"""

from __future__ import annotations

import numpy as np

_LO, _HI = 1e-280, 1e280
_TIE = 1e-6
_PASS_CELLS = 2048  # cells formatted per pass; the buffers hold about 250 bytes per cell
_E_MIN, _E_MAX = -281, 281  # exponents reachable from [_LO, _HI] after the correction
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting factor

# Byte row of a cell.  C is '000' and the 17 digits of D (C[3 + j] is digit
# j); the integer part is read from the first copy of C and the fraction from
# the second, so the decimal point never moves.
_SIGN, _INT, _POINT, _FRAC, _E, _EXP, _SEP, _WIDTH = 0, 1, 21, 22, 42, 43, 47, 48
_FORMS = 23  # fixed-point e = -4..16, then e-notation with |e| < 100 and >= 100
_FALLBACK_MASKS = _FORMS * 34  # masks of the '%.17g' % texts, by length


def _powers():
    """Dekker halves of 10**(16 - e) rounded to a double, and its rounded
    residual, for e = _E_MIN.._E_MAX."""
    top, residual = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        k = 16 - e
        if k >= 0:  # int to float and int / int round correctly
            n = 10**k
            top.append(float(n))
            residual.append(float(n - int(top[-1])))
        else:
            n = 10**-k
            top.append(1 / n)
            m, q = top[-1].as_integer_ratio()
            residual.append((q - m * n) / (q * n))
    power = np.array(top)
    big = power * _SPLIT
    top = big - (big - power)
    return top, power - top, np.array(residual)


def _words():
    """The four ASCII digits of each word 0000..9999, as one uint32."""
    w = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), dtype=np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        digits[:, place] = w // power % 10
    digits += ord("0")
    return digits.view(np.uint32)[:, 0]


def _trailing_zeros():
    """Trailing zero digits of each word 0000..9999 (4 for 0000)."""
    w = np.arange(10000, dtype=np.uint16)
    return sum((w % power == 0).view(np.uint8) for power in (10, 100, 1000, 10000))


def _exponents():
    """Sign, hundreds, tens and ones of each exponent, as one uint32."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    n = np.abs(e)
    digits = [n // 100, n // 10 % 10, n % 10]
    text = np.stack([np.where(e < 0, ord("-"), ord("+"))] + [d + ord("0") for d in digits], axis=1)
    return text.astype(np.uint8).view(np.uint32)[:, 0]


def _masks():
    """Keep masks of a cell row: row 34 * form + 2 * z + negative for each
    form, each count z of trailing zeros of D and each sign, then one row per
    length of a '%.17g' % text written at _INT."""
    form, z, negative = np.indices((_FORMS, 17, 2)).reshape(3, -1, 1)
    e = np.where(form < 21, form - 4, 0)
    first, end = 4 + e, 20 - z  # the fraction is C[first:end]
    fraction = first < end
    column = np.arange(_WIDTH)
    at = column - _INT  # index into the first copy of C
    keep = (column == _SIGN) & (negative == 1)
    keep |= np.where(e < 0, at == 2, (at >= 3) & (at < 4 + e))
    keep |= fraction & ((column == _POINT) | ((column >= _FRAC + first) & (column < _FRAC + end)))
    keep |= (form >= 21) & (column >= _E) & (column < _SEP) & ((column != _EXP + 1) | (form == 22))
    keep |= column == _SEP
    length = np.arange(_SEP - _INT + 1)[:, None]
    fallback = ((at >= 0) & (at < length)) | (column == _SEP)
    return np.concatenate([keep, fallback])


def _form_masks():
    """The first row of ``_masks`` of each exponent _E_MIN.._E_MAX."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    return 34 * np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))


_POWER_TOP, _POWER_BOTTOM, _POWER_RESIDUAL = _powers()
_WORDS = _words()
_TRAILING_ZEROS = _trailing_zeros()
_EXPONENT_TEXT = _exponents()
_MASKS = _masks()
_FORM_MASKS = _form_masks()


def _scaled(a, row, out):
    """h, l = out[:2] with h + l = a * 10**(16 - e) within about 1e-14 and
    |l| <= ulp(h) / 2, for e = row + _E_MIN; out[2:] is scratch."""
    h, l, top, bottom, a_top, t = out
    np.take(_POWER_TOP, row, out=top)
    np.take(_POWER_BOTTOM, row, out=bottom)
    np.add(top, bottom, out=h)
    h *= a  # TwoProduct: h + t = a * (top + bottom) exactly
    np.multiply(a, _SPLIT, out=a_top)
    np.subtract(a_top, a, out=l)
    a_top -= l
    np.subtract(a, a_top, out=l)  # a's low half
    np.multiply(a_top, top, out=t)
    t -= h
    a_top *= bottom
    t += a_top
    top *= l
    t += top
    l *= bottom
    t += l
    np.take(_POWER_RESIDUAL, row, out=top)
    top *= a
    t += top
    np.add(h, t, out=top)  # Fast2Sum
    np.subtract(top, h, out=h)
    np.subtract(t, h, out=l)
    h[...] = top
    return h, l


def _digits(h, l, work):
    """D from h + l (10**16 <= h + l <= 10**17) as int64, and where the
    fraction of h + l lies within _TIE of 1/2."""
    whole, fraction = work
    np.floor(l, out=whole)
    np.subtract(l, whole, out=fraction)
    whole += fraction > 0.5
    fraction -= 0.5
    digits = h.astype(np.int64)
    digits += whole.astype(np.int64)
    return digits, np.abs(fraction, out=fraction) < _TIE


def _words_of(digits):
    """The five 4-digit words of D, most significant first (the first is D's
    leading digit)."""
    words = np.empty((len(digits), 5), dtype=np.intp)
    upper = digits // 10**8
    lower = digits - upper * 10**8
    head = upper // 10**4
    words[:, 0] = head // 10**4
    words[:, 1] = head - words[:, 0] * 10**4
    words[:, 2] = upper - head * 10**4
    words[:, 3] = lower // 10**4
    words[:, 4] = lower - words[:, 3] * 10**4
    return words


def blocks(parts):
    """Yield, block by block (about _PASS_CELLS cells), the bytes
    ``np.savetxt(fmt="%.17g", delimiter=",")`` writes for the rows of the
    2-D float64 arrays ``parts`` laid side by side, as uint8 arrays."""
    columns = sum(part.shape[1] for part in parts)
    block_rows = max(1, _PASS_CELLS // columns)
    size = block_rows * columns
    text = np.zeros((block_rows, columns, _WIDTH), dtype=np.uint8)
    text[..., _SEP] = ord(",")
    text[:, -1, _SEP] = ord("\n")
    text = text.reshape(size, _WIDTH)
    text[:, _SIGN] = ord("-")
    text[:, _E] = ord("e")
    keep = np.empty(text.shape, dtype=bool)
    cells = np.empty((block_rows, columns))
    floats = np.empty((7, size))
    row = np.empty(size, dtype=np.intp)
    for start in range(0, len(parts[0]), block_rows):
        pieces = [part[start : start + block_rows] for part in parts]
        x = np.concatenate(pieces, axis=1, out=cells[: len(pieces[0])]).ravel()
        n = x.size
        a, log = floats[:2, :n]
        row_ = row[:n]
        np.abs(x, out=a)
        zero = a == 0
        fallback = ~((a >= _LO) & (a <= _HI) | zero)
        a[fallback | zero] = 1.0
        np.log10(a, out=log)
        np.floor(log, out=log)
        log -= _E_MIN
        np.copyto(row_, log, casting="unsafe")
        h, l = _scaled(a, row_, floats[1:, :n])
        moved = np.flatnonzero((h <= 1e16) | (h >= 1e17))
        if moved.size:  # move e where h + l < 10**16 or h + l >= 10**17
            hm, lm = h[moved], l[moved]
            row_[moved] += ((hm > 1e17) | ((hm == 1e17) & (lm >= 0))).astype(np.intp)
            row_[moved] -= (hm < 1e16) | ((hm == 1e16) & (lm < 0))
            h[moved], l[moved] = _scaled(a[moved], row_[moved], np.empty((6, moved.size)))
        digits, tie = _digits(h, l, floats[3:5, :n])
        fallback |= tie
        carry = np.flatnonzero(digits == 10**17)
        digits[carry] = 10**16
        row_[carry] += 1
        words = _words_of(digits)
        chars = np.take(_WORDS, words).view(np.uint8)
        block = text[:n]
        block[:, _INT : _INT + 20] = block[:, _FRAC : _FRAC + 20] = chars
        block[:, _POINT] = ord(".")
        block[zero, _INT + 3] = ord("0")  # a zero is printed as 1.0 with its digit cleared
        block[:, _EXP : _EXP + 4] = np.take(_EXPONENT_TEXT, row_).view(np.uint8).reshape(n, 4)
        trailing = np.take(_TRAILING_ZEROS, words[:, 4])
        long = np.flatnonzero(trailing == 4)
        trailing[long] = np.argmax(chars[long, :2:-1] != ord("0"), axis=1)
        index = np.take(_FORM_MASKS, row_)
        index += 2 * trailing
        index += np.signbit(x)
        for i in np.flatnonzero(fallback).tolist():
            cell = b"%.17g" % x[i]
            block[i, _INT : _INT + len(cell)] = np.frombuffer(cell, dtype=np.uint8)
            index[i] = _FALLBACK_MASKS + len(cell)
        np.take(_MASKS, index, axis=0, out=keep[:n], mode="clip")
        yield block[keep[:n]]
