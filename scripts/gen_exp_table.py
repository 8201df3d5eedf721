#!/usr/bin/env python3
"""Prints the 2^(k/128) table of common::math::exp (src/common/math.cpp).

  python3 scripts/gen_exp_table.py > src/common/exp_table.inc

For k = 0..127, with H[k] = RN(2^(k/128)) (the nearest double) and
T[k] = RN(2^(k/128) / H[k] - 1) (the relative error of H[k], so that
2^(k/128) ~= H[k] * (1 + T[k])), entry 2k is bits(T[k]) and entry 2k + 1 is
bits(H[k]) - (k << 45). Adding (ki << 45) to entry 2k + 1 for any ki with
ki % 128 == k then gives the bits of 2^(ki/128) rounded, exponent included.
This is the table of the exp algorithm in ARM's optimized-routines (also the
one in glibc since 2.28). Only the standard library is used: decimal at 60
digits, then the correctly rounded str -> float conversion.
"""

from decimal import Decimal, getcontext
import struct

N = 128


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def table():
    getcontext().prec = 60
    words = []
    for k in range(N):
        exact = Decimal(2) ** (Decimal(k) / N)
        h = float(exact)
        t = float(exact / Decimal(h) - 1)
        words.append(bits(t))
        words.append((bits(h) - (k << 45)) % (1 << 64))
    return words


def main():
    words = table()
    print("// Generated by scripts/gen_exp_table.py; do not edit.")
    for i in range(0, len(words), 2):
        print(f"0x{words[i]:016x}ULL, 0x{words[i + 1]:016x}ULL,")


if __name__ == "__main__":
    main()
