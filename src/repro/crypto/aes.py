"""Pure-Python AES-128 block cipher (FIPS-197).

The SecDDR paper assumes dedicated AES engines on the processor and in the
ECC chip(s) for generating one-time pads (OTPs) and MACs.  This module
provides a bit-accurate software implementation so the functional model can
produce and verify real E-MACs, OTPs, and XTS ciphertexts.

The state is four 32-bit column words and every full round is a T-table
round (Daemen & Rijmen, *The Design of Rijndael*, section 4.2): sixteen
table lookups and XORs.  The final round is S-box only.  Decryption is the
equivalent inverse cipher, with InvMixColumns folded into round keys 1-9.
Each key's encryption and decryption schedules are expanded once and
memoized, because the functional model builds many ciphers over few keys.
None of this runs on the timing-simulation hot path.
"""

from __future__ import annotations

import functools
import struct
from typing import List, Tuple

__all__ = ["AES128"]

# The AES S-box (FIPS-197, Figure 7).
_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

# Inverse S-box.
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

# Round constants for key expansion.
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _rotations(column: List[int]) -> Tuple[List[int], List[int], List[int], List[int]]:
    """``column`` and its byte rotations right by 8, 16 and 24 bits."""
    return (
        column,
        [(w >> 8) | ((w & 0xFF) << 24) for w in column],
        [(w >> 16) | ((w & 0xFFFF) << 16) for w in column],
        [(w >> 24) | ((w & 0xFFFFFF) << 8) for w in column],
    )


def _build_tables() -> Tuple[Tuple[List[int], ...], Tuple[List[int], ...]]:
    """The four encryption and four decryption T-tables.

    ``Te0[x]`` is the MixColumns column ({02}, {01}, {01}, {03}) times
    ``S[x]``; ``Td0[x]`` is the InvMixColumns column ({0e}, {09}, {0d},
    {0b}) times ``InvS[x]``.  Tables 1-3 are byte rotations of table 0.
    """
    te0, td0 = [], []
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        te0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
        i = _INV_SBOX[x]
        i2 = _xtime(i)
        i4 = _xtime(i2)
        i8 = _xtime(i4)
        td0.append(((i8 ^ i4 ^ i2) << 24) | ((i8 ^ i) << 16) | ((i8 ^ i4 ^ i) << 8) | (i8 ^ i2 ^ i))
    return _rotations(te0), _rotations(td0)


(_TE0, _TE1, _TE2, _TE3), (_TD0, _TD1, _TD2, _TD3) = _build_tables()
_BLOCK = struct.Struct(">4I")

#: Distinct keys whose expanded schedules are kept.
_SCHEDULE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _schedules(key: bytes) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(encryption, decryption) round-key words of a 16-byte key, 44 each.

    The decryption schedule is the encryption schedule in reverse round
    order with InvMixColumns applied to rounds 1-9, as the equivalent
    inverse cipher requires.
    """
    words = list(_BLOCK.unpack(key))
    sbox = _SBOX
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            # RotWord, SubWord and Rcon.
            temp = (
                (sbox[(temp >> 16) & 0xFF] << 24) | (sbox[(temp >> 8) & 0xFF] << 16)
                | (sbox[temp & 0xFF] << 8) | sbox[temp >> 24]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    dec = list(words[40:44])
    for rnd in range(9, 0, -1):
        for w in words[4 * rnd : 4 * rnd + 4]:
            # Td[S[b]] is InvMixColumns of byte b in its row position.
            dec.append(
                _TD0[sbox[w >> 24]] ^ _TD1[sbox[(w >> 16) & 0xFF]]
                ^ _TD2[sbox[(w >> 8) & 0xFF]] ^ _TD3[sbox[w & 0xFF]]
            )
    dec.extend(words[0:4])
    return tuple(words), tuple(dec)


class AES128:
    """AES with a 128-bit key, operating on 16-byte blocks.

    Parameters
    ----------
    key:
        A 16-byte key.  Its round-key schedules are expanded once per
        distinct key and shared by every cipher built for that key.

    Examples
    --------
    >>> cipher = AES128(bytes(16))
    >>> ct = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(ct) == bytes(16)
    True
    """

    BLOCK_SIZE = 16
    KEY_SIZE = 16
    NUM_ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_SIZE:
            raise ValueError(
                "AES128 requires a 16-byte key, got %d bytes" % len(key)
            )
        self._key = bytes(key)
        self._enc_keys, self._dec_keys = _schedules(self._key)

    @property
    def key(self) -> bytes:
        """The raw 16-byte key this cipher was constructed with."""
        return self._key

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != self.BLOCK_SIZE:
            raise ValueError("plaintext block must be 16 bytes")
        rk = self._enc_keys
        t0, t1, t2, t3 = _TE0, _TE1, _TE2, _TE3
        s0, s1, s2, s3 = _BLOCK.unpack(plaintext)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for i in range(4, 40, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[i],
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[i + 1],
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[i + 2],
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[i + 3],
            )
        s = _SBOX
        return _BLOCK.pack(
            ((s[s0 >> 24] << 24) | (s[(s1 >> 16) & 0xFF] << 16) | (s[(s2 >> 8) & 0xFF] << 8) | s[s3 & 0xFF])
            ^ rk[40],
            ((s[s1 >> 24] << 24) | (s[(s2 >> 16) & 0xFF] << 16) | (s[(s3 >> 8) & 0xFF] << 8) | s[s0 & 0xFF])
            ^ rk[41],
            ((s[s2 >> 24] << 24) | (s[(s3 >> 16) & 0xFF] << 16) | (s[(s0 >> 8) & 0xFF] << 8) | s[s1 & 0xFF])
            ^ rk[42],
            ((s[s3 >> 24] << 24) | (s[(s0 >> 16) & 0xFF] << 16) | (s[(s1 >> 8) & 0xFF] << 8) | s[s2 & 0xFF])
            ^ rk[43],
        )

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != self.BLOCK_SIZE:
            raise ValueError("ciphertext block must be 16 bytes")
        rk = self._dec_keys
        t0, t1, t2, t3 = _TD0, _TD1, _TD2, _TD3
        s0, s1, s2, s3 = _BLOCK.unpack(ciphertext)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for i in range(4, 40, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[i],
                t0[s1 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[i + 1],
                t0[s2 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[i + 2],
                t0[s3 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[i + 3],
            )
        s = _INV_SBOX
        return _BLOCK.pack(
            ((s[s0 >> 24] << 24) | (s[(s3 >> 16) & 0xFF] << 16) | (s[(s2 >> 8) & 0xFF] << 8) | s[s1 & 0xFF])
            ^ rk[40],
            ((s[s1 >> 24] << 24) | (s[(s0 >> 16) & 0xFF] << 16) | (s[(s3 >> 8) & 0xFF] << 8) | s[s2 & 0xFF])
            ^ rk[41],
            ((s[s2 >> 24] << 24) | (s[(s1 >> 16) & 0xFF] << 16) | (s[(s0 >> 8) & 0xFF] << 8) | s[s3 & 0xFF])
            ^ rk[42],
            ((s[s3 >> 24] << 24) | (s[(s2 >> 16) & 0xFF] << 16) | (s[(s1 >> 8) & 0xFF] << 8) | s[s0 & 0xFF])
            ^ rk[43],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "AES128(key=%s...)" % self._key[:4].hex()
