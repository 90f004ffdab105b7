"""Reference semantics of the pure i32 operations at any width, written
independently of `crow.ir.SEMANTICS`: operands are read as signed or
unsigned integers, the result is computed on unbounded Python ints, and
only then wrapped to the width. Shifts are multiplications and floor
divisions by powers of two, and rotations move the digits of the binary
spelling.
"""


def to_unsigned(v: int, w: int) -> int:
    return v % (1 << w)


def to_signed(v: int, w: int) -> int:
    u = to_unsigned(v, w)
    return u - (1 << w) if u >= 1 << (w - 1) else u


def _rotate_left(a: int, n: int, w: int) -> int:
    bits = format(a, f"0{w}b")
    return int(bits[n:] + bits[:n], 2)


_SPEC = {
    "add": lambda a, b, w: a + b,
    "sub": lambda a, b, w: a - b,
    "mul": lambda a, b, w: a * b,
    "and": lambda a, b, w: a & b,
    "or": lambda a, b, w: a | b,
    "xor": lambda a, b, w: a ^ b,
    "shl": lambda a, b, w: a * 2 ** (b % w),
    "shr_s": lambda a, b, w: to_signed(a, w) // 2 ** (b % w),
    "shr_u": lambda a, b, w: a // 2 ** (b % w),
    "rotl": lambda a, b, w: _rotate_left(a, b % w, w),
    "rotr": lambda a, b, w: _rotate_left(a, (w - b % w) % w, w),
    "eq": lambda a, b, w: a == b,
    "ne": lambda a, b, w: a != b,
    "lt_s": lambda a, b, w: to_signed(a, w) < to_signed(b, w),
    "lt_u": lambda a, b, w: a < b,
    "gt_s": lambda a, b, w: to_signed(a, w) > to_signed(b, w),
    "gt_u": lambda a, b, w: a > b,
    "le_s": lambda a, b, w: to_signed(a, w) <= to_signed(b, w),
    "le_u": lambda a, b, w: a <= b,
    "ge_s": lambda a, b, w: to_signed(a, w) >= to_signed(b, w),
    "ge_u": lambda a, b, w: a >= b,
    "eqz": lambda a, w: a == 0,
    "select": lambda a, b, c, w: a if c != 0 else b,
}

OPS = tuple(_SPEC)


def spec(op: str, operands, w: int) -> int:
    """The unsigned width-w result of `op` on operands of any sign."""
    return to_unsigned(int(_SPEC[op](*(to_unsigned(v, w) for v in operands), w)), w)


def corner_values(w: int) -> list[int]:
    """Unsigned width-w values at the edges of the signed and unsigned
    ranges, and around the shift-count modulus."""
    top = 1 << (w - 1)
    vals = {0, 1, 2, 3, top - 1, top, top + 1, (1 << w) - 2, (1 << w) - 1, w - 1, w, w + 1}
    return sorted(to_unsigned(v, w) for v in vals)
