"""modchar: exact modular characteristic classes for representations
over finite fields, with two independent computation paths that
cross-validate each other.

The package holds only the version and is_prime, so `import modchar`
loads no computing layer; import the modules by name."""

__version__ = "0.1.0"


# The one primality test: the CLI's input checks call it without loading
# ff, and ff imports it from here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
