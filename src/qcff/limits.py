"""Resource limits on input, checked where input enters: config parsing,
polynomial text and the CLI. A value past a limit is a ConfigError (exit 2).
field_create and Poly themselves take any size."""

# Largest field size: field_create builds exp/log tables of q entries, and
# `qcff factor` trial-divides q up to its square root.
MAX_Q = 2 ** 16

# Largest degree of an input polynomial, and of the product of a claimed
# factorization: it bounds the coefficient lists that input can make us
# allocate. It is not a time limit.
MAX_DEGREE = 2 ** 14
