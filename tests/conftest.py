"""Shared helpers for building random code instances."""

from tgoppa import CodeSpec, Poly, RejectionCapError, experiment


def digits_to_int(digits, q):
    """The encoding of base-q digits, least significant first."""
    return sum(d * q**i for i, d in enumerate(digits))


def random_poly_nonvanishing(rng, field, t, points, max_attempts=20_000):
    """Random degree-t polynomial with no root among the given points."""
    for _ in range(max_attempts):
        coeffs = [rng.randrange(field.order) for _ in range(t)]
        coeffs.append(rng.randrange(1, field.order))
        g = Poly(field, coeffs)
        if all(g(a) != 0 for a in points):
            return g
    raise RuntimeError(f"no degree-{t} polynomial avoids {len(points)} points")


def random_code_spec(rng, fields, max_n=12, t_choices=(1, 2, 3), eta_mode="mixed"):
    """A random valid CodeSpec, deterministic in the rng state.

    eta_mode: "zero", "nonzero", or "mixed" (uniform over the field).
    """
    field = fields[rng.randrange(len(fields))]
    while True:
        n = rng.randrange(1, min(max_n, field.order) + 1)
        t = t_choices[rng.randrange(len(t_choices))]
        if t == 1 and n >= field.order:
            continue  # a linear polynomial always has its root in the field
        break
    support = rng.sample(range(field.order), n)
    g = random_poly_nonvanishing(rng, field, t, support)
    if eta_mode == "zero":
        eta = 0
    elif eta_mode == "nonzero":
        eta = rng.randrange(1, field.order)
    else:
        eta = rng.randrange(field.order)
    return CodeSpec(field, support, g, eta)


def sampler_failing_at_degree(t_bad):
    """experiment.random_root_free_poly, except that degree t_bad always hits the cap."""
    sample = experiment.random_root_free_poly

    def random_root_free_poly(field, t, rng):
        if t == t_bad:
            raise RejectionCapError("injected")
        return sample(field, t, rng)

    return random_root_free_poly
