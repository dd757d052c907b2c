"""Tutorial extension: the sumij family, registered through the public API.

sumij(m, n=m) has entries a_ij = i + j. It is symmetric and positive with
integer entries, and rank deficient (rank 2 for n >= 2, since every row is an
affine function of the column index). This module deliberately imports only
the package's public surface; it is the template for third-party families.

Usage:

    import tmat
    from tmat.sumij import install_sumij

    install_sumij()
    tmat.materialize(tmat.construct("sumij", n=5))
"""

from tmat import (
    RATIONAL64,
    FamilyDescriptor,
    ParameterError,
    ParamSpec,
    Rational64,
    add_to_groups,
    register_family,
)


def _sumij_element(params, i, j, kind):
    if kind == RATIONAL64:
        return Rational64(i + j)
    return float(i + j)


def _sumij_validate(params, kind):
    m = params.get("m")
    n = params.get("n")
    if m is None and n is None:
        raise ParameterError("sumij requires m or n")
    if m is None:
        m = n
    if n is None:
        n = m
    return {"m": m, "n": n}


# every entry is positive, and a 2 x 2 leading block has determinant -1
_SUMIJ_PREDICATES = {
    "symmetric": lambda h: h.rows == h.cols,
    "posdef": lambda h: h.rows == h.cols <= 1,
    "diagonal": lambda h: h.rows == 0 or h.cols == 0 or (h.rows <= 1 and h.cols <= 1),
}


def install_sumij() -> None:
    """Register sumij and add it to the user group."""
    register_family(
        FamilyDescriptor(
            id="sumij",
            params=(ParamSpec("m", "dim", None), ParamSpec("n", "dim", None)),
            default_scalar_kind=RATIONAL64,
            tags=("symmetric", "integer", "positive", "rankdef"),
        ),
        _sumij_element,
        dims_fn=lambda p: (p["m"], p["n"]),
        validate_fn=_sumij_validate,
        predicates=_SUMIJ_PREDICATES,
    )
    add_to_groups("sumij", "user")
