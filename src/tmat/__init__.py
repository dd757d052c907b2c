"""tmat: lazily generated test matrices with declared properties.

A catalog of classic parametrized matrix families whose entries are computed
on demand, with closed-form linear algebra dispatch, a fixed property
vocabulary plus audit engine, shareable family groups, a batch
algorithm-testing harness, and Matrix Market export. The `tm` console script
exposes the same functionality on the command line.
"""

from .core import (
    DenseMatrix,
    MatrixHandle,
    dense_footprint,
    dims,
    element,
    handle_footprint,
    materialize,
    vector_footprint,
)
from .errors import (
    BoundsError,
    ConvergenceError,
    DuplicateFamilyError,
    GroupError,
    HarnessError,
    MatrixMarketError,
    ParameterError,
    RationalOverflowError,
    SingularMatrixError,
    TmatError,
    UnknownFamilyError,
    UnknownPropertyError,
    UnsupportedOperationError,
)
from .families import (
    FamilyDescriptor,
    ParamSpec,
    construct,
    feasible_size,
    list_families,
    register_family,
)
from .scalars import FLOAT64, RATIONAL64, Rational64

from . import catalog as _catalog

_catalog.register_builtins()

from . import registry as _registry  # noqa: E402  (needs the catalog registered)

_registry._sync_builtin()

from .harness import HarnessRecord, test_algorithm  # noqa: E402
from .linalg import (  # noqa: E402
    cond1,
    determinant,
    eigvals,
    entry_sum,
    frobenius_norm,
    inverse,
    is_diagonal,
    is_posdef,
    is_symmetric,
    rank,
    solve,
    spectral_moduli,
)
from .mmio import export_array, export_coordinate, import_array  # noqa: E402
from .properties import (  # noqa: E402
    AuditFinding,
    AuditReport,
    audit,
    list_properties,
    parse_property,
    properties_of,
    render_audit,
)
from .registry import (  # noqa: E402
    GROUP_FILE_MAGIC,
    add_to_groups,
    list_groups,
    list_matrices,
    load_group,
    remove_from_all_groups,
    remove_from_group,
    save_group,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "ConvergenceError",
    "DenseMatrix",
    "DuplicateFamilyError",
    "FLOAT64",
    "FamilyDescriptor",
    "GROUP_FILE_MAGIC",
    "GroupError",
    "HarnessError",
    "HarnessRecord",
    "MatrixHandle",
    "MatrixMarketError",
    "ParamSpec",
    "ParameterError",
    "RATIONAL64",
    "Rational64",
    "RationalOverflowError",
    "SingularMatrixError",
    "TmatError",
    "UnknownFamilyError",
    "UnknownPropertyError",
    "UnsupportedOperationError",
    "AuditFinding",
    "AuditReport",
    "add_to_groups",
    "audit",
    "cond1",
    "construct",
    "dense_footprint",
    "determinant",
    "dims",
    "eigvals",
    "element",
    "entry_sum",
    "export_array",
    "export_coordinate",
    "feasible_size",
    "frobenius_norm",
    "handle_footprint",
    "import_array",
    "inverse",
    "is_diagonal",
    "is_posdef",
    "is_symmetric",
    "list_families",
    "list_groups",
    "list_matrices",
    "list_properties",
    "load_group",
    "materialize",
    "parse_property",
    "properties_of",
    "rank",
    "register_family",
    "remove_from_all_groups",
    "remove_from_group",
    "render_audit",
    "save_group",
    "solve",
    "spectral_moduli",
    "test_algorithm",
    "vector_footprint",
]
