"""The config format's one module, and the domain rules its helper states for the library."""

import ast
import math
import re
from pathlib import Path

import pytest

from fadecap.converse import log1p_alpha_snr, xi_default
from fadecap.direct import DirectStats, LogUniformX2
from fadecap.fading import EULER_GAMMA
from fadecap.oracle import lemma_mi_lower_bound, mi_scalar_gaussian

SRC = Path(__file__).resolve().parent.parent / "src" / "fadecap"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}
LAW = LogUniformX2(0.0, math.log(100.0))


def _config_code(tree):
    """Each ``read_fields`` call and each ``*_FIELDS`` table assignment in ``tree``, by line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "read_fields":
                yield f"line {node.lineno} calls read_fields"
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id.endswith("_FIELDS"):
                    yield f"line {node.lineno} defines {target.id}"


def _fadecap_imports(tree):
    """The fadecap modules ``tree`` imports, by name within the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fadecap"):
            yield node.module.partition(".")[2] or "fadecap"
        elif isinstance(node, ast.Import):
            yield from [alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("fadecap")]


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").partition(".")[0] == "numpy"


def _numpy_imports(tree):
    """Where ``tree`` imports numpy: "module level" for a top-level statement, else its line."""
    top = {id(node) for node in tree.body}
    return ["module level" if id(node) in top else f"line {node.lineno}" for node in ast.walk(tree) if _imports_numpy(node)]


TAP_KINDS = {"zero", "iid", "ar1"}


def _kind_constants(tree):
    """Each string constant in ``tree`` that is a config kind of tap, by line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in TAP_KINDS:
            yield f"line {node.lineno} holds {node.value!r}"


class TestLayering:
    def test_only_channel_and_oracle_import_numpy_each_once_at_module_level(self):
        found = {name: _numpy_imports(tree) for name, tree in MODULES.items()}
        assert {name: where for name, where in found.items() if where} == {
            "channel": ["module level"],
            "oracle": ["module level"],
        }

    def test_no_type_checking_block_imports_numpy(self):
        blocks = [
            f"{name} line {node.lineno}"
            for name, tree in MODULES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.If)
            and "TYPE_CHECKING" in ast.unparse(node.test)
            and any(map(_imports_numpy, ast.walk(node)))
        ]
        assert blocks == []

    def test_only_config_reads_fields_or_holds_a_field_table(self):
        assert list(_config_code(MODULES["config"]))  # the guard below sees what it looks for
        elsewhere = {name: list(_config_code(tree)) for name, tree in MODULES.items() if name != "config"}
        assert {name: found for name, found in elsewhere.items() if found} == {}

    def test_only_config_holds_the_tap_kinds(self):
        # the kinds name cases of the one tap record: every other module reads a tap's alpha and pole
        held = {name: list(_kind_constants(tree)) for name, tree in MODULES.items()}
        assert held["config"]  # the guard below sees what it looks for
        assert {name: found for name, found in held.items() if found and name != "config"} == {}

    def test_config_imports_only_record_and_fading(self):
        assert set(_fadecap_imports(MODULES["config"])) == {"record", "fading"}

    def test_package_root_binds_only_the_core(self):
        # the numpy layer's names are imported from channel and oracle, never
        # through the root, whether by an import or by a module __getattr__
        root = MODULES["__init__"]
        assert set(_fadecap_imports(root)) == {"config", "converse", "direct", "fading"}
        getattrs = [
            f"line {node.lineno}"
            for node in root.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getattr__"
        ]
        assert getattrs == []


# each bad value must be rejected with its rule's exact message, NaN and the infinities included
POSITIVE_FINITE = [
    pytest.param(lambda v: log1p_alpha_snr(1.0, v), "alpha_total", id="log1p_alpha_snr"),
    pytest.param(lambda v: xi_default(1.0, v), "alpha_total", id="xi_default"),
    pytest.param(lambda v: lemma_mi_lower_bound(-EULER_GAMMA, v, 1.0, LAW), "sigma_h", id="lemma_sigma_h"),
    pytest.param(lambda v: mi_scalar_gaussian(v, 1.0, LAW, n_outer=2, seed=0), "h_variance", id="mi_h_variance"),
    pytest.param(lambda v: DirectStats(-EULER_GAMMA, 1.0, 1.75, v, 2), "noise variance", id="DirectStats_sigma2"),
]
NONNEGATIVE_FINITE = [
    pytest.param(lambda v: lemma_mi_lower_bound(-EULER_GAMMA, 1.0, v, LAW), "sigma_w", id="lemma_sigma_w"),
    pytest.param(lambda v: mi_scalar_gaussian(1.0, v, LAW, n_outer=2, seed=0), "w_variance", id="mi_w_variance"),
]


class TestDomainRules:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.0])
    @pytest.mark.parametrize("call, name", POSITIVE_FINITE)
    def test_positive_finite(self, call, name, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be positive and finite, got {value}')}$"):
            call(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call, name", NONNEGATIVE_FINITE)
    def test_nonnegative_finite(self, call, name, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be nonnegative and finite, got {value}')}$"):
            call(value)
