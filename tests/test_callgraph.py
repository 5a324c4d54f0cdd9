"""Unit tests for the interprocedural call-graph engine.

The engine (``repro.analysis.callgraph``) indexes every module in the
tree, binds ``self.<attr>`` method calls through constructor-assigned
types, chases ``from x import y`` re-export chains, and resolves the
predictor registry's ``partial(factory, ...)`` indirection — the
machinery the ``perf`` family's hot-closure computation stands on.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.findings import canonical_file
from repro.analysis.rules import ModuleSource, collect_sources, module_name_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Registry names expected from orchestration/registry.standard_registry.
REGISTERED = {
    "bimodal",
    "gshare",
    "filter",
    "perceptron",
    "oh-snap",
    "tage10",
    "tage15",
    "isl-tage10",
    "isl-tage15",
    "bf-tage10",
    "bf-isl-tage10",
    "bf-neural",
    "bf-neural-32k",
    "bf-neural-ahead",
}

#: Predictors whose predict/train genuinely call no helpers.
SELF_CONTAINED = {"bimodal", "perceptron"}


@pytest.fixture(scope="module")
def graph():
    return CallGraph(collect_sources([SRC]))


def source_from_text(text, filename="synthetic.py"):
    path = Path(filename)
    return ModuleSource(
        path=path,
        module=module_name_for(path),
        relpath=canonical_file(filename),
        tree=ast.parse(text, filename=filename),
    )


class TestRegistryResolution:
    def test_all_registered_predictors_resolve(self, graph):
        registry = graph.registered_predictors()
        assert set(registry) == REGISTERED
        for name, class_qualname in registry.items():
            assert class_qualname in graph.classes, name

    def test_partial_wrapped_factories_chase_return_classes(self, graph):
        registry = graph.registered_predictors()
        assert registry["tage10"] == "repro.predictors.tage.tage.Tage"
        assert registry["bf-neural"] == "repro.core.bfneural.BFNeural"
        assert registry["bf-neural-ahead"] == "repro.core.ahead.AheadPipelinedBFNeural"


class TestSymbolResolution:
    def test_import_alias_chases_reexport_chain(self, graph):
        # repro/predictors/__init__.py re-exports Tage from the package.
        assert (
            graph.resolve_symbol("repro.predictors.Tage")
            == "repro.predictors.tage.tage.Tage"
        )

    def test_self_attr_types_bound_from_constructor(self, graph):
        tage = "repro.predictors.tage.tage.Tage"
        assert graph.attr_type(tage, "_rng") == "repro.common.rng.XorShift64"
        # List element types resolve for `self.tables[i].method(...)`.
        assert (
            graph.attr_elem_type(tage, "tables")
            == "repro.predictors.tage.components.TaggedTable"
        )


class TestCallResolution:
    def test_self_method_binding(self, graph):
        callees = graph.callees("repro.predictors.tage.tage.Tage.predict")
        assert "repro.predictors.tage.tage.Tage._compute_indices" in callees

    def test_virtual_dispatch_includes_subclass_overrides(self, graph):
        # Tage.predict calls self._compute_indices; BFTage overrides it,
        # so the over-approximated closure must include the override.
        callees = graph.callees("repro.predictors.tage.tage.Tage.predict")
        assert "repro.core.bftage.BFTage._compute_indices" in callees

    def test_closure_reaches_rng_through_allocation(self, graph):
        train = "repro.predictors.tage.tage.Tage.train"
        closure = graph.transitive_closure([train])
        assert "repro.common.rng.XorShift64.next_u64" in closure
        chain = closure["repro.common.rng.XorShift64.next_u64"]
        assert chain[0] == train and chain[-1] == "repro.common.rng.XorShift64.next_u64"

    def test_inline_self_method_and_alias(self):
        sources = [
            source_from_text(
                "class Helper:\n"
                "    def work(self):\n"
                "        return 1\n"
                "class Owner:\n"
                "    def __init__(self):\n"
                "        self.helper = Helper()\n"
                "    def run(self):\n"
                "        return self.helper.work()\n"
            )
        ]
        graph = CallGraph(sources)
        assert graph.callees("synthetic.Owner.run") == frozenset(
            {"synthetic.Helper.work"}
        )


class TestHotClosure:
    def test_method_read_as_value_is_an_edge(self, graph):
        # SegmentedRecencyStacks.commit hoists `insert = self._insert`
        # and calls the local; the bound method joins the hot closure.
        segments = "repro.core.segments.SegmentedRecencyStacks"
        assert f"{segments}._insert" in graph.callees(f"{segments}.commit")
        closure = graph.transitive_closure(set(graph.hot_roots()))
        assert f"{segments}._insert" in closure

    def test_predict_resolves_for_every_registered_predictor(self, graph):
        registry = graph.registered_predictors()
        for name, class_qualname in registry.items():
            predict = graph.method(class_qualname, "predict")
            train = graph.method(class_qualname, "train")
            assert predict is not None, name
            assert train is not None, name
            closure = graph.transitive_closure([predict.qualname, train.qualname])
            helpers = set(closure) - {predict.qualname, train.qualname}
            if name in SELF_CONTAINED:
                assert not helpers, name
            else:
                assert helpers, name

    def test_hot_path_marker_registers_roots(self, graph):
        roots = graph.hot_roots()
        assert "repro.sim.simulator.run_events" in roots
        assert roots["repro.sim.simulator.run_events"].startswith("@hot_path")

    def test_predictor_entry_points_are_roots(self, graph):
        roots = graph.hot_roots()
        assert "repro.predictors.tage.tage.Tage.predict" in roots
        assert "repro.predictors.tage.tage.Tage.train" in roots

    def test_closure_chains_start_at_a_root(self, graph):
        roots = list(graph.hot_roots())
        closure = graph.transitive_closure(roots)
        root_set = set(roots)
        for qualname, chain in closure.items():
            assert chain[0] in root_set, qualname
            assert chain[-1] == qualname
