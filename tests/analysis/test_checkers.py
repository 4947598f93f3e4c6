"""Per-rule fixture tests: each checker fires on a seeded violation,
honours suppressions, stays quiet on clean code — and stays quiet on the
real engine module it guards (the tree-level contract, pinned per rule)."""

from __future__ import annotations

from repro.analysis import CheckerConfig, lint_paths

#: Outside every scoped rule's module list (see conftest.PLAIN_PATH).
PLAIN_PATH = "src/repro/data/synthetic.py"


def rules_of(result):
    return [finding.rule for finding in result.findings]


def real_module_is_clean(rule, path):
    """The shipped engine module carries no unsuppressed findings."""
    result = lint_paths(paths=[path], rules=[rule])
    assert rules_of(result) == [], result.findings


# ---------------------------------------------------------------------- #
# no-print
# ---------------------------------------------------------------------- #
class TestNoPrint:
    def test_fires_outside_allowlist(self, lint_source):
        result = lint_source("print('hi')\n", relative=PLAIN_PATH,
                             rules=["no-print"])
        assert rules_of(result) == ["no-print"]
        assert result.findings[0].line == 1

    def test_quiet_on_allowlisted_module(self, lint_source):
        result = lint_source("print('hi')\n",
                             relative="src/repro/service/cli.py",
                             rules=["no-print"])
        assert rules_of(result) == []

    def test_suppressed_hit_counts_as_suppressed(self, lint_source):
        result = lint_source(
            "print('hi')  # repro: allow(no-print): fixture\n",
            relative=PLAIN_PATH, rules=["no-print"])
        assert rules_of(result) == []
        assert result.suppressed == 1

    def test_quiet_on_clean_file(self, lint_source):
        result = lint_source("value = 'print'\n", relative=PLAIN_PATH,
                             rules=["no-print"])
        assert rules_of(result) == []

    def test_real_tree_is_clean(self):
        real_module_is_clean("no-print", "src/repro")


# ---------------------------------------------------------------------- #
# dtype-purity
# ---------------------------------------------------------------------- #
class TestDtypePurity:
    def test_fires_on_float64_literal(self, lint_source):
        result = lint_source("""\
            import numpy as np
            x = np.zeros(3, dtype=np.float64)
            """, rules=["dtype-purity"])
        assert "dtype-purity" in rules_of(result)

    def test_fires_on_dtype_float_keyword(self, lint_source):
        result = lint_source("""\
            import numpy as np
            x = np.asarray([1, 2], dtype=float)
            """, rules=["dtype-purity"])
        assert rules_of(result) == ["dtype-purity"]

    def test_quiet_outside_engine_modules(self, lint_source):
        result = lint_source("""\
            import numpy as np
            x = np.zeros(3, dtype=np.float64)
            """, relative=PLAIN_PATH, rules=["dtype-purity"])
        assert rules_of(result) == []

    def test_blessed_promotion_sites_are_quiet(self, lint_source):
        result = lint_source("""\
            import numpy as np

            def plan(space, shape, a, b):
                buffer = space.take("bwd.pred", shape, np.float64)
                cdtype = np.result_type(a, b)
                return buffer, np.dtype(np.float64)
            """, rules=["dtype-purity"])
        assert rules_of(result) == []

    def test_annotations_are_quiet(self, lint_source):
        result = lint_source("""\
            import numpy as np

            def f(x: np.float64) -> np.float64:
                y: np.float64 = x
                return y
            """, rules=["dtype-purity"])
        assert rules_of(result) == []

    def test_suppressed_hit(self, lint_source):
        result = lint_source("""\
            import numpy as np
            # repro: allow(dtype-purity): fixture
            x = np.zeros(3, dtype=np.float64)
            """, rules=["dtype-purity"])
        assert rules_of(result) == []
        assert result.suppressed >= 1

    def test_real_engine_modules_are_clean(self):
        for path in CheckerConfig().dtype_modules:
            real_module_is_clean("dtype-purity", path)


# ---------------------------------------------------------------------- #
# hot-path-alloc
# ---------------------------------------------------------------------- #
class TestHotPathAlloc:
    def test_fires_inside_hot_path(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def forward(x):
                scratch = np.zeros(x.shape)
                return scratch
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == ["hot-path-alloc"]
        assert "forward" in result.findings[0].message

    def test_fires_on_copy_and_astype(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def forward(x):
                return x.copy() + x.astype(np.float32)
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == ["hot-path-alloc"] * 2

    def test_astype_copy_false_is_quiet(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def forward(x):
                return x.astype(np.float32, copy=False)
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == []

    def test_undecorated_function_is_quiet(self, lint_source):
        result = lint_source("""\
            import numpy as np

            def setup(shape):
                return np.zeros(shape)
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == []

    def test_nested_function_inherits_hotness(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def forward(x):
                def body(lo, hi):
                    return np.empty(hi - lo)
                return body
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == ["hot-path-alloc"]

    def test_suppressed_hit(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def forward(x, out=None):
                if out is None:
                    # repro: allow(hot-path-alloc): cold fallback, fixture
                    out = np.empty(x.shape)
                return out
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == []
        assert result.suppressed == 1

    def test_fires_on_roll(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def derivative(x, out):
                np.subtract(np.roll(x, -1), x, out=out)
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == ["hot-path-alloc"]
        assert "np.roll" in result.findings[0].message

    def test_suppressed_roll(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def derivative(x, out):
                # repro: allow(hot-path-alloc): reference form, fixture
                np.subtract(np.roll(x, -1), x, out=out)
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == []
        assert result.suppressed == 1

    def test_ring_slices_are_quiet(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.contracts import hot_path

            @hot_path
            def derivative(ring, out):
                ring[-1] = ring[1]
                np.subtract(ring[2:], ring[1:-1], out=out)
            """, relative=PLAIN_PATH, rules=["hot-path-alloc"])
        assert rules_of(result) == []

    def test_real_engine_modules_are_clean(self):
        real_module_is_clean("hot-path-alloc", "src/repro/nn/inference.py")
        real_module_is_clean("hot-path-alloc",
                             "src/repro/nn/training_engine.py")
        real_module_is_clean("hot-path-alloc", "src/repro/data/lorenz.py")


# ---------------------------------------------------------------------- #
# parallel-outputs
# ---------------------------------------------------------------------- #
class TestParallelOutputs:
    def test_fires_on_undeclared_out_kwarg(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.nn.parallel import parallel_for

            def run(flat, extra):
                def body(lo, hi):
                    np.exp(flat[lo:hi], out=flat[lo:hi])
                    np.exp(flat[lo:hi], out=extra[lo:hi])

                parallel_for(body, flat.shape[0], outputs=((flat, 0),))
            """, relative=PLAIN_PATH, rules=["parallel-outputs"])
        assert rules_of(result) == ["parallel-outputs"]
        assert "'extra'" in result.findings[0].message

    def test_fires_when_outputs_absent(self, lint_source):
        result = lint_source("""\
            from repro.nn.parallel import parallel_for

            def run(flat):
                def body(lo, hi):
                    flat[lo:hi] = 0.0

                parallel_for(body, flat.shape[0])
            """, relative=PLAIN_PATH, rules=["parallel-outputs"])
        assert rules_of(result) == ["parallel-outputs"]
        assert "declares no outputs=" in result.findings[0].message

    def test_declared_and_chunk_local_writes_are_quiet(self, lint_source):
        result = lint_source("""\
            import numpy as np
            from repro.nn.parallel import parallel_for

            def run(flat, ext):
                def body(lo, hi):
                    rows = flat[lo:hi]          # alias of a declared buffer
                    rows -= rows.max()
                    local = np.empty_like(rows)  # chunk-local by construction
                    local[...] = rows
                    np.exp(rows, out=ext[lo:hi])

                parallel_for(body, flat.shape[0],
                             outputs=((flat, 0), (ext, 0)))
            """, relative=PLAIN_PATH, rules=["parallel-outputs"])
        assert rules_of(result) == []

    def test_alias_write_through_resolves_to_base(self, lint_source):
        result = lint_source("""\
            from repro.nn.parallel import parallel_for

            def run(flat, other):
                def body(lo, hi):
                    rows = other[lo:hi]
                    rows += 1.0

                parallel_for(body, flat.shape[0], outputs=((flat, 0),))
            """, relative=PLAIN_PATH, rules=["parallel-outputs"])
        assert rules_of(result) == ["parallel-outputs"]
        assert "'other'" in result.findings[0].message

    def test_concatenated_declaration_defers_to_runtime_audit(
            self, lint_source):
        # ``(...literal...) + tuple(generator)`` cannot be enumerated
        # statically; the rule must not flag what it cannot resolve (the
        # REPRO_PARALLEL_DEBUG audit still covers the generated pairs).
        result = lint_source("""\
            from repro.nn.parallel import parallel_for

            def run(flat, views):
                def body(lo, hi):
                    flat[lo:hi] = 0.0
                    for view in views:
                        view[lo:hi] = 1.0

                parallel_for(body, flat.shape[0],
                             outputs=((flat, 0),)
                             + tuple((view, 0) for view in views))
            """, relative=PLAIN_PATH, rules=["parallel-outputs"])
        assert rules_of(result) == []

    def test_suppressed_hit(self, lint_source):
        result = lint_source("""\
            from repro.nn.parallel import parallel_for

            def run(flat):
                def body(lo, hi):
                    flat[lo:hi] = 0.0

                # repro: allow(parallel-outputs): fixture
                parallel_for(body, flat.shape[0])
            """, relative=PLAIN_PATH, rules=["parallel-outputs"])
        assert rules_of(result) == []
        assert result.suppressed == 1

    def test_real_engine_modules_are_clean(self):
        real_module_is_clean("parallel-outputs", "src/repro/nn/inference.py")
        real_module_is_clean("parallel-outputs",
                             "src/repro/nn/training_engine.py")
        real_module_is_clean("parallel-outputs", "src/repro/core/batched.py")


# ---------------------------------------------------------------------- #
# telemetry-guard
# ---------------------------------------------------------------------- #
class TestTelemetryGuard:
    def test_fires_on_unguarded_event(self, lint_source):
        result = lint_source("""\
            from repro.telemetry import get_telemetry

            def step(loss):
                telemetry = get_telemetry()
                telemetry.event("train_step", loss=loss)
            """, rules=["telemetry-guard"])
        assert rules_of(result) == ["telemetry-guard"]

    def test_enabled_guard_dominates(self, lint_source):
        result = lint_source("""\
            from repro.telemetry import get_telemetry

            def step(loss):
                telemetry = get_telemetry()
                if telemetry.enabled:
                    telemetry.event("train_step", loss=loss)
            """, rules=["telemetry-guard"])
        assert rules_of(result) == []

    def test_early_exit_guard_dominates(self, lint_source):
        result = lint_source("""\
            from repro.telemetry import get_telemetry

            def step(loss):
                telemetry = get_telemetry()
                if not telemetry.enabled:
                    return
                telemetry.event("train_step", loss=loss)
            """, rules=["telemetry-guard"])
        assert rules_of(result) == []

    def test_fires_on_fstring_metric_name(self, lint_source):
        result = lint_source("""\
            from repro.telemetry import get_telemetry

            def hook(op, seconds):
                telemetry = get_telemetry()
                telemetry.histogram(f"engine.{op}_seconds").observe(seconds)
            """, rules=["telemetry-guard"])
        assert rules_of(result) == ["telemetry-guard"]
        assert "f-string" in result.findings[0].message

    def test_quiet_outside_hot_modules(self, lint_source):
        result = lint_source("""\
            from repro.telemetry import get_telemetry

            def step(loss):
                get_telemetry().event("train_step", loss=loss)
            """, relative=PLAIN_PATH, rules=["telemetry-guard"])
        assert rules_of(result) == []

    def test_suppressed_hit(self, lint_source):
        result = lint_source("""\
            from repro.telemetry import get_telemetry

            def step(loss):
                telemetry = get_telemetry()
                # repro: allow(telemetry-guard): fixture
                telemetry.event("train_step", loss=loss)
            """, rules=["telemetry-guard"])
        assert rules_of(result) == []
        assert result.suppressed == 1

    def test_real_hot_modules_are_clean(self):
        for path in CheckerConfig().telemetry_modules:
            real_module_is_clean("telemetry-guard", path)
