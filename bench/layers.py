"""Outside-in layer tracing for the benchmark.

Every entry of ``WRAPS`` names a function at the module attribute where a
ttrec module looks it up at call time, so replacing that attribute puts a
timing span around each call without touching ``src/``.  A span's self time
is its duration minus the time of the wrapped spans it encloses.  A name
that no longer exists fails the traced run instead of reading as zero.

``LAYER_METRICS`` derives the per-layer metrics from the spans and says
which end-to-end figure each one is expected to move: ``pass_s`` on the
named workload, or the per-operation time recorded beside it.
"""
from __future__ import annotations

import importlib
import warnings
from time import perf_counter

# (module, attribute path, span name).  Several lookups of one function may
# share a span name; one function looked up in two places may get two names
# (``debias_on_support`` is a CV refit in sparse_solver and the final debias
# in recovery).
WRAPS = (
    ("ttrec.recovery", "recover", "recover"),        # the benchmark's own calls
    ("ttrec.uq_bench", "recover", "recover"),
    ("ttrec.cli", "recover", "recover"),
    ("ttrec.recovery", "canonicalize", "canonicalize"),
    ("ttrec.recovery", "tt_evaluate_batch", "tt_evaluate_batch"),
    ("ttrec.recovery", "microstep_ls", "microstep_ls"),
    ("ttrec.recovery", "microstep_l2", "microstep_l2"),
    ("ttrec.recovery", "microstep_rals", "microstep_rals"),
    ("ttrec.recovery", "microstep_r2als", "microstep_r2als"),
    ("ttrec.recovery", "local_gramian", "local_gramian"),
    ("ttrec.recovery", "rank_adapt", "rank_adapt"),
    ("ttrec.recovery", "cv_select_lambda", "cv_select_lambda"),
    ("ttrec.recovery", "lasso_solve", "lasso_solve"),
    ("ttrec.recovery", "debias_on_support", "final_debias"),
    ("ttrec.sparse_solver", "_solve_path", "cv_path"),
    ("ttrec.sparse_solver", "_cd_gram", "cd_gram"),
    ("ttrec.sparse_solver", "debias_on_support", "cv_refit"),
    ("ttrec.bases", "UnivariateBasis.evaluate", "basis_evaluate"),
    ("ttrec.uq_bench", "solve_diffusion", "solve_diffusion"),
    ("ttrec.uq_bench", "splinalg.spsolve", "spsolve"),
    ("ttrec.cli", "read_sample_csv", "read_sample_csv"),
    ("ttrec.cli", "atomic_write", "write"),
    ("ttrec.cli", "save_tt", "write"),
)


class TraceError(RuntimeError):
    pass


def _total(name):
    return lambda t: t.total(name)


def _self(name):
    return lambda t: t.total(name) - t.child(name)


def _calls(name):
    return lambda t: float(t.calls(name))


def _count(name):
    return lambda t: float(t.counts.get(name, 0))


def _distinct_refit_frac(t):
    calls = t.calls("cv_refit")
    return len(t.refit_keys) / calls if calls else 0.0


# metric -> (unit, better, derivation, the end-to-end figure it should move)
LAYER_METRICS = {
    "sparse_solver.cv_path_s": (
        "s", "lower", _total("cv_path"),
        "pass_s on m6-cv via recovery.recover_s.r2als/rals; no change in recovery.recover_s.als/als_l2"),
    "sparse_solver.cd_sweeps": (
        "count", "lower", _count("cd_sweeps"),
        "pass_s on m6-cv via recovery.recover_s.r2als/rals; no change in recovery.recover_s.als/als_l2"),
    "sparse_solver.cv_refit_s": (
        "s", "lower", _total("cv_refit"),
        "pass_s on darcy-m20 via cli.recover_s; recovery.recover_s.r2als on m6-cv"),
    "sparse_solver.cv_refit_calls": (
        "count", "lower", _calls("cv_refit"),
        "pass_s on darcy-m20 via cli.recover_s; recovery.recover_s.r2als on m6-cv"),
    "sparse_solver.cv_refit_distinct_frac": (
        "ratio", "higher", _distinct_refit_frac,
        "pass_s on darcy-m20 and m6-cv"),
    "sparse_solver.cv_select_lambda_s": (
        "s", "lower", _total("cv_select_lambda"),
        "pass_s on darcy-m20 and m6-cv"),
    "sparse_solver.cv_select_lambda_self_s": (
        "s", "lower", _self("cv_select_lambda"),
        "pass_s on darcy-m20 and m6-cv"),
    "sparse_solver.lasso_solve_s": (
        "s", "lower", _total("lasso_solve"),
        "recovery.recover_s.r2als/rals on m6-cv"),
    "sparse_solver.lasso_convergence_warnings": (
        "count", "lower", _count("convergence_warnings"),
        "recovery.recover_s.r2als/rals on m6-cv"),
    "sparse_solver.final_debias_s": (
        "s", "lower", _total("final_debias"),
        "recovery.recover_s.r2als/rals on m6-cv"),
    "recovery.sweep_self_s": (
        "s", "lower", _self("recover"),
        "recovery.recover_s.als on m6-cv"),
    "recovery.microstep_ls_s": (
        "s", "lower", _total("microstep_ls"),
        "recovery.recover_s.als on m6-cv"),
    "recovery.microstep_l2_s": (
        "s", "lower", _total("microstep_l2"),
        "recovery.recover_s.als_l2 on m6-cv"),
    "recovery.local_gramian_s": (
        "s", "lower", _total("local_gramian"),
        "recovery.recover_s.rals on m6-cv"),
    "recovery.rank_adapt_s": (
        "s", "lower", _total("rank_adapt"),
        "every recover figure, a little"),
    "recovery.sweeps": (
        "count", "lower", _count("sweeps"),
        "explains shifts in any recover figure"),
    "recovery.microsteps": (
        "count", "lower", _count("microsteps"),
        "explains shifts in any recover figure"),
    "recovery.underdetermined": (
        "count", "lower", _count("underdetermined"),
        "explains shifts in any recover figure"),
    "tensor_core.canonicalize_s": (
        "s", "lower", _total("canonicalize"),
        "recovery.recover_s.als/als_l2 on m6-cv"),
    "tensor_core.tt_evaluate_batch_s": (
        "s", "lower", _total("tt_evaluate_batch"),
        "recovery.recover_s.als/als_l2 on m6-cv"),
    "bases.evaluate_s": (
        "s", "lower", _total("basis_evaluate"),
        "setup_s, and recovery.recover_s.als/als_l2 on m6-cv"),
    "uq_bench.spsolve_s": (
        "s", "lower", _total("spsolve"),
        "pass_s on darcy-m20 via cli.darcy_gen_samples_per_s"),
    "uq_bench.solve_diffusion_self_s": (
        "s", "lower", _self("solve_diffusion"),
        "pass_s on darcy-m20 via cli.darcy_gen_samples_per_s"),
    "uq_bench.solves": (
        "count", "lower", _calls("solve_diffusion"),
        "explains cli.darcy_gen_samples_per_s"),
    "cli.read_sample_csv_s": (
        "s", "lower", _total("read_sample_csv"),
        "pass_s on darcy-m20 via cli.recover_s"),
    "cli.write_s": (
        "s", "lower", _total("write"),
        "pass_s on darcy-m20 via cli.recover_s and cli.darcy_gen_samples_per_s"),
}


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, attr, None)):
        raise TraceError(f"{module}.{path} no longer exists; update WRAPS in bench/layers.py")
    return owner, attr


class Tracer:
    """Installs the spans of ``WRAPS`` and aggregates them per span name.

    Aggregates instead of span lists: the CV refit span fires tens of
    thousands of times per pass.
    """

    def __init__(self):
        self._saved = []
        self._stack = []
        self.reset()

    def reset(self):
        self.stats = {}          # span name -> [total s, child s, calls]
        self.counts = {}
        self.refit_keys = set()  # (cv call, fold rows, support) of each refit
        self._cv_call = 0

    def total(self, name):
        return self.stats.get(name, (0.0, 0.0, 0))[0]

    def child(self, name):
        return self.stats.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name):
        return self.stats.get(name, (0.0, 0.0, 0))[2]

    def layer_metrics(self) -> dict:
        return {name: derive(self) for name, (_, _, derive, _) in LAYER_METRICS.items()}

    def _count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def install(self):
        targets = [(*_resolve(module, path), span) for module, path, span in WRAPS]
        for owner, attr, span in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(span, self._hooked(span, fn)))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _span(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0.0, 0.0, 0]
                entry[0] += dt
                entry[1] += frame[0]
                entry[2] += 1

        return wrapper

    def _hooked(self, span, fn):
        """Adds the counters a span needs; the result is returned unchanged."""
        if span == "recover":
            def recover(*args, **kwargs):
                report = fn(*args, **kwargs)
                self._count("sweeps", len(report.rank_history))
                self._count("underdetermined", len(report.underdetermined))
                return report
            return recover
        if span.startswith("microstep_"):
            def microstep(*args, **kwargs):
                self._count("microsteps")
                return fn(*args, **kwargs)
            return microstep
        if span == "cd_gram":
            def cd_gram(*args, **kwargs):
                x, sweeps = fn(*args, **kwargs)
                self._count("cd_sweeps", int(sweeps))
                return x, sweeps
            return cd_gram
        if span == "cv_select_lambda":
            def cv_select_lambda(*args, **kwargs):
                self._cv_call += 1
                return fn(*args, **kwargs)
            return cv_select_lambda
        if span == "cv_refit":
            def cv_refit(A, y, v):
                # the fold is identified by its training targets; hashing
                # them keeps the key cheap at tens of thousands of calls
                self.refit_keys.add((self._cv_call, A.shape[0], hash(y.tobytes()),
                                     (v != 0).tobytes()))
                return fn(A, y, v)
            return cv_refit
        if span == "lasso_solve":
            from ttrec.sparse_solver import ConvergenceWarning

            def lasso_solve(*args, **kwargs):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", ConvergenceWarning)
                    out = fn(*args, **kwargs)
                for w in caught:
                    if issubclass(w.category, ConvergenceWarning):
                        self._count("convergence_warnings")
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
                return out
            return lasso_solve
        return fn
