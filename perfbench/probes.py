"""Where the traced run wraps mmdreg, and the counters it computes there.

Each function is wrapped in the module that looks it up at call time:
``fitting`` binds ``grad_objective_estimate`` and ``build_pair_cache``
at import and ``gradients`` binds ``elementwise`` and ``gram``, so
wrapping only the defining module would record nothing for those calls.
Wrapping at the caller also keeps recursive calls inside a layer (a
product kernel evaluating its factors) out of the counts.

Every counter is computed from array or file sizes, not reported by
the program; the units say so.
"""

import os

from mmdreg import bench, cli, contamination, dataio, fitting, gradients, models


def _path_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _cache_mb(cache):
    arrays = (cache.kx, cache.det_i, cache.det_j, cache.det_kx, cache.det_linear,
              cache.comp_base)
    return sum(a.nbytes for a in arrays) / 1e6


# (owners looked up at call time, attribute, span name, counter)
PROBES = [
    ((gradients,), "elementwise", "kernels.elementwise",
     lambda a, k, r: {"evals": r.shape[0]}),
    ((gradients,), "gram", "kernels.gram", lambda a, k, r: {"evals": r.size}),
    ((fitting,), "grad_objective_estimate", "gradients.grad_objective_estimate", None),
    ((fitting,), "build_pair_cache", "gradients.build_pair_cache",
     lambda a, k, r: {"pairs_ranked": r.total_pairs, "cache_mb": _cache_mb(r)}),
    ((gradients,), "top_pairs", "gradients.top_pairs", None),
    ((gradients,), "sample_pair_indices", "gradients.sample_pair_indices",
     lambda a, k, r: {"pairs_sampled": r.size}),
    ((fitting,), "fit_mmd", "fitting.fit_mmd", lambda a, k, r: {"iters": r.iterations}),
    ((fitting,), "fit_baseline", "fitting.fit_baseline", None),
    ((models, bench, cli), "simulate_dataset", "models.simulate_dataset", None),
    ((contamination, bench, cli), "contaminate", "contamination.contaminate",
     lambda a, k, r: {"rows_touched": len(r.meta["contamination"]["indices"])}),
    ((dataio, cli), "write_csv", "dataio.write_csv", lambda a, k, r: _path_bytes(a, k)),
    ((cli,), "load_csv", "dataio.load_csv", lambda a, k, r: {"rows": r.n}),
    ((cli,), "export_contaminated", "dataio.export_contaminated", None),
    ((cli,), "write_fit_result", "dataio.write_fit_result",
     lambda a, k, r: _path_bytes(a, k)),
]

# The fit JSON embeds the fit's wall time, whose printed length varies,
# so its size is the one counter not expected to repeat between passes.
VARIES = {"dataio.write_fit_result.bytes"}

# Family methods are looked up on the instance's class, so every family
# that defines its own method is wrapped.
METHOD_PROBES = [
    ("sample", "models.sample", lambda a, k, r: {"draws": r.shape[0]}),
    ("grad_log_density", "models.grad_log_density", lambda a, k, r: {"rows": r.shape[0]}),
]


def install(tracer):
    """Wrap every probe site; undo with ``tracer.unpatch()``."""
    for owners, attr, name, counter in PROBES:
        for owner in owners:
            tracer.patch(owner, attr, name, counter)
    for cls in models._FAMILY_REGISTRY.values():
        for attr, name, counter in METHOD_PROBES:
            if attr in cls.__dict__:
                tracer.patch(cls, attr, name, counter)
