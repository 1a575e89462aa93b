"""Per-layer span tracing of leafout, installed from outside the program.

``install()`` runs in the child interpreter after ``leafout.cli`` is
imported.  It wraps every public function of every leafout module, and
every public method of every class a leafout module defines, and rebinds
each wrapper in every leafout namespace that holds the original, so a
``from .unitcell import sub_angle_from_main`` binding in ``kinematics``
is traced too.  Each call records a span (function, parent span, start,
end, raised or not, elements) in memory; ``Recorder.save`` writes them
out once the CLI has returned.

``layer_metrics()`` runs in the benchmark process and derives the
per-layer numbers from the saved spans.  A span's self time is its
duration minus the durations of its child spans, so the self times of
all spans add up to the root span's duration: no time goes unattributed.
"""
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "io", "explore", "droptest", "energy", "uniform",
          "kinematics", "unitcell", "geometry", "rotations")

#: argument whose size is recorded as the span's element count
ELEMENT_ARGS = {
    "unitcell.sub_angle_from_main": "rho_m",
    "uniform.main_angles": "psis",
    "uniform.boundary_angles": "psis",
}
SCALAR_SOLVES = ("uniform.main_angle_from_psi", "uniform.boundary_angle_from_psi")
BULK_SOLVES = ("uniform.main_angles", "uniform.boundary_angles")


class Recorder:
    """Spans of one process, kept in parallel lists until saved."""

    def __init__(self):
        self.names = []
        self.func, self.parent, self.elems = [], [], []
        self.t0, self.t1, self.err = [], [], []
        self.stack = [-1]

    def wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        elem_pos = elem_name = None
        if name in ELEMENT_ARGS:
            elem_name = ELEMENT_ARGS[name]
            elem_pos = list(inspect.signature(fn).parameters).index(elem_name)
        func, parent, elems = self.func, self.parent, self.elems
        t0, t1, err, stack = self.t0, self.t1, self.err, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(func)
            func.append(index)
            parent.append(stack[-1])
            if elem_pos is None:
                elems.append(0)
            else:
                elems.append(np.size(args[elem_pos] if len(args) > elem_pos
                                     else kwargs[elem_name]))
            err.append(False)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                err[sid] = True
                raise
            finally:
                t1[sid] = clock()
                stack.pop()

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names), func=np.array(self.func, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 elems=np.array(self.elems, dtype=np.int64),
                 t0=np.array(self.t0), t1=np.array(self.t1),
                 err=np.array(self.err, dtype=bool))


def _short(module_name):
    return module_name.split(".", 1)[1]


def install():
    """Wrap the public leafout API in place; returns the Recorder."""
    rec = Recorder()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "leafout" or n.startswith("leafout.")]
    wrappers, classes = {}, set()
    for mod in modules:
        for obj in list(vars(mod).values()):
            owner = getattr(obj, "__module__", None) or ""
            if not owner.startswith("leafout."):
                continue
            if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                    and id(obj) not in wrappers):
                wrappers[id(obj)] = rec.wrap(obj, f"{_short(owner)}.{obj.__name__}")
            elif inspect.isclass(obj) and obj not in classes:
                classes.add(obj)
                _wrap_methods(rec, obj)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
    return rec


def _wrap_methods(rec, cls):
    prefix = f"{_short(cls.__module__)}.{cls.__name__}."
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(rec.wrap(attr.__func__, prefix + name)))
        elif inspect.isfunction(attr):
            setattr(cls, name, rec.wrap(attr, prefix + name))


# ----------------------------------------------------------------------
# aggregation (benchmark process)

def load_spans(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def layer_metrics(span_files):
    """Per-layer metrics summed over the spans of one pass.

    Returns (metrics, self_sum_s, root_s): the metrics dict, the sum of
    all self times and the summed duration of the root spans.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    fn_calls, fn_errors, fn_elems, fn_time = {}, {}, {}, {}
    self_sum = root_s = 0.0
    for path in span_files:
        z = load_spans(path)
        names = [str(n) for n in z["names"]]
        func, parent = z["func"], z["parent"]
        dur = z["t1"] - z["t0"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        own = dur - child
        self_sum += float(own.sum())
        root_s += float(dur[parent < 0].sum())
        per_fn = np.bincount(func, minlength=len(names))
        err_fn = np.bincount(func, weights=z["err"], minlength=len(names))
        elem_fn = np.bincount(func, weights=z["elems"], minlength=len(names))
        # a function never calls itself here, so summed durations are inclusive times
        time_fn = np.bincount(func, weights=dur, minlength=len(names))
        own_fn = np.bincount(func, weights=own, minlength=len(names))
        for k, name in enumerate(names):
            layer = name.split(".", 1)[0]
            self_s[layer] += float(own_fn[k])
            calls[layer] += int(per_fn[k])
            errors[layer] += int(err_fn[k])
            fn_calls[name] = fn_calls.get(name, 0) + int(per_fn[k])
            fn_errors[name] = fn_errors.get(name, 0) + int(err_fn[k])
            fn_elems[name] = fn_elems.get(name, 0) + int(elem_fn[k])
            fn_time[name] = fn_time.get(name, 0.0) + float(time_fn[k])

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.errors"] = errors[layer]
    steps = fn_calls.get("kinematics.project_step", 0)
    step_errors = fn_errors.get("kinematics.project_step", 0)
    m.update({
        "unitcell.sub_angle_from_main.calls": fn_calls.get("unitcell.sub_angle_from_main", 0),
        "unitcell.sub_angle_from_main.elems": fn_elems.get("unitcell.sub_angle_from_main", 0),
        "uniform.psi_motion_range.s": fn_time.get("uniform.psi_motion_range", 0.0),
        "uniform.scalar_solves": total(fn_calls, SCALAR_SOLVES),
        "uniform.scalar_solves.errors": total(fn_errors, SCALAR_SOLVES),
        "uniform.bulk_solves.calls": total(fn_calls, BULK_SOLVES),
        "uniform.bulk_solves.elems": total(fn_elems, BULK_SOLVES),
        "kinematics.constraint_matrix.calls": fn_calls.get("kinematics.constraint_matrix", 0),
        "kinematics.residual.calls": fn_calls.get("kinematics.residual", 0),
        "kinematics.null_space.calls": fn_calls.get("kinematics.null_space", 0),
        "kinematics.pseudo_inverse.calls": fn_calls.get("kinematics.pseudo_inverse", 0),
        "kinematics.residual_per_step":
            fn_calls.get("kinematics.residual", 0) / steps if steps else 0.0,
        "kinematics.project_step.calls": steps,
        "kinematics.project_step.errors": step_errors,
        "kinematics.project_step.ok_ratio": (steps - step_errors) / steps if steps else 1.0,
        "energy.refine_extremum.calls": fn_calls.get("energy.refine_extremum", 0),
        "energy.zero_contours.s": fn_time.get("energy.zero_contours", 0.0),
        "energy.characterize_bistability.calls":
            fn_calls.get("energy.characterize_bistability", 0),
        "droptest.prototype_barrier.calls": fn_calls.get("droptest.prototype_barrier", 0),
    })
    return m, self_sum, root_s
