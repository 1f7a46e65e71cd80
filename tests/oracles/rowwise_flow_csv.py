"""Row-by-row reference for the flow diagnostics and the flow CSV.

A copy of the drift, conservation report and CSV code the flows module
used while it returned one FlowState per grid point: one Python iteration
per row, spectra as lists of floats (real rows) or complex numbers, and
one ``max`` per row and column.  It reads only the rows' t, x,
eigenvalues and trace_powers, so any sequence of FlowState rows will do.
"""


def drifts(states):
    """(eigenvalue drift, trace-power drift) of each state: the largest
    entry change of its sorted spectrum and of its trace powers against the
    first state."""
    e0, f0 = states[0].eigenvalues, states[0].trace_powers
    return [
        (
            max(abs(a - b) for a, b in zip(s.eigenvalues, e0)),
            max(abs(a - b) for a, b in zip(s.trace_powers, f0)),
        )
        for s in states
    ]


def conservation_report(states):
    eig_drift, fk_drift = (max(0.0, *col) for col in zip(*drifts(states)[1:]))
    return {"max_eig_drift": float(eig_drift), "max_trace_power_drift": float(fk_drift)}


def flow_csv(states):
    d = len(states[0].x)
    ne = len(states[0].eigenvalues)
    nf = len(states[0].trace_powers)
    cols = (
        ["t"]
        + ["x%d" % i for i in range(d)]
        + ["eig%d" % (i + 1) for i in range(ne)]
        + ["F%d" % (k + 1) for k in range(nf)]
        + ["eig_drift", "trace_power_drift"]
    )
    lines = [",".join(cols)]
    fmt = lambda v: "%.12g" % v
    for s, (ed, fd) in zip(states, drifts(states)):
        row = (
            [fmt(s.t)]
            + [fmt(c) for c in s.x]
            + [fmt(v) if not isinstance(v, complex) else repr(v) for v in s.eigenvalues]
            + [fmt(v) for v in s.trace_powers]
            + [fmt(ed), fmt(fd)]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
