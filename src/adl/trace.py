"""Run traces: per-update records, CSV serialization, summaries.

The CSV layout is one row per accumulated gradient slot:

    s, tick, loss, grad_norm, module, j, batch_index, version_used, d_kj

s is the 0-based group index (update s+1 moved version s to s+1), tick
is the global clock tick at which the top module fired that update,
loss is the training loss observed at the top module's forward of the
group-closing batch M*(s+1)-1, and grad_norm is the whole-network norm
of the averaged accumulated gradient.  d_kj = s - version_used is
derived, and read back only to be checked.  Skipped fill slots leave
version_used and d_kj empty.  Floats are written in shortest exact
round-trip decimal form, so parsing the file back reproduces the same
float64 bits.  The header before the column row is one line each of
K, M, updates and diverged (0 or 1), in write_csv's form "# K=2".
read_csv rejects any other header line, a body that disagrees with the
K, M and updates header, rows of one update that disagree on tick,
loss or grad_norm (two NaNs agree), a module whose rows do not carry
j = 0..M-1 in order, and a d_kj other than s - version_used (empty
exactly when version_used is).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ComparisonError, check_finite_nonneg
from .optimizer import Slot
from .staleness import averaged_los

CSV_COLUMNS = ("s", "tick", "loss", "grad_norm", "module", "j",
               "batch_index", "version_used", "d_kj")
_HEADER_KEYS = ("K", "M", "updates", "diverged")


@dataclass(slots=True)
class UpdateRecord:
    s: int
    tick: int
    loss: float
    grad_norm: float
    slots: dict  # module k (1-based) -> list[Slot], len M each


# kind is forward | backward | update; index is the batch index of a
# forward or backward, or the new version of an update
TickEvent = namedtuple("TickEvent", "tick module kind index")


@dataclass
class RunTrace:
    mode: str
    K: int
    M: int
    updates: list = field(default_factory=list)
    diverged: bool = False
    divergence_reason: str = None
    wall_time: float = 0.0
    # optional per-version whole-network parameter / gradient history
    params: list = None  # params[v] = flat vector at version v (v = 0..S)
    grads: list = None   # grads[s] = flat averaged gradient of update s+1
    # with tick-level tracing on, the TickEvents: an iterable derived from
    # the pipeline clock each time it is read, holding no event
    events: object = None
    final_params: np.ndarray = None  # flat version S; None if diverged

    @property
    def S(self) -> int:
        return len(self.updates)

    def final_loss(self):
        return self.updates[-1].loss if self.updates else None

    def final_grad_norm(self):
        return self.updates[-1].grad_norm if self.updates else None


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(trace: RunTrace, path):
    with open(path, "w") as fh:
        fh.write(f"# K={trace.K}\n# M={trace.M}\n")
        fh.write(f"# updates={trace.S}\n# diverged={int(trace.diverged)}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in trace.updates:
            head = f"{rec.s},{rec.tick},{_fmt(rec.loss)},{_fmt(rec.grad_norm)}"
            for k in sorted(rec.slots):
                for slot in rec.slots[k]:
                    if slot.skipped:
                        tail = f"{slot.batch_index},,"
                    else:
                        d = rec.s - slot.version
                        tail = f"{slot.batch_index},{slot.version},{d}"
                    fh.write(f"{head},{k},{slot.j},{tail}\n")


class _Ints(dict):
    """int(text) of each distinct text, parsed once: a text that int
    rejects raises its ValueError and is not stored."""

    def __missing__(self, text):
        self[text] = value = int(text)
        return value


def read_csv(path, slots=None) -> RunTrace:
    """The trace write_csv wrote to path.  slots maps a row's (j,
    batch_index, version_used) texts to the Slot they give; traces read
    with one dict share their Slot objects, and a read without one
    still builds each distinct slot once."""
    if slots is None:
        slots = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ComparisonError(f"{path}: {exc}") from None
    meta = {}
    n = 0  # the column row's index
    while n < len(lines) and lines[n].startswith("#"):
        key, _, val = lines[n][1:].strip().partition("=")
        try:
            value = int(val)
        except ValueError:
            value = None
        if (value is None or key in meta or key not in _HEADER_KEYS
                or key == "diverged" and value not in (0, 1)):
            raise ComparisonError(f"{path}: bad header line {lines[n]!r}")
        meta[key] = value
        n += 1
    if lines[n:n + 1] != [",".join(CSV_COLUMNS)]:
        raise ComparisonError(f"{path}: missing or malformed header row")
    trace = RunTrace(mode="file", K=meta.get("K", 0), M=meta.get("M", 0),
                     diverged=bool(meta.get("diverged", 0)))
    ints = _Ints()
    s = last_module = None
    for line in lines[n + 1:]:
        try:
            s_text, tick, loss, norm, module, j, batch, version, d = \
                line.split(",")
            if ints[s_text] != s:
                s = ints[s_text]
                head = f"{s_text},{tick},{loss},{norm},"
                current = UpdateRecord(s, ints[tick], float(loss),
                                       float(norm), {})
                trace.updates.append(current)
                last_module = None
            agrees = line.startswith(head) or (
                ints[tick] == current.tick
                and not _gap(float(loss), current.loss)
                and not _gap(float(norm), current.grad_norm))
            if module != last_module:  # the same text, the same list
                last_module = module
                listed = current.slots.setdefault(ints[module], [])
            texts = j, batch, version
            slot = slots.get(texts)
            if slot is None:  # the first row of these texts builds it
                slot = slots[texts] = Slot(
                    ints[j], ints[batch], ints[version] if version else None)
            if slot.version is None:  # a fill slot: d_kj is empty too
                d_ok = d == ""
            else:
                d_ok = ints[d] == s - slot.version
        except ValueError:
            raise ComparisonError(f"{path}: bad row {line!r}") from None
        if not agrees:
            raise ComparisonError(f"{path}: row {line!r} disagrees with "
                                  f"the first row of update {s}")
        if not d_ok:
            raise ComparisonError(f"{path}: row {line!r} has a d_kj other "
                                  f"than s - version_used")
        if slot.j != len(listed):
            raise ComparisonError(
                f"{path}: row {line!r} is slot j={slot.j} of module "
                f"{ints[module]}, expected j={len(listed)}")
        listed.append(slot)
    for key in _HEADER_KEYS:
        if key not in meta:
            raise ComparisonError(f"{path}: missing header line '# {key}='")
    K, M, S = trace.K, trace.M, meta["updates"]
    disagrees = ComparisonError(f"{path}: the body disagrees with the "
                                f"header K={K}, M={M}, updates={S}")
    # K*M*updates rows, checked before anything is sized by the header
    if not (K >= 1 and M >= 1 and len(lines) - n - 1 == K * M * S):
        raise disagrees
    # update s = 0..updates-1 holds modules 1..K with M slots each; only
    # updates >= 1 bounds K by the row count, so updates=0 builds no set
    modules = set(range(1, K + 1)) if S else set()
    sizes = [len(v) for rec in trace.updates for v in rec.slots.values()]
    if trace.S != S or sizes.count(M) != len(sizes) or any(
            rec.s != i or rec.slots.keys() != modules
            for i, rec in enumerate(trace.updates)):
        raise disagrees
    return trace


def write_events_csv(trace: RunTrace, path):
    with open(path, "w") as fh:
        fh.write("tick,module,event,index\n")
        if trace.events is not None:  # streamed: no list of events
            for tick, k, kind, index in trace.events:
                fh.write(f"{tick},{k},{kind},{index}\n")


def observed_averaged_los(trace: RunTrace, k: int):
    """Mean recorded staleness of module k over the last full (no skipped
    slot) update group, as an exact Fraction; None if never steady."""
    for rec in reversed(trace.updates):
        slots = rec.slots.get(k, [])
        if slots and all(not s.skipped for s in slots):
            total = sum(rec.s - s.version for s in slots)
            return Fraction(total, len(slots))
    return None


def summary_text(trace: RunTrace) -> str:
    """Human-readable run summary; each module's observed averaged
    staleness stands next to the exact averaged_los prediction."""
    lines = [
        f"mode: {trace.mode}",
        f"modules: {trace.K}",
        f"ga_steps: {trace.M}",
        f"updates_completed: {trace.S}",
        f"diverged: {trace.diverged}"
        + (f" ({trace.divergence_reason})" if trace.diverged else ""),
        f"wall_time_s: {trace.wall_time:.6f}",
    ]
    if trace.updates:
        lines.append(f"final_loss: {_fmt(trace.final_loss())}")
        lines.append(f"final_grad_norm: {_fmt(trace.final_grad_norm())}")
    for k in range(1, trace.K + 1):
        obs = observed_averaged_los(trace, k)
        lines.append(f"module_{k}_avg_staleness: "
                     f"observed={'n/a' if obs is None else obs} "
                     f"predicted={averaged_los(trace.K, k, trace.M)}")
    return "\n".join(lines) + "\n"


@dataclass
class CompareReport:
    passed: bool
    updates_compared: int
    max_loss_diff: float
    max_grad_norm_diff: float
    max_param_diff: float  # nan when either trace lacks parameter history
    provenance_equal: bool
    first_divergence: int = None  # earliest update index exceeding tol

    def text(self) -> str:
        lines = [
            f"updates_compared: {self.updates_compared}",
            f"max_loss_diff: {_fmt(self.max_loss_diff)}",
            f"max_grad_norm_diff: {_fmt(self.max_grad_norm_diff)}",
            "max_param_diff: not recorded" if math.isnan(self.max_param_diff)
            else f"max_param_diff: {_fmt(self.max_param_diff)}",
            f"provenance_equal: {self.provenance_equal}",
            f"first_divergence: {self.first_divergence}",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def _gap(x: float, y: float) -> float:
    """|x - y|, but 0 for equal values (infinities too) or two NaNs and
    inf for a NaN against anything else."""
    if x == y or (x != x and y != y):
        return 0.0
    d = abs(x - y)
    return d if d == d else math.inf


def _array_gap(x: np.ndarray, y: np.ndarray) -> float:
    """Largest _gap over two equal-shape arrays (0 when empty)."""
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return 0.0
    with np.errstate(invalid="ignore"):
        d = np.abs(x[~same] - y[~same])
    return float(np.max(np.where(np.isnan(d), np.inf, d)))


def compare_traces(a: RunTrace, b: RunTrace, tol: float = 0.0) -> CompareReport:
    """Per-update comparison of two traces.

    Losses and gradient norms are always compared; full parameter
    vectors are compared when both traces recorded them.  Two values are
    equal when they are equal or both NaN; any other NaN difference
    exceeds every tolerance.  Provenance (module, slot, batch, version)
    must match exactly for a pass.  tol must be finite and >= 0.
    """
    check_finite_nonneg("tol", tol, ComparisonError)
    if a.S != b.S:
        raise ComparisonError(f"update ranges differ: {a.S} vs {b.S}")
    if a.S == 0:
        raise ComparisonError("empty traces cannot be compared")
    max_loss = max_norm = 0.0
    max_param = float("nan")
    provenance_equal = True
    first = None
    have_params = a.params is not None and b.params is not None
    if have_params:
        if len(a.params) != len(b.params):
            raise ComparisonError("parameter histories differ in length")
        sizes = next(((pa.size, pb.size) for pa, pb in zip(a.params, b.params)
                      if pa.size != pb.size), None)
        if sizes:
            raise ComparisonError("parameter vectors differ in size: "
                                  "%d vs %d" % sizes)
        max_param = 0.0
    for i, (ra, rb) in enumerate(zip(a.updates, b.updates)):
        dl = _gap(ra.loss, rb.loss)
        dn = _gap(ra.grad_norm, rb.grad_norm)
        max_loss = max(max_loss, dl)
        max_norm = max(max_norm, dn)
        bad = dl > tol or dn > tol or ra.tick != rb.tick
        if ra.slots != rb.slots:
            provenance_equal = False
            bad = True
        if have_params:
            dp = _array_gap(a.params[i + 1], b.params[i + 1])
            max_param = max(max_param, dp)
            bad = bad or dp > tol
        if bad and first is None:
            first = i
    passed = first is None
    return CompareReport(passed, a.S, max_loss, max_norm, max_param,
                         provenance_equal, first)
