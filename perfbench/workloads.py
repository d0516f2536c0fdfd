"""The benchmark's workloads: seeded inputs, one op, and the check of its output.

Every workload builds its inputs from the seed alone, and checks every op
against an expectation that does not come from the minor code: a closed
form, the reduced-density oracle (purities), or a re-implementation of the
sampler contract documented in ``qconc.stateio``.

A workload object has:

``setup(full)``       build the inputs (timed, repeated; last build is kept);
                      ``full=False`` skips the start-up probe and the state
                      files, giving the same inputs (the digest says so)
``expect()``          compute the expectations (untimed, counted as checks)
``order()``           the op items, in the order loops cycle through them
``run(item)``         one op; returns a value that compares equal run to run
``kind(item)``        the op's input kind; the end-to-end median is taken per kind
``check(item, out)``  ``None`` if the output is right, else the reason
``reference()``       time of the host reference an op is divided by
``traced_extra(...)`` extra work in a traced op (in-process CLI for cli_small)
``cli_probe()``       in-process CLI calls after a traced loop
``digest``            sha256 of the generated inputs
``WORKERS``           fresh processes an untraced run's loop is split over

``host`` (see run.py) starts CLI processes, runs the CLI in-process and
holds the work directory and the tracer.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

import qconc

TOL = qconc.DEFAULT_TOLERANCE
EPS = float(np.finfo(float).eps)


# -- shared helpers ----------------------------------------------------------


def ref_loop(iterations: int = 50_000) -> float:
    """Time a fixed pure-Python loop; its time tracks the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - start


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Gaussian vector, normalized: all real parts, then imaginary."""
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    z = re + 1j * im
    return z / np.linalg.norm(z)


def kron_all(vectors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


_REF_ARRAY = np.random.default_rng(0).standard_normal((64, 8, 8)) + 0j


def ref_numpy(iterations: int = 60) -> float:
    """Time a fixed mix of small numpy calls: transpose, copy, norm, argmax."""
    start = time.perf_counter()
    for _ in range(iterations):
        m = np.ascontiguousarray(_REF_ARRAY.transpose(1, 0, 2).reshape(8, -1))
        m = m / np.linalg.norm(m)
        np.abs(m).argmax()
    return time.perf_counter() - start


def contract_sample(dims, kind: str, seed: int) -> np.ndarray:
    """The sampler contract of ``qconc.stateio``, re-implemented here."""
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return unit_vector(rng, math.prod(dims))
    if kind == "product":
        amps = kron_all(unit_vector(rng, n) for n in dims)
        return amps / np.linalg.norm(amps)
    raise ValueError(kind)


def fidelity(a, b) -> float:
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def cut_first(amps, dims, cut: int) -> np.ndarray:
    """Amplitudes reordered with subsystem ``cut`` first, the rest ascending."""
    return np.moveaxis(np.asarray(amps).reshape(dims), cut - 1, 0).reshape(-1)


def via_file(path: Path, state, label: str, full: bool = True):
    """Write a state file with the package's writer and read it back."""
    if not full:
        return state
    path.write_text(qconc.emit_state(state, label=label), encoding="utf-8")
    return qconc.parse_state(path.read_text(encoding="utf-8"))


def digest_states(states) -> str:
    h = hashlib.sha256()
    for s in states:
        h.update(repr(s.dims).encode())
        h.update(np.ascontiguousarray(s.amps).tobytes())
    return h.hexdigest()


def near_product(rng: np.random.Generator, dims, separable: bool):
    """u⊗v⊗w + δ·u'⊗v'⊗w' (normalized) with u'⊥u, v'⊥v, w'⊥w.

    Every one-vs-rest cut is exactly rank 2 with singular values 1 and δ
    (before normalization), so its minor sum is δ²/(1+δ²)².  Every minor is
    at most δ in modulus, so δ <= tol·peak²/10 is certified separable; by
    Cauchy–Binet the largest minor is at least δ/((1+δ²)√K), so
    δ >= 10·tol·√K is certified entangled, K being the cut's minor count.
    """
    us = [unit_vector(rng, n) for n in dims]
    primes = []
    for u in us:
        z = unit_vector(rng, u.size)
        for _ in range(2):
            z = z - np.vdot(u, z) * u
        primes.append(z / np.linalg.norm(z))
    t1, t2 = kron_all(us), kron_all(primes)
    size = t1.size
    k_max = max(math.comb(n, 2) * math.comb(size // n, 2) for n in dims)
    if separable:
        delta = TOL * float(np.max(np.abs(t1))) ** 2 / 20 * 10 ** -rng.uniform()
    else:
        delta = 10 * TOL * math.sqrt(k_max) * 10 ** rng.uniform()
    amps = (t1 + delta * t2) / math.sqrt(1 + delta * delta)
    if separable and not delta <= TOL * float(np.max(np.abs(amps))) ** 2 / 10:
        raise RuntimeError("near-product construction missed its separability margin")
    return amps, delta


def closed_form_c2(delta: float, cuts: int) -> float:
    """Squared concurrence (normalization 4) of a near-product state."""
    return 4 * cuts * delta * delta / (1 + delta * delta) ** 2


def closed_form_rel_tol(delta: float) -> float:
    """Relative accuracy of the minor route on a near-product state.

    Rounding the stored amplitudes moves the second singular value δ by at
    most ε, which is 2ε/δ relative in the minor sum; rounding in the minors
    themselves adds at most 8ε/δ (Cauchy–Schwarz over all minors).  The
    factor 16 covers both.
    """
    return 1e-9 + 16 * EPS / delta


class InProcess:
    """What the two in-process workloads share."""

    WORKERS = 10

    def reference(self) -> float:
        return ref_loop()

    def traced_extra(self, i, out) -> str | None:
        return None


# -- bipartite_haar ----------------------------------------------------------


class BipartiteHaar(InProcess):
    """Haar [32,32]: concurrence plus the certificate on both cuts."""

    DIMS = (32, 32)
    POOL = 64

    def __init__(self, seed: int, host) -> None:
        self.host = host
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**63, self.POOL)]
        self.states: list = []
        self.expected: list[float] = []
        self.digest = ""

    def setup(self, full: bool = True) -> None:
        if full:
            self.host.import_probe()
        self.states = [
            via_file(
                self.host.workdir / f"haar{i}.json",
                qconc.sample_state(qconc.SamplerSpec(self.DIMS, "haar", s)),
                f"haar{i}",
                full,
            )
            for i, s in enumerate(self.seeds)
        ]
        self.run(0)
        self.digest = digest_states(self.states)

    def expect(self) -> None:
        self.expected = [qconc.oracle_concurrence(s) ** 2 for s in self.states]

    def order(self) -> list[int]:
        return list(range(self.POOL))

    def kind(self, i: int) -> str:
        return "haar"

    def run(self, i: int):
        state = self.states[i]
        report = qconc.concurrence(state)
        certs = [qconc.is_separable_cut(state, cut) for cut in (1, 2)]
        return (
            report.value,
            report.per_cut_sums,
            tuple((c.cut, c.max_abs_minor, c.separable, c.factors is None) for c in certs),
        )

    def check(self, i: int, out) -> str | None:
        value, _, certs = out
        want = self.expected[i]
        if not abs(value * value - want) <= 1e-10 * max(1.0, want):
            return f"haar{i}: C^2 = {value * value!r}, oracle {want!r}"
        if any(sep or not no_factors for _, _, sep, no_factors in certs):
            return f"haar{i}: a Haar cut was certified separable"
        return None

    def cli_probe(self) -> str | None:
        return _cli_probe(self.host, self.host.workdir / "haar0.json", self.run(0)[0], False)


# -- tripartite_mixed --------------------------------------------------------


class TripartiteMixed(InProcess):
    """[8,8,8] states, a quarter each: Haar, product, near-product separable,
    near-product entangled.  One op is concurrence plus full separability."""

    DIMS = (8, 8, 8)
    KINDS = ("haar", "product", "near_sep", "near_ent")
    ROUNDS = 16

    def __init__(self, seed: int, host) -> None:
        self.host = host
        self.seed = seed
        self.items: list[tuple[str, object, float]] = []
        self.expected: list[float] = []
        self.sequence: list[int] = []
        self.digest = ""

    def setup(self, full: bool = True) -> None:
        if full:
            self.host.import_probe()
        rng = np.random.default_rng(self.seed)
        items = []
        for r in range(self.ROUNDS):
            for kind in self.KINDS:
                label = f"{kind}{r}"
                delta = 0.0
                if kind in ("haar", "product"):
                    spec = qconc.SamplerSpec(self.DIMS, kind, int(rng.integers(0, 2**63)))
                    state = qconc.sample_state(spec)
                else:
                    amps, delta = near_product(rng, self.DIMS, kind == "near_sep")
                    state = qconc.make_state(self.DIMS, amps)
                state = via_file(self.host.workdir / f"{label}.json", state, label, full)
                items.append((kind, state, delta))
        self.items = items
        self.sequence = [  # every run of four holds one state of each kind
            r * len(self.KINDS) + int(k)
            for r in range(self.ROUNDS) for k in rng.permutation(len(self.KINDS))
        ]
        self.run(0)
        self.digest = digest_states(s for _, s, _ in self.items)

    def expect(self) -> None:
        self.expected = [
            qconc.oracle_concurrence(state) ** 2 if kind == "haar" else
            closed_form_c2(delta, 3) if kind.startswith("near") else 0.0
            for kind, state, delta in self.items
        ]

    def order(self) -> list[int]:
        return self.sequence

    def kind(self, i: int) -> str:
        return self.items[i][0]

    def reference(self) -> float:
        """Small numpy calls: over 25 s windows in one process, this op's
        time divided by them spread 0.05 (interquartile range over median),
        against 0.17 divided by the pure-Python loop."""
        return ref_numpy()

    def run(self, i: int):
        state = self.items[i][1]
        report = qconc.concurrence(state)
        result = qconc.full_separability(state)
        return (
            report.value,
            report.per_cut_sums,
            result.fully_separable,
            tuple((idx, f.amps.tobytes()) for idx, f in result.factors),
            tuple((c.cut, c.max_abs_minor, c.separable) for c in result.failed),
            result.remainder_subsystems,
        )

    def check(self, i: int, out) -> str | None:
        kind, state, delta = self.items[i]
        value, _, fully, factors, failed, remainder = out
        c2, want = value * value, self.expected[i]
        name = f"{kind}#{i}"
        if kind == "haar":
            if not abs(c2 - want) <= 1e-10 * max(1.0, want):
                return f"{name}: C^2 = {c2!r}, oracle {want!r}"
        elif kind == "product":
            if not value <= 1e-10:
                return f"{name}: product state has C = {value!r}"
        elif not abs(c2 - want) <= closed_form_rel_tol(delta) * want:
            return f"{name}: C^2 = {c2!r}, closed form {want!r} (delta {delta!r})"
        separable = kind in ("product", "near_sep")
        if fully != separable:
            return f"{name}: fully_separable = {fully}"
        if separable:
            amps = kron_all(np.frombuffer(b, dtype=complex) for _, b in factors)
            if [idx for idx, _ in factors] != [1, 2, 3] or fidelity(amps, state.amps) < 1 - 1e-10:
                return f"{name}: factors do not reproduce the state"
        elif factors or len(failed) != 3 or remainder != (1, 2, 3):
            return f"{name}: expected no factor and three failed cuts"
        return None

    def cli_probe(self) -> str | None:
        for i, kind in enumerate(self.KINDS):
            out = self.run(i)
            reason = _cli_probe(self.host, self.host.workdir / f"{kind}0.json", out[0], out[2])
            if reason:
                return reason
        return None


def _cli_probe(host, path: Path, value: float, separable: bool) -> str | None:
    """Run concurrence, separability and fullsep in-process on a state file
    and check the documents against the in-process op's results."""
    docs = {}
    for command in ("concurrence", "separability", "fullsep"):
        code, stdout = host.cli_in_process([command, "--state", str(path)])
        if code != 0:
            return f"cli {command} on {path.name}: exit {code}"
        docs[command] = json.loads(stdout)
    if docs["concurrence"]["value"] != value:
        return f"cli concurrence on {path.name} differs from the in-process value"
    verdicts = (docs["separability"]["all_separable"], docs["fullsep"]["fully_separable"])
    if verdicts != (separable, separable):
        return f"cli verdicts on {path.name} differ from the in-process ones"
    return None


# -- cli_small ---------------------------------------------------------------

SQ2 = 1 / math.sqrt(2)
SQ3 = 1 / math.sqrt(3)
BELL = np.array([SQ2, 0, 0, SQ2], dtype=complex)
NAMED_STATES = {
    "bell": ((2, 2), BELL),
    "ghz": ((2, 2, 2), np.array([SQ2, 0, 0, 0, 0, 0, 0, SQ2], dtype=complex)),
    "w": ((2, 2, 2), np.array([0, SQ3, SQ3, 0, SQ3, 0, 0, 0], dtype=complex)),
    "one_bell": ((2, 2, 2), np.kron([1, 0], BELL).astype(complex)),
    "ghz4": ((2, 2, 2, 2), np.array([SQ2] + [0] * 14 + [SQ2], dtype=complex)),
}
MALFORMED = '{"dims": [2, 2], "amps": [[0.5, 0.0], [0.5'
SAMPLED = (  # name, dims, kind
    ("h3", (4, 4, 4), "haar"),
    ("p3", (4, 4, 4), "product"),
    ("h2", (8, 8), "haar"),
    ("pm", (2, 4, 8), "product"),
)


class Invocation:
    """One CLI call: argv, expected exit code, and a check of its document."""

    def __init__(self, argv, code: int, check=None, sample=None) -> None:
        self.argv = tuple(argv)
        self.code = code
        self.check = check
        self.sample = sample  # (path, dims, amps) the sample command must write


def _amps(doc) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc["amps"]])


class CliSmall:
    """Sequential ``python -m qconc.cli`` processes over a fixed seeded mix."""

    # Every op is a fresh process already, and a round takes several seconds.
    WORKERS = 1

    def __init__(self, seed: int, host) -> None:
        self.host = host
        self.seed = seed
        self.states: dict[str, tuple] = {}
        self.c2: dict[str, float] = {}
        self.mix: list[Invocation] = []
        self.digest = ""

    def _path(self, name: str) -> str:
        return str(self.host.workdir / f"{name}.json")

    def setup(self, full: bool = True) -> None:
        for name, (dims, amps) in NAMED_STATES.items():
            Path(self._path(name)).write_text(
                qconc.emit_state(qconc.make_state(dims, amps), label=name), encoding="utf-8"
            )
        Path(self._path("malformed")).write_text(MALFORMED, encoding="utf-8")
        rng = np.random.default_rng(self.seed)
        self.states = dict(NAMED_STATES)
        samples = []
        for name, dims, kind in SAMPLED:
            seed = int(rng.integers(0, 2**63))
            self.states[name] = (dims, contract_sample(dims, kind, seed))
            argv = ["sample", "--dims", ",".join(map(str, dims)), "--kind", kind,
                    "--seed", str(seed), "--out", self._path(name)]
            samples.append(Invocation(argv, 0, sample=(self._path(name), *self.states[name])))
        reads = self._reads()
        self.mix = samples + [reads[int(k)] for k in rng.permutation(len(reads))]
        workdir = str(self.host.workdir)
        h = hashlib.sha256(json.dumps(
            [[a.replace(workdir, "") for a in inv.argv] for inv in self.mix]).encode())
        for name in sorted(self.states):
            h.update(self.states[name][1].tobytes())
        self.digest = h.hexdigest()
        self.host.run_cli(self.mix[0].argv)  # warm-up

    def _reads(self) -> list[Invocation]:
        conc, sep = self._concurrence, self._separability
        fact, full = self._factorize, self._fullsep
        p = self._path
        return [
            *(Invocation(["concurrence", "--state", p(name)], 0, conc(name))
              for name in ("bell", "ghz", "w", "one_bell", "h3", "p3")),
            Invocation(["concurrence", "--state", p("ghz4")], 1, self._error("ArityError")),
            Invocation(["concurrence", "--state", p("malformed")], 2),
            Invocation(["separability", "--state", p("bell")], 0, sep("bell", [False, False])),
            Invocation(["separability", "--state", p("one_bell"), "--cut", "1"], 0,
                       sep("one_bell", [True])),
            Invocation(["separability", "--state", p("h2")], 0, sep("h2", [False, False])),
            Invocation(["separability", "--state", p("p3")], 0, sep("p3", [True] * 3)),
            Invocation(["factorize", "--state", p("one_bell"), "--cut", "1"], 0,
                       fact("one_bell", 1)),
            Invocation(["factorize", "--state", p("pm"), "--cut", "2"], 0, fact("pm", 2)),
            Invocation(["factorize", "--state", p("bell"), "--cut", "1"], 1,
                       self._error("CertificateError")),
            Invocation(["fullsep", "--state", p("ghz")], 0, full("ghz", [], [1, 2, 3])),
            Invocation(["fullsep", "--state", p("w")], 0, full("w", [], [1, 2, 3])),
            Invocation(["fullsep", "--state", p("one_bell")], 0, full("one_bell", [1], [2, 3])),
            Invocation(["fullsep", "--state", p("h3")], 0, full("h3", [], [1, 2, 3])),
            Invocation(["fullsep", "--state", p("p3")], 0, full("p3", [1, 2, 3], [])),
        ]

    # Expectations.

    def expect(self) -> None:
        """Squared concurrences: closed forms, and the purity oracle on the
        contract-sampled amplitudes for the sampled states."""
        self.c2 = {"bell": 1.0, "ghz": 3.0, "w": 8 / 3, "one_bell": 2.0, "p3": 0.0}
        dims, amps = self.states["h3"]
        self.c2["h3"] = qconc.oracle_concurrence(qconc.make_state(dims, amps)) ** 2

    def _concurrence(self, name):
        def check(doc):
            want, value = self.c2[name], doc["value"]
            if want == 0.0:
                return None if value <= 1e-10 else f"C = {value!r} on a product state"
            if abs(value * value - want) <= 1e-10 * want:
                return None
            return f"C^2 = {value * value!r}, want {want!r}"
        return check

    def _separability(self, name, verdicts):
        def check(doc):
            certs = doc["certificates"]
            if [c["separable"] for c in certs] != verdicts or doc["all_separable"] != all(verdicts):
                return f"separability verdicts {[c['separable'] for c in certs]}, want {verdicts}"
            for c in certs:
                if c["separable"] and not self._factors_match(name, c["cut"], c["factors"]):
                    return f"cut {c['cut']} factors do not reproduce {name}"
            return None
        return check

    def _factorize(self, name, cut):
        def check(doc):
            ok = doc["cut"] == cut and self._factors_match(name, cut, doc["factors"])
            return None if ok else f"factors do not reproduce {name} at cut {cut}"
        return check

    def _fullsep(self, name, factor_ids, remainder):
        def check(doc):
            ids = [f["subsystem"] for f in doc["factors"]]
            if ids != factor_ids or doc["remainder_subsystems"] != remainder:
                return f"fullsep factors {ids} remainder {doc['remainder_subsystems']}"
            if doc["fully_separable"] != (not remainder):
                return f"fully_separable = {doc['fully_separable']}"
            if not remainder:
                dims, amps = self.states[name]
                if fidelity(kron_all(_amps(f) for f in doc["factors"]), amps) < 1 - 1e-10:
                    return f"fullsep factors do not reproduce {name}"
            return None
        return check

    @staticmethod
    def _error(kind):
        def check(doc):
            got = doc["error"]["type"]
            return None if got == kind else f"error {got}, want {kind}"
        return check

    def _factors_match(self, name, cut, factors) -> bool:
        dims, amps = self.states[name]
        u, rest = (_amps(f) for f in factors)
        return fidelity(np.kron(u, rest), cut_first(amps, dims, cut)) >= 1 - 1e-10

    # Ops.

    def order(self) -> list[int]:
        return list(range(len(self.mix)))

    def kind(self, i: int) -> str:
        return "cli"

    def run(self, i: int):
        proc = self.host.run_cli(self.mix[i].argv)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, i: int, out) -> str | None:
        inv = self.mix[i]
        code, stdout, stderr = out
        where = " ".join(inv.argv[:1] + tuple(Path(a).stem for a in inv.argv[1:]))
        if "Traceback" in stderr:
            return f"{where}: traceback on stderr"
        if code != inv.code:
            return f"{where}: exit {code}, want {inv.code}"
        if code == 2:
            return None if not stdout and "error" in stderr else f"{where}: bad exit-2 output"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"{where}: stdout is not JSON"
        if inv.sample is not None:
            path, dims, amps = inv.sample
            written = json.loads(Path(path).read_text(encoding="utf-8"))
            drift = np.max(np.abs(_amps(written) - amps))
            if written["dims"] != list(dims) or not drift <= 4 * EPS:
                return f"{where}: written state differs from the sampler contract"
            return None
        return inv.check(doc) if inv.check else None

    def reference(self) -> float:
        """A bare interpreter start: process creation and start-up cost what
        a pure-Python loop does not, and they drift with the host."""
        return self.host.python("pass")

    def traced_extra(self, i: int, out) -> str | None:
        code, stdout = self.host.cli_in_process(self.mix[i].argv)
        if (code, stdout) != out[:2]:
            return f"in-process cli_main differs from the process for {self.mix[i].argv[0]}"
        return None

    def cli_probe(self) -> str | None:
        return None


WORKLOADS = {
    "cli_small": CliSmall,
    "bipartite_haar": BipartiteHaar,
    "tripartite_mixed": TripartiteMixed,
}
