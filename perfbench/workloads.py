"""The benchmark's three seeded workloads: input generators, operations, checks.

Every workload is a closed loop with one caller.  A generator turns a seed
into an endless stream of inputs, built from numpy's generator alone; versal
receives only those inputs.  Each workload splits an operation into
``prepare`` (untimed: wrap or write the inputs), ``operate`` (timed: the calls
into versal, or one ``versal`` process) and ``check`` (untimed: verify the
output with well-conditioned invariants and raise :class:`WrongOutput`).

* ``recovery`` - ``linearization.recover`` on fresh monic polynomials, one
  of each of six shapes per operation; the Kronecker commutator solve in
  ``linalg.min_norm_least_squares`` dominates.
* ``experiments`` - the paper's qualitative analysis of one Jordan structure:
  codimensions, patterns, a perturbation experiment, closure and transport;
  many small eigenvalue and SVD calls plus Python overhead.
* ``cli`` - one fresh ``versal`` process per operation; interpreter start-up,
  imports and the JSON files dominate.

No operation of these workloads fails.  When versal's rank decisions do not
fit an input at its default tolerances, ``recover_structure`` raises
``InconsistentRanks`` rather than guess a structure.  That outcome is correct
under versal's raise-never-guess contract, so an operation that meets it is
*inconclusive*: it is counted (``conclusive_share``), and the rest of its
output is still checked.  Any other error is a failed operation.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from versal import closure, codimension, deformation, jordan, linearization
from versal.errors import InconsistentRanks, VersalError

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_STREAMS = {"recovery": 1, "experiments": 2, "cli": 3}

# Distinct eigenvalues at least 1 apart, so the pattern perturbations
# (at most 0.1 per parameter) never merge two groups.
EIGENVALUES = (0, 1, -1, 1j, -1j, 2, -2, 2j, 1 + 1j)
REPLACEMENTS = (3, -3, 3j, -3j, 3 + 3j, -3 + 3j)


class WrongOutput(Exception):
    """An operation returned normally but its output fails a check."""


# how ``versal`` reports an InconsistentRanks error on stderr
_CLI_INCONCLUSIVE = re.compile(r"^error: rank sequence near .* tolerances do not fit this input$",
                               re.M)


class CliFailure(Exception):
    """A ``versal`` process exited with a non-zero code."""

    def __init__(self, code, stderr):
        super().__init__(f"exit code {code}: {stderr.strip()[-300:]}")
        self.code = code


def _expect(ok, message):
    if not ok:
        raise WrongOutput(message)


def _rng(seed, workload, stream):
    return np.random.default_rng([seed, _STREAMS[workload], stream])


def _log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _partition(rng, total):
    parts = []
    while total:
        k = int(rng.integers(1, total + 1))
        parts.append(k)
        total -= k
    return tuple(sorted(parts, reverse=True))


def _structure_blocks(rng, n, groups):
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), groups - 1, replace=False))
    sizes = np.diff([0, *cuts, n])
    picks = rng.choice(len(EIGENVALUES), groups, replace=False)
    return tuple((complex(EIGENVALUES[e]), _partition(rng, int(m)))
                 for e, m in zip(picks, sizes))


def _pattern_values(rng, codim):
    count = min(int(rng.integers(1, 4)), codim)
    params = sorted(int(p) for p in rng.choice(np.arange(1, codim + 1), count, replace=False))
    return {p: _log_uniform(rng, 1e-3, 1e-1) * cmath.exp(2j * math.pi * rng.random())
            for p in params}


def orbit_codim_formula(blocks):
    """Independent copy of the parameter-count formula sum_j (2j - 1) k_j."""
    return sum((2 * j - 1) * k for _, sizes in blocks for j, k in enumerate(sizes, start=1))


def jordan_matrix(blocks):
    """Block-diagonal Jordan matrix, blocks in listed order."""
    n = sum(sum(sizes) for _, sizes in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for eig, sizes in blocks:
        for k in sizes:
            out[at:at + k, at:at + k] = np.eye(k) * eig + np.eye(k, k=1)
            at += k
    return out


def companion_matrix(coefficients):
    """Block companion matrix of ``x^d I + A_{d-1} x^{d-1} + ... + A_0``."""
    d, n = len(coefficients), coefficients[0].shape[0]
    out = np.zeros((d * n, d * n), dtype=complex)
    for j, a in enumerate(reversed(coefficients)):
        out[:n, j * n:(j + 1) * n] = -a
    out[n:, :(d - 1) * n] = np.eye((d - 1) * n)
    return out


# Relative backward error ||(C+E)S - S C_{P+F}||_F / (||C+E||_F ||S||_F) allowed
# for a recovery.  It is well conditioned whatever the spectrum; observed
# values are below 1e-15, and a 1e-8 change to one recovered coefficient
# entry raises it to about 1e-10.
BACKWARD_TOL = 1e-12


def check_recovery(coefficients, perturbation, recovered, transform):
    """Raise :class:`WrongOutput` unless ``transform`` carries the perturbed
    linearization to the companion matrix of ``recovered``."""
    d, n = len(coefficients), coefficients[0].shape[0]
    _expect(len(recovered) == d and all(c.shape == (n, n) for c in recovered),
            f"recovered polynomial has the wrong shape for d={d}, n={n}")
    perturbed = companion_matrix(coefficients) + perturbation
    s = np.asarray(transform)
    error = np.linalg.norm(perturbed @ s - s @ companion_matrix(recovered)) / (
        np.linalg.norm(perturbed) * np.linalg.norm(s))
    _expect(error <= BACKWARD_TOL,
            f"recovery backward error {error:.3e} above {BACKWARD_TOL:g}")


class InProcess:
    """Shared parts of the workloads that call versal inside this process."""

    failure = VersalError

    def __init__(self, scratch):
        self.stats = Counter()

    def failure_name(self, exc):
        return type(exc).__name__

    def inconclusive(self, out):
        return False

    def attach(self, tracer):
        tracer.install()

    def detach(self, tracer):
        tracer.uninstall()

    def peak_rss_mb(self):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class RecoveryInput(NamedTuple):
    d: int
    n: int
    coefficients: tuple
    perturbation: np.ndarray
    relative_norm: float


class Recovery(InProcess):
    """``recover`` on six fresh monic polynomials per operation, one per shape.

    Every operation recovers one polynomial of each (d, n) below; dn = 16 is
    ``linearization.MAX_ORDER``.  A single call costs 2-3 ms at dn = 8 and
    20-60 ms at dn = 16 depending on the shape, so the median of single
    calls would fall in a gap between shapes and jump with small changes in
    the sweep mix; the time of one call per shape has one mode.  The
    perturbation norm is log-uniform relative to ``||C_P||_F``, which spreads
    the sweep count over 2 and 3.
    """

    name = "recovery"
    shapes = ((2, 4), (4, 2), (2, 8), (4, 4), (8, 2), (16, 1))
    relative_norms = (1e-6, 1e-2)
    tol = 1e-12
    trace_window = 7
    warmup_ops = 1
    tail_percentile = 95.0

    @classmethod
    def inputs(cls, seed, stream=0):
        rng = _rng(seed, cls.name, stream)
        while True:
            yield tuple(cls._problem(rng, d, n) for d, n in cls.shapes)

    @staticmethod
    def _problem(rng, d, n):
        coefficients = tuple(_complex_normal(rng, (n, n)) for _ in range(d))
        e = _complex_normal(rng, (d * n, d * n))
        rel = _log_uniform(rng, *Recovery.relative_norms)
        c_norm = math.sqrt(sum(np.linalg.norm(a) ** 2 for a in coefficients) + (d - 1) * n)
        return RecoveryInput(d, n, coefficients, e * (rel * c_norm / np.linalg.norm(e)), rel)

    def op_class(self, inp):
        return "all shapes"

    def count(self, inp):
        for p in inp:
            self.stats[(p.d, p.n)] += 1

    def prepare(self, inp):
        return [(linearization.MonicPolynomial(p.coefficients), p.perturbation) for p in inp]

    def operate(self, args):
        return [linearization.recover(poly, perturbation, tol=self.tol)
                for poly, perturbation in args]

    def check(self, inp, results):
        for p, result in zip(inp, results, strict=True):
            _expect(result.residual_trace[-1] <= self.tol,
                    f"final unstructured norm {result.residual_trace[-1]:.3e} above {self.tol:g}")
            check_recovery(p.coefficients, p.perturbation,
                           result.recovered.coefficients, result.transform)

    def describe(self):
        dn_mix = Counter()
        for (d, n), ops in self.stats.items():
            dn_mix[d * n] += ops
        return {"dn_mix": dict(sorted(dn_mix.items())),
                "shape_mix": {f"{d}x{n}": ops for (d, n), ops in self.stats.items()}}


class ExperimentInput(NamedTuple):
    structure_index: int
    blocks: tuple
    values: dict
    replacements: tuple


class Experiments(InProcess):
    """One structure through the paper's qualitative analysis per operation.

    The pool holds three structures per (total size 4..16, 1..3
    eigenvalues), so the size mix is the same for every seed and the cost of
    one seed's partitions averages out; each pass visits the pool in a fresh
    order and each visit draws new Arnold parameters.  Parameter
    magnitudes are log-uniform in 1e-3..1e-1.  About a tenth of the
    operations, mostly on structures of size 12 and more, are inconclusive:
    the perturbation experiment or the transport raises
    ``InconsistentRanks``.
    """

    name = "experiments"
    sizes = range(4, 17)
    groups = (1, 2, 3)
    per_cell = 3
    trace_window = 156
    warmup_ops = 40
    # p99.8 keeps 20+ samples beyond it but swung from 7 to 30 ms between
    # runs with the machine's hiccups; p99 keeps 100+ and stays steady
    tail_percentile = 99.0

    def __init__(self, scratch):
        super().__init__(scratch)
        self._seen = set()
        self._sizes = Counter()
        self._groups = Counter()

    @classmethod
    def inputs(cls, seed, stream=0):
        rng = _rng(seed, cls.name, stream)
        pool = [_structure_blocks(rng, n, g)
                for n in cls.sizes for g in cls.groups for _ in range(cls.per_cell)]
        while True:
            for index in rng.permutation(len(pool)):
                blocks = pool[index]
                values = _pattern_values(rng, orbit_codim_formula(blocks))
                replacements = ()
                if len(blocks) > 1:
                    picks = rng.choice(len(REPLACEMENTS), len(blocks), replace=False)
                    replacements = tuple(complex(REPLACEMENTS[p]) for p in picks)
                yield ExperimentInput(int(index), blocks, values, replacements)

    def op_class(self, inp):
        return f"n={sum(sum(s) for _, s in inp.blocks)}"

    def count(self, inp):
        n = sum(sum(s) for _, s in inp.blocks)
        self.stats["ops"] += 1
        self.stats["reused"] += inp.structure_index in self._seen
        self.stats["oracle"] += n <= codimension.MAX_ORACLE_ORDER
        self.stats["transport"] += bool(inp.replacements)
        self._seen.add(inp.structure_index)
        self._sizes[n] += 1
        self._groups[len(inp.blocks)] += 1

    def prepare(self, inp):
        return jordan.SegreStructure(inp.blocks), inp.values, inp.replacements

    def operate(self, args):
        structure, values, replacements = args
        out = {
            "orbit": codimension.orbit_codim(structure),
            "bundle": codimension.bundle_codim(structure),
            "arnold": deformation.arnold_pattern(structure).parameter_count,
            "alternate": deformation.alternate_pattern(structure).parameter_count,
        }
        if structure.total_size <= codimension.MAX_ORACLE_ORDER:
            out["oracle"] = codimension.orbit_codim_oracle(structure)
        try:
            out["recovered"] = closure.perturbation_experiment(structure, values)
            out["verdict"] = closure.closure_necessary(out["recovered"], structure,
                                                       closure.ClosureMode.BUNDLE)
            if replacements:
                out["transport"] = closure.transport_perturbation(structure, replacements,
                                                                  values)
        except InconsistentRanks:
            out["inconclusive"] = True
        return out

    def inconclusive(self, out):
        return out.get("inconclusive", False)

    def check(self, inp, out):
        n = sum(sum(sizes) for _, sizes in inp.blocks)
        codim = orbit_codim_formula(inp.blocks)
        _expect(out["orbit"] == codim, f"orbit_codim {out['orbit']} != {codim}")
        _expect(out["bundle"] == codim - len(inp.blocks), "bundle_codim off the formula")
        _expect(out["arnold"] == codim and out["alternate"] == codim,
                f"pattern parameter counts {out['arnold']}, {out['alternate']} != {codim}")
        if "oracle" in out:
            _expect(out["oracle"] == codim, f"oracle {out['oracle']} != orbit_codim {codim}")
        if "recovered" not in out:
            return
        recovered = out["recovered"]
        _expect(recovered.total_size == n,
                f"recovered total size {recovered.total_size} != {n}")
        # the perturbation moves eigenvalues, so the source lies in the closure
        # of the recovered bundle, not of its orbit
        _expect(out["verdict"].possible,
                "source bundle not in the closure of the recovered bundle")
        if "transport" in out:
            first, second = out["transport"]
            _expect(first == recovered, "transport disagrees with perturbation_experiment")
            _expect(second.total_size == n, "transported structure has the wrong size")
            # bundle theory says the partition multisets agree; a mismatch is
            # a tolerance decision, recorded rather than treated as wrong
            if sorted(first.partitions()) != sorted(second.partitions()):
                self.stats["transport_partition_mismatch"] += 1

    def describe(self):
        ops = max(self.stats["ops"], 1)
        return {
            "structure_size_mix": dict(sorted(self._sizes.items())),
            "eigenvalue_count_mix": dict(sorted(self._groups.items())),
            "structure_reuse_share": self.stats["reused"] / ops,
            "oracle_share": self.stats["oracle"] / ops,
            "transport_share": self.stats["transport"] / ops,
            "transport_partition_mismatch": self.stats["transport_partition_mismatch"],
        }


def _pairs(matrix):
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).ravel()]


def _matrix_doc(m):
    return {"kind": "matrix", "rows": m.shape[0], "cols": m.shape[1], "entries": _pairs(m)}


def _parse_matrix_doc(doc):
    entries = np.array([complex(re_, im) for re_, im in doc["entries"]])
    return entries.reshape(doc["rows"], doc["cols"])


def _complex_arg(z):
    return f"{z.real!r},{z.imag!r}"


class CliInput(NamedTuple):
    group: int
    repeat: int
    command: str
    argv: tuple
    outputs: tuple
    documents: tuple
    meta: dict


class Cli:
    """One fresh ``versal`` process per operation, run one at a time.

    Every input group is run twice in a row, so the second run of each
    command checks that identical inputs give byte-identical stdout and
    output files.  Half the commands write output files.  An ``experiment``
    that exits 1 with versal's InconsistentRanks message is inconclusive,
    and its repeat must be inconclusive too.
    """

    name = "cli"
    commands = ("jcf", "codim", "pattern", "experiment", "recover", "reduce-block")
    writers = ("pattern", "recover", "reduce-block")
    poly_shapes = ((2, 2), (3, 2), (2, 3))
    failure = CliFailure
    trace_window = 12
    warmup_ops = 2
    tail_percentile = 80.0

    def __init__(self, scratch):
        import tempfile
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        self.env = child_env()
        self.tracer = None
        self.peak_rss_kb = 0
        self.stats = Counter()
        self._digests = {}
        self._written = set()

    @classmethod
    def inputs(cls, seed, stream=0):
        rng = _rng(seed, cls.name, stream)
        for group in itertools.count():
            yield from cls._group_inputs(rng, group)

    @classmethod
    def _group_inputs(cls, rng, g):
        def path(stem):
            return f"{{dir}}/g{g}-{stem}.json"

        n = int(rng.integers(4, codimension.MAX_ORACLE_ORDER + 1))
        blocks = _structure_blocks(rng, n, int(rng.integers(1, 4)))
        values = _pattern_values(rng, orbit_codim_formula(blocks))
        d, m = cls.poly_shapes[int(rng.integers(len(cls.poly_shapes)))]
        coefficients = tuple(_complex_normal(rng, (m, m)) for _ in range(d))
        c_norm = math.sqrt(sum(np.linalg.norm(a) ** 2 for a in coefficients) + (d - 1) * m)
        e = _complex_normal(rng, (d * m, d * m))
        e *= _log_uniform(rng, 1e-6, 1e-3) * c_norm / np.linalg.norm(e)
        k = int(rng.integers(3, 7))
        lam = complex(EIGENVALUES[int(rng.integers(len(EIGENVALUES)))])
        block_e = _complex_normal(rng, (k, k))
        block = np.eye(k) * lam + np.eye(k, k=1) + block_e * (
            _log_uniform(rng, 1e-4, 1e-2) / np.linalg.norm(block_e))

        documents = (
            (path("structure"), {"kind": "segre", "blocks": [
                {"eigenvalue": [eig.real, eig.imag], "sizes": list(sizes)}
                for eig, sizes in blocks]}),
            (path("poly"), {"kind": "polynomial", "degree": d, "size": m,
                            "coefficients": [_pairs(a) for a in coefficients]}),
            (path("perturbation"), _matrix_doc(e)),
            (path("block"), _matrix_doc(block)),
        )
        structure = path("structure")
        runs = {
            "jcf": (("jcf", structure), ()),
            "codim": (("codim", structure, "--oracle"), ()),
            "pattern": (("pattern", structure, "--out", path("pattern")), (path("pattern"),)),
            "experiment": (("experiment", structure, *itertools.chain.from_iterable(
                ("--set", f"{p}={_complex_arg(v)}") for p, v in values.items())), ()),
            "recover": (("recover", path("poly"), path("perturbation"),
                         "--out-poly", path("recovered"),
                         "--out-transform", path("recover-transform")),
                        (path("recovered"), path("recover-transform"))),
            "reduce-block": (("reduce-block", path("block"), f"--lambda={_complex_arg(lam)}",
                              "--out-deformed", path("deformed"),
                              "--out-transform", path("reduce-transform")),
                             (path("deformed"), path("reduce-transform"))),
        }
        meta = {"blocks": blocks, "coefficients": coefficients, "perturbation": e,
                "block": block, "lambda": lam}
        for repeat in range(2):
            for command in cls.commands:
                argv, outputs = runs[command]
                yield CliInput(g, repeat, command, argv, outputs, documents, meta)

    def op_class(self, inp):
        return inp.command

    def count(self, inp):
        self.stats[inp.command] += 1

    def _path(self, template):
        return template.replace("{dir}", str(self.dir))

    def prepare(self, inp):
        if inp.group not in self._written:
            for template, doc in inp.documents:
                Path(self._path(template)).write_text(json.dumps(doc), encoding="utf-8")
            self._written.add(inp.group)
        return [self._path(a) for a in inp.argv]

    def operate(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-c", "import sys; from versal.cli import main; sys.exit(main())"]
        else:
            spans_path = self.dir / "spans.jsonl"
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans_path)]
        stdout, stderr, code, rss_kb = run_child(cmd + argv, self.env, self.dir / "stderr.txt")
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if self.tracer is not None:
            self.tracer.absorb(tracing.load_spans(spans_path))
        if code == 1 and argv[0] == "experiment" and _CLI_INCONCLUSIVE.search(stderr):
            return None
        if code != 0:
            raise CliFailure(code, stderr)
        return stdout

    def failure_name(self, exc):
        return f"exit_{exc.code}"

    def inconclusive(self, out):
        return out is None

    def attach(self, tracer):
        self.tracer = tracer

    def detach(self, tracer):
        self.tracer = None

    def check(self, inp, stdout):
        if stdout is None:
            digest = "inconclusive"
        else:
            text = stdout.decode("utf-8")
            outputs = [Path(self._path(p)).read_bytes() for p in inp.outputs]
            getattr(self, "_check_" + inp.command.replace("-", "_"))(inp, text, outputs)
            digest = hashlib.sha256(stdout + b"".join(outputs)).hexdigest()
        key = (inp.group, inp.command)
        if key in self._digests:
            _expect(self._digests[key] == digest,
                    f"{inp.command}: output differs for identical input")
            self.stats["identity_checks"] += 1
        else:
            self._digests[key] = digest

    def _check_jcf(self, inp, text, outputs):
        rows = [[complex(tok) for tok in line.split()] for line in text.splitlines()]
        _expect(np.array_equal(np.array(rows), jordan_matrix(inp.meta["blocks"])),
                "jcf: printed matrix is not the Jordan matrix")

    def _check_codim(self, inp, text, outputs):
        blocks = inp.meta["blocks"]
        codim = orbit_codim_formula(blocks)
        n = sum(sum(s) for _, s in blocks)
        expected = f"codim={codim}\ndimension={n * n - codim}\noracle={codim}\noracle_agrees=yes\n"
        _expect(text == expected, f"codim: unexpected report {text!r}")

    def _check_pattern(self, inp, text, outputs):
        codim = orbit_codim_formula(inp.meta["blocks"])
        doc = json.loads(outputs[0])
        _expect(f"parameters={codim}\n" in text and doc["kind"] == "pattern"
                and doc["parameters"] == codim and f"stars={len(doc['stars'])}\n" in text,
                "pattern: parameter or star counts wrong")

    def _check_experiment(self, inp, text, outputs):
        blocks = inp.meta["blocks"]
        n = sum(sum(s) for _, s in blocks)
        recovered = re.search(r"^recovered=(.*)$", text, re.M).group(1)
        sizes = [int(k) for k in re.findall(r"\d+", " ".join(re.findall(r"\[[\d, ]*\]", recovered)))]
        _expect(sum(sizes) == n, f"experiment: recovered total size {sum(sizes)} != {n}")
        before, after = map(int, re.search(r"^orbit_codim: (\d+) -> (\d+)$", text, re.M).groups())
        _expect(before == orbit_codim_formula(blocks) and after <= before,
                f"experiment: codimension {before} -> {after} breaks the closure order")

    def _check_recover(self, inp, text, outputs):
        _expect(re.search(r"^similarity_residual=\S+ \(PASS\)$", text, re.M) is not None
                and re.search(r"^eigenvalue_match=\S+ \(PASS\)$", text, re.M) is not None,
                "recover: PASS lines missing")
        poly = json.loads(outputs[0])
        size = poly["size"]
        recovered = [_parse_matrix_doc({"rows": size, "cols": size, "entries": c})
                     for c in poly["coefficients"]]
        check_recovery(inp.meta["coefficients"], inp.meta["perturbation"], recovered,
                       _parse_matrix_doc(json.loads(outputs[1])))

    def _check_reduce_block(self, inp, text, outputs):
        _expect(re.search(r"^charpoly_check=\S+ \(PASS\)$", text, re.M) is not None,
                "reduce-block: PASS line missing")
        a = inp.meta["block"]
        deformed = _parse_matrix_doc(json.loads(outputs[0]))
        s = _parse_matrix_doc(json.loads(outputs[1]))
        k = a.shape[0]
        shifted = deformed - inp.meta["lambda"] * np.eye(k)
        _expect(np.array_equal(shifted[:-1], np.eye(k, k=1)[:-1]),
                "reduce-block: deformation is not confined to the last row")
        error = np.linalg.norm(a @ s - s @ deformed) / (np.linalg.norm(a) * np.linalg.norm(s))
        _expect(error <= BACKWARD_TOL, f"reduce-block: similarity error {error:.3e}")

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0

    def describe(self):
        mix = {c: self.stats[c] for c in self.commands}
        return {
            "command_mix": mix,
            "writing_share": sum(mix[c] for c in self.writers) / max(sum(mix.values()), 1),
            "identity_checks": self.stats["identity_checks"],
        }

    def close(self):
        import shutil
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Recovery, Experiments, Cli)}


def child_env():
    """Environment for every process the benchmark starts.

    Bytecode caching stays on whatever the caller's environment says, so
    timed imports load compiled bytecode as an installed package would.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, env, stderr_path):
    """Run ``cmd`` to completion; return stdout, stderr, exit code, peak RSS (KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return stdout, Path(stderr_path).read_text(encoding="utf-8"), proc.returncode, usage.ru_maxrss
