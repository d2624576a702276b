"""Shared test helpers: structure enumeration, oracles, random generators."""

import itertools
import os
import sys

# Pin BLAS to one thread before numpy loads it: the kernels here are tiny,
# and threaded BLAS on a machine with few cores slows the suite down.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from versal import SegreStructure, build_jcf, numerical_rank  # noqa: E402
from versal.jordan import _group_spans  # noqa: E402


def memos():
    """Every memo of the loaded ``versal`` modules, by qualified name.

    A memo is a module attribute with a ``cache_clear`` method, as the
    ``functools`` caches have.  They are found by scanning, so a new one is
    counted without being named here; one that another module imports is
    counted once, under the module that defines it.
    """
    found = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "versal":
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def clear_memos():
    for memo in memos().values():
        memo.cache_clear()


@pytest.fixture(autouse=True)
def no_kept_reading():
    """Start every test with every memo of versal empty.

    ``perturbation_experiment`` keeps its last reading and
    ``orbit_codim_oracle`` the nullity of each partition it has counted, so
    without this an eigensolve count or a memo's size would depend on the
    tests that ran before it.
    """
    clear_memos()


# Fixed eigenvalue pool, already in lexicographic (real, imag) order.
EIGENVALUE_POOL = (0.0 + 0.0j, 1.0 + 0.0j, 2.0 + 1.0j)


def partitions(n):
    """All descending integer partitions of ``n``."""
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    yield from rec(n, n)


def compositions(total, count):
    """Ordered tuples of ``count`` positive integers summing to ``total``."""
    if count == 1:
        yield (total,)
        return
    for head in range(1, total - count + 2):
        for tail in compositions(total - head, count - 1):
            yield (head,) + tail


def structures_of_size(total, pool=EIGENVALUE_POOL):
    """Every Segre structure of size ``total`` over prefixes of the pool."""
    for count in range(1, min(len(pool), total) + 1):
        for sizes in compositions(total, count):
            per_eig = [list(partitions(part)) for part in sizes]
            for combo in itertools.product(*per_eig):
                yield SegreStructure(list(zip(pool[:count], combo)))


def kron_commutator_nullity(structure):
    """Nullity of ``X -> X@A - A@X`` at ``A = build_jcf``, from its dense matrix.

    Reference for the group-wise oracle: the whole ``n^2 x n^2`` Kronecker
    matrix of the map on column-major ``vec(X)``.  The map sends each block
    ``X_gh`` of ``X`` (rows of group g, columns of group h) into itself, so
    the matrix is block diagonal over the pairs of groups, which is checked
    here; each diagonal block is ranked by ``numerical_rank``, against its
    own largest singular value.
    """
    n = structure.total_size
    a = build_jcf(structure)
    eye = np.eye(n)
    kron = np.kron(a.T, eye) - np.kron(eye, a)
    at = np.arange(n * n).reshape(n, n, order="F")  # X[i, j] is vec(X)[at[i, j]]
    spans = _group_spans(structure.partitions())
    outside = np.ones(kron.shape, dtype=bool)
    rank = 0
    for rows in spans:
        for cols in spans:
            block = np.ix_(at[rows, cols].ravel(), at[rows, cols].ravel())
            outside[block] = False
            rank += numerical_rank(kron[block])
    assert not kron[outside].any()
    return n * n - rank


def cluster(values, threshold):
    """Index lists of single-linkage clusters under the distance bound.

    Reference for ``jordan._cluster``, which ``jordan._recover_groups``
    clusters each perturbed group's spectrum with: every pair within the
    bound joins, clusters in the order of their first members.
    """
    # Python complex numbers: the same moduli as the code under test
    values = np.asarray(values).tolist()
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= threshold:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def leverrier_charpoly(a):
    """Characteristic polynomial coefficients [c_0, ..., c_{n-1}], monic x^n.

    Independent trace-recursion oracle; no eigenvalue or elimination code.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[n - k + 1] * np.eye(n)
        coeffs[n - k] = -np.trace(a @ m) / k
    return coeffs[:n]


def eigen_match_distance(u, v):
    """Greedy pairing distance between two equal-size eigenvalue multisets."""
    u = list(u)
    v = list(v)
    assert len(u) == len(v)
    worst = 0.0
    for x in u:
        j = min(range(len(v)), key=lambda i: abs(v[i] - x))
        worst = max(worst, abs(v.pop(j) - x))
    return worst


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def conditioned_matrix(rng, n, cond):
    """Random matrix with singular values log-spaced over a ratio of ``cond``."""
    s = np.geomspace(1.0, cond, n) / np.sqrt(cond)
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


def partition_multiset(structure):
    return tuple(sorted(structure.partitions()))


def structures_close(a, b, eig_tol=1e-6):
    """Same partitions in the same order, eigenvalues within ``eig_tol``."""
    if len(a.blocks) != len(b.blocks):
        return False
    return all(sa == sb and abs(ea - eb) <= eig_tol
               for (ea, sa), (eb, sb) in zip(a.blocks, b.blocks))
