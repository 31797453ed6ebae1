"""Registry-level invariants the evaluation driver depends on:
window ordering (the driver records CORRECTNESS rows for the FIRST 50
``queries()`` entries), full oracle coverage, and the machine-readable
window file staying in sync with the code."""

import ast
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _entry():
    import importlib
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as e

    return importlib.reload(e)


def test_window_is_the_registry_prefix():
    e = _entry()
    names = list(e.queries().keys())
    assert names[:50] == e._R5_WINDOW
    assert len(set(names)) == len(names)


def test_every_query_has_an_oracle():
    e = _entry()
    q, o = set(e.queries()), set(e.oracle_sql())
    assert q == o, (sorted(q - o), sorted(o - q))


def test_window_file_in_sync():
    e = _entry()
    with open(os.path.join(REPO, "scripts", "window_r05.json")) as f:
        w = json.load(f)
    names = list(e.queries().keys())
    assert w["window"] == e._R5_WINDOW
    assert w["registered_total"] == len(names)
    # deferred list = registered minus (previously checked + window)
    prev = set(w["cumulative_checked_before"])
    expect = sorted(n for n in names
                    if n not in prev and n not in set(e._R5_WINDOW))
    assert w["never_checked_after_expected"] == expect


RETIRED = {"_hash_partitioned", "arrow_bridge"}


def _groups_on_pkey(node) -> bool:
    """``<x>.groupby("pkey")``, ``<x>.sort("pkey", ...)`` or either with
    ``["pkey"]``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("groupby", "sort") and node.args):
        return False
    key = node.args[0]
    keys = key.elts if isinstance(key, (ast.List, ast.Tuple)) else [key]
    return any(isinstance(k, ast.Constant) and k.value == "pkey"
               for k in keys)


def _identifiers(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            yield n.name
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


def test_one_partition_primitive():
    """Hash-partitioned group kernels go through shuffle.partitioned:
    the package groups on "pkey" in that one place, and the retired
    per-module copies and the pandas-to-Arrow shim stay gone."""
    pkg = os.path.join(REPO, "geo_inference_ray")
    found, pkey_in_shuffle = [], 0
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if _groups_on_pkey(node):
                if name == "shuffle.py":
                    pkey_in_shuffle += 1
                else:
                    found.append(f"{name}:{node.lineno} groupby('pkey')")
        found += [f"{name}: {i}" for i in set(_identifiers(tree)) & RETIRED]
    assert not found, found
    assert pkey_in_shuffle == 1


# the rasterio window reader keeps one pool: each actor holds an open
# dataset handle (see the pools module docstring)
POOL_SITES = {("sources.py", "ReadWindows")}


def _pool_sites(tree):
    """``map_batches`` calls that ask for an actor pool, and any use of
    ``ActorPoolStrategy``, ``pool_caps`` or ``max_actors``, as
    (line, what, first argument name)."""
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "map_batches"):
            fn = n.args[0] if n.args else None
            name = fn.id if isinstance(fn, ast.Name) else None
            for kw in n.keywords:
                if kw.arg in ("concurrency", "fn_constructor_kwargs",
                              "fn_constructor_args", "compute"):
                    yield n.lineno, f"map_batches({kw.arg}=)", name
        if isinstance(n, ast.arg) and n.arg == "max_actors":
            yield n.lineno, "max_actors", None
    for i in set(_identifiers(tree)) & {"ActorPoolStrategy", "pool_caps",
                                        "max_actors"}:
        yield 0, i, None


def test_no_actor_pools():
    """Every map stage runs as a Ray task: no map_batches asks for an
    actor pool (concurrency=, constructor arguments, a compute
    strategy), and the pool sizing helper and its per-call cap stay
    gone.  The rasterio window reader is the one allowed pool."""
    pkg = os.path.join(REPO, "geo_inference_ray")
    found, allowed = [], 0
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read())
        for line, what, fn in _pool_sites(tree):
            if (name, fn) in POOL_SITES and what == "map_batches(concurrency=)":
                allowed += 1
            else:
                found.append(f"{name}:{line} {what}")
    assert not found, found
    assert allowed == len(POOL_SITES)


def test_one_table_reader():
    """Every Ray read of a parquet table goes through
    ``sources.read_table`` (or ``ParquetRowGroups`` directly): no
    ``read_parquet(`` call in the package or the entry module outside
    ``sources.py``."""
    pkg = os.path.join(REPO, "geo_inference_ray")
    paths = [os.path.join(pkg, n) for n in sorted(os.listdir(pkg))
             if n.endswith(".py") and n != "sources.py"]
    found = []
    for path in paths + [os.path.join(REPO, "__ray_entry__.py")]:
        with open(path) as f:
            tree = ast.parse(f.read())
        for n in ast.walk(tree):
            name = getattr(n, "func", None)
            if isinstance(n, ast.Call) and "read_parquet" in (
                    getattr(name, "attr", None), getattr(name, "id", None)):
                found.append(f"{os.path.basename(path)}:{n.lineno}")
    assert not found, found



# Ray aggregates kept on purpose, as "file:function".  The helpers' own
# groupby over the partials, past the driver bound, is the one left.
AGGREGATE_EXCEPTIONS = {"shuffle.py:fold_distributed"}


def _ray_aggregates(path: str):
    """("file:function", line) of each ``ray.data.aggregate`` import and
    each ``groupby(...).aggregate(`` call in ``path``."""
    base = os.path.basename(path)
    with open(path) as f:
        tree = ast.parse(f.read())

    def walk(node, fn):
        for n in ast.iter_child_nodes(node):
            name = n.name if isinstance(n, ast.FunctionDef) else fn
            if isinstance(n, ast.ImportFrom):
                hit = n.module == "ray.data.aggregate" or (
                    n.module == "ray.data"
                    and "aggregate" in [a.name for a in n.names])
            elif isinstance(n, ast.Import):
                hit = "ray.data.aggregate" in [a.name for a in n.names]
            else:
                f = getattr(n, "func", None)
                hit = (isinstance(n, ast.Call)
                       and getattr(f, "attr", None) == "aggregate"
                       and isinstance(f.value, ast.Call)
                       and getattr(f.value.func, "attr", None) == "groupby")
            if hit:
                yield f"{base}:{name}", n.lineno
            yield from walk(n, name)

    return list(walk(tree, ""))


def test_one_aggregate_path():
    """Every aggregate goes through ``shuffle.aggregate``: no
    ``ray.data.aggregate`` import and no Dataset ``groupby(...)
    .aggregate(`` in the package or the entry module, outside the named
    exceptions."""
    pkg = os.path.join(REPO, "geo_inference_ray")
    paths = [os.path.join(pkg, n) for n in sorted(os.listdir(pkg))
             if n.endswith(".py")]
    found = [f"{where}:{line}"
             for path in paths + [os.path.join(REPO, "__ray_entry__.py")]
             for where, line in _ray_aggregates(path)
             if where not in AGGREGATE_EXCEPTIONS]
    assert not found, found
