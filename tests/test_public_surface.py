"""The package exports only names that the engine itself uses, and needs only the stdlib."""

import ast
import sys
from pathlib import Path

import motivic_pairs

SOURCE = Path(motivic_pairs.__file__).parent


def imported_names(path):
    # every name a module imports from a sibling module, at any depth
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_exported_name_is_used_inside_the_package():
    used = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "__init__.py":
            used |= imported_names(path)
    assert sorted(set(motivic_pairs.__all__) - used) == []


def test_every_imported_name_is_read_in_its_module():
    # an import that nothing reads is dead code; __init__.py imports to export
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == []


def test_every_import_is_relative_or_stdlib():
    # the engine declares no dependencies (pyproject.toml: dependencies = [])
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_budget_refusal_goes_through_one_guard():
    # `raise BudgetExceededError` is written once, in oracle.charge
    raisers = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(raised, "id", getattr(raised, "attr", None)) != "BudgetExceededError":
                continue
            scope = parents[node]
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            raisers.append(f"{path.name}: {getattr(scope, 'name', '<module>')}")
    assert raisers == ["oracle.py: charge"]


def test_a_polynomials_terms_are_set_only_where_it_is_built():
    # results are shared inside `lefschetz.lane_memo()`, so no code may change
    # a polynomial's _coeffs after __init__ or _trusted has built it
    writes = []
    mutators = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "_coeffs"):
                continue
            parent = parents[node]
            if isinstance(node.ctx, ast.Store):
                scope = parent
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                writes.append(f"{path.name}: {getattr(scope, 'name', '<module>')}")
            elif isinstance(parent, ast.Subscript) and not isinstance(parent.ctx, ast.Load):
                writes.append(f"{path.name}: item of _coeffs")
            elif isinstance(parent, ast.Attribute) and parent.attr in mutators:
                writes.append(f"{path.name}: _coeffs.{parent.attr}")
    assert sorted(writes) == ["lefschetz.py: __init__", "lefschetz.py: _trusted"]


def test_a_records_slots_are_set_only_in_its_init():
    # PairClass and TruncatedSeries are frozen and shared inside
    # `lefschetz.lane_memo()`; their __init__ writes through the slot
    # descriptors' __set__, bound once at module level, and nothing else may
    setters, calls = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def scope(node):
            while not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Module)):
                node = parents[node]
            return node

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__set__":
                where = "" if isinstance(scope(node), ast.Module) else f" in {scope(node).name}"
                setters.append(f"{path.name}: {ast.unparse(node.value)}{where}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", "").startswith("_set_"):
                method = scope(node)
                owner = getattr(parents.get(method), "name", "<module>")
                calls.append(f"{path.name}: {owner}.{getattr(method, 'name', '<module>')} {node.func.id}")
    assert sorted(setters) == ["pairs.py: PairClass.amb", "pairs.py: PairClass.comp", "series.py: TruncatedSeries.coeffs"]
    assert sorted(calls) == [
        "pairs.py: PairClass.__init__ _set_amb",
        "pairs.py: PairClass.__init__ _set_comp",
        "series.py: TruncatedSeries.__init__ _set_coeffs",
    ]


def test_trusted_wraps_only_fresh_dicts():
    # `_trusted` takes its dict over without a copy, and results are shared
    # inside `lefschetz.lane_memo()`, so each argument is a dict made on the
    # spot: a display or comprehension, or the return of a routine that
    # builds a new one, never a name that code still holds and may change
    def name(node):
        return getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None

    fresh = {"_unpack", "_terms"}
    wraps, stale = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if name(node) != "_trusted":
                continue
            wraps += 1
            args = node.args
            built = len(args) == 1 and (isinstance(args[0], (ast.Dict, ast.DictComp)) or name(args[0]) in fresh)
            if not built or node.keywords:
                stale.append(f"{path.name}:{node.lineno}")
    assert wraps and stale == []


def test_indented_json_has_one_renderer():
    # cli._render writes json.dumps(obj, indent=2) byte for byte; the pure-Python indented encoder stays unused
    callers = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_suites_charge_and_count_only_through_their_plan():
    # a suite's up-front price is a dry run of its plan: `_planned` holds its
    # only charges, and only `_Plan` makes an engine series or calls an
    # oracle, so no price is kept apart from the work it prices
    watched = {
        "charge", "charge_each",
        "_marked_union_pass", "count_power_configs", "count_squarefree_monic", "enumerate_projective",
        "zeta_series", "kapranov_zeta", "config_series_pair", "power_pow",
    }
    path = SOURCE / "suites.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = {
        (node.id, getattr(top, "name", "<module>"))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in watched
    }
    assert sorted(uses) == [
        ("_marked_union_pass", "_Plan"),
        ("charge", "_planned"),
        ("charge_each", "_planned"),
        ("config_series_pair", "_Plan"),
        ("count_power_configs", "_Plan"),
        ("count_squarefree_monic", "_Plan"),
        ("enumerate_projective", "_Plan"),
        ("kapranov_zeta", "_Plan"),
        ("power_pow", "_Plan"),
        ("zeta_series", "_Plan"),
    ]


def sibling_imports(path):
    # the sibling modules a module imports from
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_geometry_builds_no_series():
    # the worked example's geometry handles points over F_q only: it sits
    # below the classes, the series engine and the suites
    assert sibling_imports(SOURCE / "geometry.py") == {"field"}


def test_every_import_is_at_module_level_and_the_layers_are_acyclic():
    # no import is deferred into a function or class body, so the module
    # graph is the whole story, and it has no cycle
    deferred = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        deferred += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert deferred == []
    graph = {path.stem: sibling_imports(path) for path in SOURCE.glob("*.py") if path.name != "__init__.py"}
    placed = set()
    while len(placed) < len(graph):
        ready = {module for module, needs in graph.items() if module not in placed and needs <= placed}
        assert ready, f"import cycle among {sorted(set(graph) - placed)}"
        placed |= ready


def test_commands_price_only_through_a_plan():
    # zeta, pow and example run on a suite's plan, dry then live, so cli.py
    # reads no price and calls no engine routine that one prices; the only
    # charges outside the guard's module and the spec grammar are _planned's
    priced = {
        "charge", "charge_each", "marked_union_steps", "_marked_union_pass", "zeta_cost", "pow_cost",
        "tail_slopes", "kapranov_zeta", "power_pow",
    }
    path = SOURCE / "cli.py"
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            read.add(getattr(node, "id", getattr(node, "attr", None)))
    assert sorted(read & priced) == []
    charges = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name in ("oracle.py", "pairs.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None
            if name not in ("charge", "charge_each"):
                continue
            scope = parents[node]
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            charges.append(f"{path.name}: {getattr(scope, 'name', '<module>')}: {name}")
    assert charges == ["suites.py: _planned: charge", "suites.py: _planned: charge_each"]


def test_every_packed_width_comes_from_one_bound():
    # each _digit_width call in lefschetz.py sizes its digits by _bound, called
    # in its argument or through names the same function assigns from it, or
    # by the binomial bound of zeta's product route
    path = SOURCE / "lefschetz.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def reads(node):
        # the names node reads, the functions it calls by name among them
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    rules = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        assigns = [
            ({t.id for t in node.targets if isinstance(t, ast.Name)}, reads(node.value))
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
        ]
        bounded = {"_bound"}
        while any(names - bounded and read & bounded for names, read in assigns):
            bounded |= set().union(*[names for names, read in assigns if read & bounded])
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_digit_width":
                (arg,) = node.args
                read = reads(arg)
                rules.append((function.name, "_bound" if read & bounded else "comb" if "comb" in read else None))
    assert sorted(rules) == [
        ("__init__", "_bound"),
        ("_packed_series", "_bound"),
        ("_zeta_product", "comb"),
    ]


def test_zeta_route_rule_lives_in_one_function():
    # zeta_series and config_series route a lane by calling one predicate,
    # so the two cannot take different routes for one class, and no other
    # code compares a class against the _ZETA_PASSES threshold
    readers, callers = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id == "_ZETA_PASSES":
                    readers.append(f"{path.name}: {function.name}")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_product_route":
                    callers.append(f"{path.name}: {function.name}")
    assert readers == ["lefschetz.py: _product_route"]
    assert sorted(callers) == ["lefschetz.py: zeta_series", "power.py: config_series"]


def test_recurrence_pack_rule_lives_in_one_function():
    # a ghost recurrence starts packing by one predicate, the only reader of
    # its constants, and reads none of the sum rule's names
    constants = {"_PACK_READ", "_PACK_FIXED", "_PACK_AREA"}
    readers, callers, recurrence_reads = [], [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id in constants:
                    readers.append(f"{path.name}: {function.name}")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_packs":
                    callers.append(f"{path.name}: {function.name}")
                if function.name == "_recurrence" and isinstance(node, ast.Name):
                    recurrence_reads.add(node.id)
    assert sorted(set(readers)) == ["lefschetz.py: _packs"]
    assert len(readers) == len(constants)
    assert set(callers) == {"lefschetz.py: _recurrence"}
    assert not recurrence_reads & {"_PACK_TERMS", "_PACK_SPREAD", "_either_dense"}


def test_series_pack_rule_lives_in_one_function():
    # a series product packs its factors by one predicate, the only reader of
    # its constants, called only by the series product, and reads none of the
    # sum rule's names
    constants = {"_SERIES_FIXED", "_SERIES_AREA"}
    readers, callers, rule_reads = [], [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id in constants:
                    readers.append(f"{path.name}: {function.name}")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_packs_series":
                    callers.append(f"{path.name}: {function.name}")
                if function.name == "_packs_series" and isinstance(node, ast.Name):
                    rule_reads.add(node.id)
    assert sorted(set(readers)) == ["lefschetz.py: _packs_series"]
    assert len(readers) == len(constants)
    assert callers == ["lefschetz.py: series_product"]
    assert not rule_reads & {"_PACK_TERMS", "_PACK_SPREAD", "_either_dense"}
