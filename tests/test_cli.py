import contextlib
import copy
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder import cli
from multiorder.cli import (
    EXIT_BUDGET,
    EXIT_CERT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    run,
)
from multiorder.finite import FiniteNOrder, from_pattern
from multiorder.genericity import IntervalConstraint, MultiOrder, from_matrix, satisfies
from multiorder.matrix import build
from multiorder.orders import LinearForm, OrderSpec
from multiorder.field import PrecisionExceededError, RadicalBasis, fs_cofactors
from multiorder.lattice import iter_box
from multiorder.refuter import refute
from multiorder.serialize import certificate_to_json


B23 = RadicalBasis((2, 3))
# Small orders on which refute gives each lemma tag.
INSTANCES = {
    "dependent": [
        OrderSpec(2, (LinearForm((B23.one, B23.sqrt(2))),)),
        OrderSpec(2, (LinearForm((B23.sqrt(2), B23.rational(2))),)),
    ],
    "small_volume": [
        OrderSpec(2, (LinearForm((B23.one, B23.sqrt(2))),)),
        OrderSpec(2, (LinearForm((B23.sqrt(3), B23.one)),)),
    ],
    "discrete": [OrderSpec(1, (LinearForm((B23.one,)),))],
    "rational_kernel": [
        OrderSpec(2, (LinearForm((B23.one, B23.one)), LinearForm((B23.zero, B23.one)))),
        OrderSpec(2, (LinearForm((B23.one, B23.sqrt(2))),)),
    ],
}
# What refute gave on INSTANCES while certificates also carried k, reversed,
# det, widths and pair.
OLD_SHAPE_CERTIFICATES = {
    "dependent": (
        '{"lemma_tag": "Dependent", "constraints": [{"lower": [0, 0], "upper": [-1, 1]}, '
        '{"lower": [-2, -2], "upper": [-1, -1]}], "evidence": {"k": 1, "coeffs": '
        '[{"basis": [2, 3], "terms": [{"radicand": 2, "num": 1, "den": 1}]}], '
        '"reversed": [false]}}'
    ),
    "small_volume": (
        '{"lemma_tag": "SmallVolume", "constraints": [{"lower": [0, 0], "upper": [-1, 1]}, '
        '{"lower": [0, 0], "upper": [-1, 2]}], "evidence": {"det": {"basis": [2, 3], '
        '"terms": [{"radicand": 1, "num": 1, "den": 1}, {"radicand": 6, "num": -1, '
        '"den": 1}]}, "widths": [{"basis": [2, 3], "terms": [{"radicand": 1, "num": -1, '
        '"den": 1}, {"radicand": 2, "num": 1, "den": 1}]}, {"basis": [2, 3], "terms": '
        '[{"radicand": 1, "num": 2, "den": 1}, {"radicand": 3, "num": -1, "den": 1}]}]}}'
    ),
    "discrete": (
        '{"lemma_tag": "DiscreteBase", "constraints": [{"lower": [0], "upper": [1]}], '
        '"evidence": {"order": 0, "pair": [[0], [1]]}}'
    ),
    "rational_kernel": (
        '{"lemma_tag": "RationalKernel", "constraints": [{"lower": [0, 0], "upper": '
        '[-1, 1]}, {"lower": [0, 0], "upper": [-1, 1]}], "evidence": {"order": 0, '
        '"kernel_basis": [[-1, 1]], "inner": {"lemma_tag": "DiscreteBase", '
        '"constraints": [{"lower": [0], "upper": [1]}], "evidence": {"order": 0, '
        '"pair": [[0], [1]]}}}}'
    ),
}
# Values a mutation puts in place of one JSON node.
REPLACEMENTS = [None, True, False, 0, 1, -1, 10**30, 10**400, 1.5, "x", "-inf", [], [[0]], {}]
FUZZ_EXAMPLES = 1500


def json_paths(node, path=()):
    """The key path of every node below the root of a JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate(obj, data) -> None:
    """One drawn mutation of a JSON tree, in place: replace a node, delete a
    key, or truncate or duplicate into a list."""
    *head, key = data.draw(st.sampled_from(list(json_paths(obj))))
    parent = obj
    for k in head:
        parent = parent[k]
    node = parent[key]
    actions = ["replace"]
    if isinstance(parent, dict):
        actions.append("delete")
    if isinstance(node, list) and node:
        actions += ["truncate", "duplicate"]
    action = data.draw(st.sampled_from(actions))
    if action == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif action == "delete":
        del parent[key]
    elif action == "truncate":
        parent[key] = node[: data.draw(st.integers(0, len(node) - 1))]
    else:
        node.append(copy.deepcopy(data.draw(st.sampled_from(node))))


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture()
def m2_file(tmp_path):
    return write_json(tmp_path, "m2.json", from_matrix(build(2, 0)).to_json())


@pytest.fixture()
def m3_file(tmp_path):
    return write_json(tmp_path, "m3.json", from_matrix(build(3, 0)).to_json())


@pytest.fixture()
def cons_file(tmp_path):
    cons = IntervalConstraint((((0, 0), (1, 1)),)).to_json()
    return write_json(tmp_path, "cons.json", cons)


@pytest.fixture()
def witness_files(m2_file, cons_file):
    return ["witness", "--multiorder", m2_file, "--constraints", cons_file]


def dependent_orders_file(tmp_path):
    """The orders (1, sqrt 2) and (sqrt 2, 2) of CI, whose Dependent
    certificate rests on exact signs of irrationals."""
    b = RadicalBasis((2,))
    o1 = OrderSpec(2, (LinearForm((b.one, b.sqrt(2))),))
    o2 = OrderSpec(2, (LinearForm((b.sqrt(2), b.rational(2))),))
    return write_json(tmp_path, "orders.json", [o1.to_json(), o2.to_json()])


@pytest.fixture()
def refute_files(tmp_path):
    return ["refute", "--orders", dependent_orders_file(tmp_path)]


class TestGlobalOptions:
    @pytest.mark.parametrize(
        "option, message",
        [
            (["--precision-cap", "0"], "not a positive integer"),
            (["--probe-budget", "0"], "not a positive integer"),
            (["--seed", "-1"], "must not be negative"),
        ],
        ids=["cap-0", "budget-0", "seed-negative"],
    )
    def test_bad_value_is_usage_error(self, capsys, option, message):
        code = run(option + ["build-matrix", "--m", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert message in captured.err

    def test_readme_lists_every_global_option(self):
        # The README's option bullets name exactly the parser's global options.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        bullets = readme.split("Global options", 1)[1].split("\n\n")[1]
        documented = re.findall(r"^- `(--[a-z-]+)`", bullets, re.MULTILINE)
        parser = cli._build_parser()
        options = [
            s for a in parser._actions for s in a.option_strings
            if s.startswith("--") and s != "--help"
        ]
        assert documented == options
        # Each is declared once: no subcommand takes a global option again.
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        for name, p in sub.choices.items():
            taken = {s for a in p._actions for s in a.option_strings}
            assert not taken & set(options), name

    def test_exhausted_precision_cap(self, capsys, refute_files, witness_files):
        code = run(["--precision-cap", "32"] + refute_files)
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert captured.err.startswith("error: sign undecided")
        assert captured.err.count("\n") == 1
        assert RadicalBasis((2,)).sqrt(2).sign() == 1
        # Every compare of this witness query passes the float filter, so
        # the cap, which bounds only exact signs, never comes into play.
        code, lines = invoke(capsys, ["--precision-cap", "32"] + witness_files)
        assert code == EXIT_OK
        assert lines[0]["witness"] is not None

    def test_cap_restored_when_command_raises(self, capsys, monkeypatch):
        sqrt2 = RadicalBasis((2,)).sqrt(2)

        def failing_build(m, seed):
            with pytest.raises(PrecisionExceededError):
                sqrt2.sign()
            raise RuntimeError("build failed")

        monkeypatch.setattr(cli, "build", failing_build)
        with pytest.raises(RuntimeError):
            run(["--precision-cap", "32", "build-matrix", "--m", "2"])
        assert sqrt2.sign() == 1


class TestBuildMatrix:
    def test_m2_seed0(self, capsys):
        code, lines = invoke(capsys, ["--seed", "0", "build-matrix", "--m", "2"])
        assert code == EXIT_OK
        (payload,) = lines
        assert payload["schema"] == 1
        assert payload["verified"] is True
        assert payload["matrix"]["m"] == 2

    def test_deterministic_stdout(self, capsys):
        _, first = invoke(capsys, ["--seed", "2", "build-matrix", "--m", "3"])
        _, second = invoke(capsys, ["--seed", "2", "build-matrix", "--m", "3"])
        assert first == second

    def test_bad_m_is_usage_error(self, capsys):
        code, _ = invoke(capsys, ["build-matrix", "--m", "1"])
        assert code == EXIT_USAGE

    def test_seed_is_global(self, capsys):
        # The global --seed is the one seed; build-matrix has none of its own.
        _, lines = invoke(capsys, ["--seed", "2", "build-matrix", "--m", "3"])
        assert lines[0]["matrix"] == json.loads(json.dumps(build(3, 2).to_json()))
        code = run(["build-matrix", "--m", "3", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "unrecognized arguments: --seed 2" in captured.err


class TestWitness:
    def test_found(self, capsys, tmp_path, m2_file):
        cons = write_json(
            tmp_path,
            "cons.json",
            IntervalConstraint((((0, 0), (1, 1)),)).to_json(),
        )
        code, lines = invoke(
            capsys, ["witness", "--multiorder", m2_file, "--constraints", cons]
        )
        assert code == EXIT_OK
        assert len(lines[0]["witness"]) == 2

    def test_not_found_discrete(self, capsys, tmp_path):
        b = RadicalBasis((2,))
        o = OrderSpec(1, (LinearForm((b.one,)),))
        M = MultiOrder(1, (o,))
        mfile = write_json(tmp_path, "z1.json", M.to_json())
        cons = write_json(
            tmp_path, "c1.json", IntervalConstraint((((0,), (1,)),)).to_json()
        )
        # One order on Z^1 has no walk direction: the brute box alone
        # decides, and a miss is an exhausted search like any other.
        code, lines = invoke(
            capsys, ["witness", "--multiorder", mfile, "--constraints", cons]
        )
        assert code == EXIT_BUDGET
        assert lines == []

    def test_no_direction_narrow_windows_m4(self, capsys, tmp_path):
        # The orders of build(4, 0) without their direction, and windows of
        # widths 2.6e-4, 1.2e-4 and 8.9e-6 above the origin: no point up to
        # box 128.  The walk along the derived direction spends its budget,
        # and the scan stops at brute_box(4) = 36, not at box 1024.
        orders = from_matrix(build(4, 0)).orders
        mfile = write_json(tmp_path, "m4.json", MultiOrder(4, orders).to_json())
        uppers = [(-8, 0, -7, 9), (-6, -4, 5, 0), (8, -3, -10, 10)]
        bounds = tuple(((0, 0, 0, 0), v) for v in uppers)
        cons = write_json(tmp_path, "c4.json", IntervalConstraint(bounds).to_json())
        start = time.perf_counter()
        code, lines = invoke(
            capsys, ["witness", "--multiorder", mfile, "--constraints", cons]
        )
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_BUDGET
        assert lines == []

    def test_endpoint_beyond_float_range(self, capsys, tmp_path, m3_file):
        # The lower end's value -(10^400) has no float; that side is left
        # open in the filter and the exact check decides.
        bounds = (((-(10**400), 0, 0), (1, 0, 0)), (None, None))
        cons = IntervalConstraint(bounds)
        cfile = write_json(tmp_path, "c.json", cons.to_json())
        code, lines = invoke(
            capsys, ["witness", "--multiorder", m3_file, "--constraints", cfile]
        )
        assert code == EXIT_OK
        M = from_matrix(build(3, 0))
        assert satisfies(M, cons, tuple(lines[0]["witness"]))

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_is_usage_error(self, capsys, tmp_path, cons_file, rank):
        mfile = write_json(tmp_path, "m.json", {"rank": rank, "orders": []})
        code = run(["witness", "--multiorder", mfile, "--constraints", cons_file])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: rank {rank} must be at least 1\n"

    def test_no_orders_gives_origin(self, capsys, tmp_path):
        mfile = write_json(tmp_path, "m.json", {"rank": 2, "orders": []})
        cfile = write_json(tmp_path, "c.json", [])
        code, lines = invoke(
            capsys, ["witness", "--multiorder", mfile, "--constraints", cfile]
        )
        assert code == EXIT_OK
        assert lines == [{"schema": 1, "witness": [0, 0], "probes": 0, "backend": "line"}]

    def test_rank_7_falls_back_to_brute_box(self, capsys, tmp_path):
        # One probe misses the window (0, 1); the fallback box in rank 7 is
        # brute_box(7) = 5.
        b = RadicalBasis((2, 3, 5, 7, 11, 13))
        form = LinearForm((b.one,) + tuple(b.sqrt(p) for p in b.primes))
        zeros = (b.zero,) * 5
        direction = LinearForm((b.sqrt(2), -b.one) + zeros)
        M = MultiOrder(7, (OrderSpec(7, (form,)),), direction)
        mfile = write_json(tmp_path, "m7.json", M.to_json())
        cons = IntervalConstraint((((0,) * 7, (1,) + (0,) * 6),))
        cfile = write_json(tmp_path, "c7.json", cons.to_json())
        code, lines = invoke(
            capsys,
            ["--probe-budget", "1", "witness", "--multiorder", mfile,
             "--constraints", cfile],
        )
        assert code == EXIT_OK
        (payload,) = lines
        assert (payload["probes"], payload["backend"]) == (1, "brute")
        assert max(map(abs, payload["witness"])) <= 5
        assert satisfies(M, cons, tuple(payload["witness"]))

    def test_non_generic_tuple_exhausts_budget(self, capsys, tmp_path):
        # c1 - c2 = (1, 0, -1), so y1 - y2 is an integer at every lattice
        # point, and these windows force it into (-0.647, -0.360): neither
        # the line walk nor the brute box can find a point.  This exit code
        # was the same when the fallback escalated through a box schedule.
        b = RadicalBasis((2, 3, 5))
        c1 = (b.one + b.sqrt(2), b.sqrt(3), b.sqrt(5))
        c2 = (b.sqrt(2), b.sqrt(3), b.one + b.sqrt(5))
        orders = tuple(OrderSpec(3, (LinearForm(c),)) for c in (c1, c2))
        M = MultiOrder(3, orders, LinearForm(fs_cofactors([c1, c2])))
        mfile = write_json(tmp_path, "m.json", M.to_json())
        cons = IntervalConstraint(
            (((4, -3, -2), (-4, 3, 2)), ((5, -2, -1), (-2, 2, 0)))
        )
        cfile = write_json(tmp_path, "c.json", cons.to_json())
        code = run(
            ["--probe-budget", "1000", "witness", "--multiorder", mfile,
             "--constraints", cfile]
        )
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert captured.err.startswith("error: witness not found")
        assert captured.err.count("\n") == 1

    # Endpoints beyond 2^53 are rounded when the windows are formed in
    # floats; the filter's error bound must cover that rounding, so these
    # witnesses, probe counts included, stay exactly as pinned.
    @pytest.mark.parametrize(
        "options, constraints, want, probes",
        [
            (
                [],
                [{"lower": [10**20, 0, 0], "upper": "+inf"},
                 {"lower": "-inf", "upper": [10**20 + 5, 1, 0]}],
                [98870961813840379904, -7855284390155188224, 7065663347481272320],
                50819,
            ),
            (
                ["--probe-budget", "100000"],
                [{"lower": [2**60 + 1, 0, 0], "upper": [2**60 + 101, 0, 0]},
                 {"lower": "-inf", "upper": "+inf"}],
                [3211602133424513536, -882545206829054720, -467984671333271808],
                98,
            ),
        ],
    )
    def test_huge_coordinates_pinned(
        self, capsys, tmp_path, options, constraints, want, probes
    ):
        mfile = write_json(tmp_path, "m3.json", from_matrix(build(3, 0)).to_json())
        cons = write_json(tmp_path, "cons.json", constraints)
        code, lines = invoke(
            capsys,
            options + ["witness", "--multiorder", mfile, "--constraints", cons],
        )
        assert code == EXIT_OK
        assert lines[0]["witness"] == want
        assert (lines[0]["probes"], lines[0]["backend"]) == (probes, "line")
        M = from_matrix(build(3, 0))
        assert satisfies(M, IntervalConstraint.from_json(constraints), tuple(want))


class TestRefuteVerify:
    def test_refute_then_verify_roundtrip(self, capsys, tmp_path):
        ofile = dependent_orders_file(tmp_path)
        code, lines = invoke(capsys, ["refute", "--orders", ofile])
        assert code == EXIT_OK
        cert = lines[0]["certificate"]
        assert cert["lemma_tag"] == "Dependent"
        cfile = write_json(tmp_path, "cert.json", cert)
        code, lines = invoke(
            capsys, ["verify-cert", "--orders", ofile, "--cert", cfile]
        )
        assert code == EXIT_OK
        assert lines[0]["valid"] is True

    def test_tampered_cert_exit_code(self, capsys, tmp_path):
        ofile = dependent_orders_file(tmp_path)
        _, lines = invoke(capsys, ["refute", "--orders", ofile])
        cert = lines[0]["certificate"]
        cert["constraints"][1]["upper"] = [9, 9]
        cfile = write_json(tmp_path, "bad.json", cert)
        code, lines = invoke(
            capsys, ["verify-cert", "--orders", ofile, "--cert", cfile]
        )
        assert code == EXIT_CERT_INVALID
        assert lines[0]["valid"] is False

    # Rows named after an evidence field that certificates no longer carry
    # (widths, det, k, pair) keep its kind check on a field that remains.
    @pytest.mark.parametrize(
        "orders, tag, corrupt",
        [
            ("dependent", "Dependent", lambda c: c["evidence"].update(coeffs=None)),
            ("dependent", "Dependent", lambda c: c["evidence"].update(coeffs=["1"])),
            ("dependent", "Dependent", lambda c: c.pop("evidence")),
            ("dependent", "Dependent", lambda c: c["evidence"].update(coeffs=[3])),
            ("discrete", "DiscreteBase", lambda c: c["evidence"].update(order="0")),
            ("dependent", "Dependent", lambda c: c["constraints"][0].update(lower=[None, 1])),
            ("dependent", "Dependent",
             lambda c: c["evidence"]["coeffs"][0]["terms"][0].update(den=0)),
            ("discrete", "DiscreteBase", lambda c: c["evidence"].update(order=1)),
            ("discrete", "DiscreteBase", lambda c: c["evidence"].update(order=-1)),
            ("rational_kernel", "RationalKernel", lambda c: c["evidence"].pop("inner")),
            ("rational_kernel", "RationalKernel",
             lambda c: c["evidence"].update(kernel_basis=[[1.5, -1]])),
            ("dependent", "Dependent", lambda c: c.update(lemma_tag="Nonsense")),
            ("rational_kernel", "RationalKernel",
             lambda c: c["evidence"]["inner"]["constraints"].pop()),
            ("rational_kernel", "RationalKernel",
             lambda c: c["evidence"]["inner"]["constraints"][0].update(lower=[])),
            ("rational_kernel", "RationalKernel",
             lambda c: c["evidence"].update(kernel_basis=[[]])),
            ("rational_kernel", "RationalKernel",
             lambda c: c["evidence"].update(kernel_basis=[[-1, 1], [-1, 1]])),
            ("dependent", "Dependent",
             lambda c: c["evidence"]["coeffs"][0].update(basis=[2, 3, 5])),
        ],
        ids=["widths-null", "k-string", "no-evidence", "det-int", "pair-int", "endpoint-null",
             "den-zero", "pair-one", "pair-three", "no-inner", "basis-float", "unknown-tag",
             "inner-short", "inner-endpoint-short", "basis-vector-short",
             "basis-vector-repeated", "coeff-other-basis"],
    )
    def test_malformed_cert_is_invalid(self, capsys, tmp_path, orders, tag, corrupt):
        ofile = write_json(tmp_path, "o.json", [o.to_json() for o in INSTANCES[orders]])
        _, lines = invoke(capsys, ["refute", "--orders", ofile])
        cert = lines[0]["certificate"]
        assert cert["lemma_tag"] == tag
        corrupt(cert)
        cfile = write_json(tmp_path, "bad.json", cert)
        code, lines = invoke(
            capsys, ["verify-cert", "--orders", ofile, "--cert", cfile]
        )
        assert code == EXIT_CERT_INVALID
        assert lines == [{"schema": 1, "valid": False}]

    @pytest.mark.parametrize("orders", sorted(OLD_SHAPE_CERTIFICATES))
    def test_old_shape_certificate_verifies(self, capsys, tmp_path, orders):
        # Certificates that still carry the evidence fields k, reversed, det,
        # widths and pair: the decoder ignores keys it does not declare.
        ofile = write_json(tmp_path, "o.json", [o.to_json() for o in INSTANCES[orders]])
        cfile = tmp_path / "old.json"
        cfile.write_text(OLD_SHAPE_CERTIFICATES[orders])
        code, lines = invoke(
            capsys, ["verify-cert", "--orders", ofile, "--cert", str(cfile)]
        )
        assert (code, lines) == (EXIT_OK, [{"schema": 1, "valid": True}])

    def test_mutated_certificates_never_crash(self, tmp_path):
        # One mutation of a valid certificate: verify-cert exits 0 or 4 and
        # never raises, and a certificate it accepts leaves the box empty.
        cases = []
        for name, orders in INSTANCES.items():
            ofile = write_json(tmp_path, f"{name}.json", [o.to_json() for o in orders])
            cert = certificate_to_json(refute(orders))
            cases.append((orders, ofile, cert))
        cfile = tmp_path / "mutated.json"

        @settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True,
                  database=None)
        @given(st.data())
        def check(data):
            orders, ofile, cert = data.draw(st.sampled_from(cases))
            cert = copy.deepcopy(cert)
            mutate(cert, data)
            cfile.write_text(json.dumps(cert))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = run(["verify-cert", "--orders", ofile, "--cert", str(cfile)])
            assert code in (EXIT_OK, EXIT_CERT_INVALID)
            if code == EXIT_OK:
                m = orders[0].rank
                M = MultiOrder(m, tuple(orders))
                cons = IntervalConstraint.from_json(cert["constraints"])
                assert not any(satisfies(M, cons, z) for z in iter_box(m, 6))

        check()

    def test_no_certificate_reported(self, capsys, tmp_path):
        b = RadicalBasis((2,))
        o = OrderSpec(2, (LinearForm((b.one, b.sqrt(2))),))
        ofile = write_json(tmp_path, "one.json", [o.to_json()])
        code, lines = invoke(capsys, ["refute", "--orders", ofile])
        assert code == EXIT_OK
        assert lines[0]["certificate"] is None
        assert lines[0]["reason"] == "NoCertificateFound"


# Tuples whose RationalKernel certificate must keep the recursive order's
# tail: without it the inner tuple is empty, or one dense order on Z^2 that
# no certificate refutes.
KEEP_TAIL = {
    "tail-discrete": [
        OrderSpec(2, (LinearForm((B23.one, B23.one)), LinearForm((B23.zero, B23.one)))),
    ],
    "tail-small-volume": [
        OrderSpec(3, (
            LinearForm((B23.one, B23.one, B23.one)),
            LinearForm((B23.zero, B23.one, B23.sqrt(2))),
        )),
        OrderSpec(3, (LinearForm((B23.one, B23.sqrt(2), B23.sqrt(3))),)),
    ],
}


def _off_kernel(cert):
    # (1, 0, ..., 0) lies outside the kernel of order 0's leading form and
    # above the lower end (0, ..., 0) in order 0.
    upper = cert["constraints"][0]["upper"]
    cert["constraints"][0]["upper"] = [1] + [0] * (len(upper) - 1)


def _inner_perturbed(cert):
    upper = cert["evidence"]["inner"]["constraints"][0]["upper"]
    upper[0] += 1 if upper[0] > 0 else -1


def _inner_emptied(cert):
    cert["evidence"]["inner"]["constraints"] = []


def _not_the_lift(cert):
    # A kernel vector above the origin in order 0 that is not the lifted
    # inner end.
    upper = cert["constraints"][0]["upper"]
    cert["constraints"][0]["upper"] = [-2, 2] if len(upper) == 2 else [-1, 1, 0]


class TestRationalKernelKeepsOrder:
    @pytest.mark.parametrize("name", sorted(KEEP_TAIL))
    def test_certificate_verifies(self, capsys, tmp_path, name):
        ofile = write_json(tmp_path, "o.json", [o.to_json() for o in KEEP_TAIL[name]])
        code, lines = invoke(capsys, ["refute", "--orders", ofile])
        cert = lines[0]["certificate"]
        assert code == EXIT_OK
        assert cert["lemma_tag"] == "RationalKernel"
        # The inner certificate covers every order, the recursive one too.
        assert len(cert["evidence"]["inner"]["constraints"]) == len(KEEP_TAIL[name])
        cfile = write_json(tmp_path, "cert.json", cert)
        code, lines = invoke(capsys, ["verify-cert", "--orders", ofile, "--cert", cfile])
        assert (code, lines) == (EXIT_OK, [{"schema": 1, "valid": True}])

    @pytest.mark.parametrize(
        "tamper", [_off_kernel, _inner_perturbed, _inner_emptied, _not_the_lift]
    )
    @pytest.mark.parametrize("name", sorted(KEEP_TAIL))
    def test_tampered_copy_is_invalid(self, capsys, tmp_path, name, tamper):
        ofile = write_json(tmp_path, "o.json", [o.to_json() for o in KEEP_TAIL[name]])
        _, lines = invoke(capsys, ["refute", "--orders", ofile])
        cert = lines[0]["certificate"]
        tamper(cert)
        cfile = write_json(tmp_path, "bad.json", cert)
        code, lines = invoke(capsys, ["verify-cert", "--orders", ofile, "--cert", cfile])
        assert (code, lines) == (EXIT_CERT_INVALID, [{"schema": 1, "valid": False}])


class TestFiniteCommands:
    def test_embed(self, capsys, tmp_path, m2_file):
        s = FiniteNOrder(2, 1, ((0, 1),))
        sfile = write_json(tmp_path, "s.json", s.to_json())
        code, lines = invoke(
            capsys, ["embed", "--structure", sfile, "--multiorder", m2_file]
        )
        assert code == EXIT_OK
        assert len(lines[0]["embedding"]) == 2

    def test_pattern(self, capsys, tmp_path):
        s = FiniteNOrder(3, 2, ((0, 1, 2), (1, 2, 0)))
        sfile = write_json(tmp_path, "p.json", s.to_json())
        code, lines = invoke(capsys, ["pattern", "--structure", sfile])
        assert code == EXIT_OK
        assert lines[0]["pattern"] == [2, 3, 1]

    def test_amalgamate(self, capsys, tmp_path):
        a = FiniteNOrder(1, 1, ((0,),))
        b1 = FiniteNOrder(2, 1, ((0, 1),))
        b2 = FiniteNOrder(2, 1, ((1, 0),))
        args = [
            "amalgamate",
            "--a", write_json(tmp_path, "a.json", a.to_json()),
            "--b1", write_json(tmp_path, "b1.json", b1.to_json()),
            "--b2", write_json(tmp_path, "b2.json", b2.to_json()),
            "--f1", "[0]",
            "--f2", "[0]",
        ]
        code, lines = invoke(capsys, args)
        assert code == EXIT_OK
        assert lines[0]["c"]["k"] == 3
        assert len(lines[0]["g1"]) == 2


    @pytest.mark.parametrize(
        "f1",
        ["5", '["x"]', "[0.5]", "[true]", '{"0": 0}', "[0", "[5]", "[]"],
        ids=["int", "string-label", "float-label", "bool-label", "object", "bad-json",
             "out-of-range", "empty"],
    )
    def test_bad_label_map_is_usage_error(self, capsys, tmp_path, f1):
        s = write_json(tmp_path, "s.json", FiniteNOrder(1, 1, ((0,),)).to_json())
        code = run(["amalgamate", "--a", s, "--b1", s, "--b2", s, "--f1", f1, "--f2", "[0]"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_embed_falls_back_to_brute_box(self, capsys, tmp_path):
        # With one probe the line walk misses the third point; the brute
        # fallback finds it.
        mfile = write_json(tmp_path, "m3.json", from_matrix(build(3, 0)).to_json())
        sfile = write_json(tmp_path, "s.json", from_pattern((2, 3, 1)).to_json())
        argv = ["--probe-budget", "1", "embed", "--structure", sfile, "--multiorder", mfile]
        code, lines = invoke(capsys, argv)
        assert code == EXIT_OK
        assert len(lines[0]["embedding"]) == 3


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_file(self, capsys, tmp_path, m2_file):
        code, _ = invoke(
            capsys,
            ["witness", "--multiorder", m2_file, "--constraints", str(tmp_path / "nope.json")],
        )
        assert code == EXIT_USAGE

    def test_env_precision_cap(self, capsys, monkeypatch, refute_files, witness_files):
        for env_cap, want in [
            ("4096", EXIT_OK), ("32", EXIT_BUDGET), ("0", EXIT_USAGE), ("abc", EXIT_USAGE)
        ]:
            monkeypatch.setenv("MULTIORDER_PRECISION_CAP", env_cap)
            # The environment takes precedence over the flag.
            code, _ = invoke(capsys, ["--precision-cap", "4096"] + refute_files)
            assert code == want, env_cap
            assert RadicalBasis((2,)).sqrt(2).sign() == 1
        # A witness query that needs no exact sign succeeds under cap 32.
        monkeypatch.setenv("MULTIORDER_PRECISION_CAP", "32")
        code, _ = invoke(capsys, ["--precision-cap", "4096"] + witness_files)
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["refute", "--orders", "BAD"], [{"rank": 2, "forms": 5}]),
            (["verify-cert", "--orders", "BAD", "--cert", "M2"], [{"forms": []}]),
            (["witness", "--multiorder", "BAD", "--constraints", "CONS"], [{"rank": 2}]),
            (["witness", "--multiorder", "M2", "--constraints", "BAD"],
             [{"lower": 5, "upper": "+inf"}]),
            (["witness", "--multiorder", "M2", "--constraints", "BAD"],
             [{"lower": [0.5, 0], "upper": "+inf"}]),
            (["witness", "--multiorder", "M2", "--constraints", "BAD"],
             [{"lower": "abc", "upper": "+inf"}]),
            (["embed", "--structure", "BAD", "--multiorder", "M2"],
             {"k": 2, "n": 1, "orders": 3}),
            (["pattern", "--structure", "BAD"], ["k", "n"]),
            (["amalgamate", "--a", "BAD", "--b1", "S", "--b2", "S", "--f1", "[0]",
              "--f2", "[0]"], {"k": 1, "n": 1}),
            (["amalgamate", "--a", "S", "--b1", "BAD", "--b2", "S", "--f1", "[0]",
              "--f2", "[0]"], None),
            (["amalgamate", "--a", "S", "--b1", "S", "--b2", "BAD", "--f1", "[0]",
              "--f2", "[0]"], {"k": 2, "n": 1, "orders": [[0, 1], 5]}),
            (["refute", "--orders", "BAD"],
             [{"rank": 1, "forms": [[{"basis": [], "terms": [
                 {"radicand": 1, "num": 1, "den": 0}]}]]}]),
        ],
        ids=["orders", "verify-orders", "multiorder", "constraints",
             "endpoint-float", "endpoint-string", "structure",
             "pattern-structure", "a", "b1", "b2", "den-zero"],
    )
    def test_malformed_input_is_usage_error(
        self, capsys, tmp_path, m2_file, cons_file, argv, bad
    ):
        files = {
            "BAD": write_json(tmp_path, "bad.json", bad),
            "M2": m2_file,
            "CONS": cons_file,
            "S": write_json(tmp_path, "s.json", FiniteNOrder(1, 1, ((0,),)).to_json()),
        }
        code = run([files.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: malformed input")


class TestSelftest:
    def test_quick_selftest_passes(self, capsys):
        assert run(["selftest", "--level", "quick"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "FAIL" not in err
        assert "PASS" in err
