"""Cascade construction, powers, reciprocals, products, quotients, means."""

import random
from decimal import Context, Decimal, localcontext

import pytest

from geocalc import (Cascade, Construction, DEFAULT_POLICY, DegenerateAngle,
                     DomainError, ExponentOverflow, GeocalcError,
                     PrecisionPolicy, SignMismatch, SignedScaled,
                     TraceRecorder, VIRTUAL_DEPTH, build_cascade, divide,
                     geometric_mean, multiply, normalize, oracle_eval, power,
                     reciprocal, shift10, to_text)
from geocalc import cascade
from geocalc.trace import foot_label
from conftest import rel_diff

POL = DEFAULT_POLICY
ORACLE_CTX = POL.oracle_ctx()
TIGHT = Decimal("1e-20")


def close(got, want, tol=TIGHT) -> bool:
    return rel_diff(got.value(), want.value(), ORACLE_CTX) <= tol


def test_construction_rejects_bad_geometry():
    with pytest.raises(DegenerateAngle):
        Construction(Decimal(1), Decimal(1), 3)
    with pytest.raises(DegenerateAngle):
        Construction(Decimal(0), Decimal(1), 3)
    with pytest.raises(DegenerateAngle):
        Construction(Decimal("1.2"), Decimal(1), 3)
    with pytest.raises(DomainError):
        Construction(Decimal("0.5"), Decimal(0), 3)
    with pytest.raises(DomainError):
        Construction(Decimal("0.5"), Decimal(1), 0)


def test_cascade_lengths_form_geometric_sequence():
    casc = build_cascade(Construction(Decimal("0.6"), Decimal(1), 4), POL)
    assert casc.lengths == (Decimal("0.6"), Decimal("0.36"),
                            Decimal("0.216"), Decimal("0.1296"))
    assert casc.validate(POL)


def test_validate_flags_a_corrupted_length():
    casc = build_cascade(Construction(Decimal("0.6"), Decimal(1), 4), POL)
    bad = Cascade(construction=casc.construction,
                  lengths=casc.lengths[:-1] + (Decimal("0.13"),))
    assert not bad.validate(POL)
    # each ratio passes at 0.9 of its tolerance, but p1**2 misses AB * p2
    # by 1.8e-28 relative, past the mean-proportional check's 1e-28
    t = Decimal("1e-28")
    with localcontext(Context(prec=80)):
        p1 = Decimal("0.6") * (1 + Decimal("0.9") * t)
        p2 = Decimal("0.6") * p1 * (1 - Decimal("0.9") * t)
    skew = Cascade(Construction(Decimal("0.6"), Decimal(1), 2), (p1, p2))
    assert not skew.validate(POL)


def _moved(casc: Cascade, i: int, rel: Decimal) -> Cascade:
    """casc with its i-th length moved by rel, relative, exactly."""
    with localcontext(Context(prec=200)):
        moved = casc.lengths[i] * (1 + rel)
    return Cascade(casc.construction,
                   casc.lengths[:i] + (moved,) + casc.lengths[i + 1:])


@pytest.mark.parametrize("sign", [1, -1])
def test_validate_at_the_edge_of_one_ratio(sign):
    # p3 moved by 0.9 of the ratio tolerance 10 * rel_tol = 1e-28,
    # relative, keeps p3/p2 and p4/p3 inside it; by 1.1 it does not.
    # p1 and p2 stay, so the mean-proportional check cannot decide.
    t = sign * Decimal("1e-28")
    casc = build_cascade(Construction(Decimal("0.6"), Decimal(1), 4), POL)
    assert _moved(casc, 2, Decimal("0.9") * t).validate(POL)
    assert not _moved(casc, 2, Decimal("1.1") * t).validate(POL)


def test_validate_a_perpendicular_past_the_oracle_digits():
    # a 64-digit perpendicular makes 76-digit exact lengths, past the
    # 60-digit oracle context; the working-digit cascade passes too
    perp = Decimal("0." + "1234567890" * 6 + "1234")
    c = Construction(Decimal("0.987654321012"), perp, 5)
    with localcontext(Context(prec=200)):
        lengths = tuple(perp * c.cos_c ** i for i in range(1, 6))
    exact = Cascade(c, lengths)
    assert len(lengths[0].as_tuple().digits) == 76
    assert exact.validate(POL)
    assert build_cascade(c, POL).validate(POL)
    t = Decimal("1e-28")
    assert _moved(exact, 3, Decimal("0.9") * t).validate(POL)
    assert _moved(exact, 3, Decimal("-0.9") * t).validate(POL)
    assert not _moved(exact, 3, Decimal("1.1") * t).validate(POL)
    assert not _moved(exact, 3, Decimal("-1.1") * t).validate(POL)


def test_validate_a_cosine_past_the_oracle_digits():
    # a 70-digit cosine rounds at the oracle's 60 digits: the band's
    # edges round outward, so exact lengths pass
    c = Construction(Decimal("0." + "9876543210" * 7), Decimal(1), 3)
    with localcontext(Context(prec=300)):
        lengths = tuple(c.cos_c ** i for i in range(1, 4))
    assert Cascade(c, lengths).validate(POL)


def test_cascade_trace_records_alternating_drops():
    rec = TraceRecorder()
    build_cascade(Construction(Decimal("0.6"), Decimal(1), 3), POL, rec)
    kinds = [s.kind for s in rec.steps]
    assert kinds == ["construct-angle-from-cosine", "drop-perpendicular",
                     "drop-perpendicular", "drop-perpendicular",
                     "measure-length"]
    ontos = [onto for _, onto, _, _ in (s.values for s in rec.steps[1:4])]
    assert ontos == ["CA", "CX", "CA"]
    feet = [foot for _, _, foot, _ in (s.values for s in rec.steps[1:4])]
    assert feet == ["D", "E", "F"]
    # traced and untraced runs compute the same lengths, and each drop is
    # drawn at its own length, past the lettered feet too
    for c in (Construction(Decimal("0.6"), Decimal(1), 3),
              Construction(Decimal("0.987654321012"), Decimal("1.5"), 12)):
        rec = TraceRecorder()
        traced = build_cascade(c, POL, rec)
        assert traced == build_cascade(c, POL)
        drops = [s.values for s in rec.steps if s.kind == "drop-perpendicular"]
        assert [d[-1] for d in drops] == [str(p) for p in traced.lengths]
        assert rec.steps[-1].values == (
            f"{foot_label(c.depth)}-perpendicular", str(traced.lengths[-1]))


def test_power_small_exact_cases():
    assert power(normalize("0.6"), 4, POL).value() == Decimal("0.1296")
    assert power(normalize("2"), 10, POL).value() == Decimal("1024")
    assert power(normalize("-2"), 3, POL).value() == Decimal("-8")
    assert power(normalize("-2"), 2, POL).value() == Decimal("4")
    assert power(normalize("10"), 6, POL).value() == Decimal("1000000")


def test_power_zero_exponent_rejected():
    with pytest.raises(DomainError):
        power(normalize("2"), 0, POL)


def test_power_negative_exponent_is_reciprocal():
    got = power(normalize("32357"), -10, POL)
    want = oracle_eval("pow", (normalize("32357"), -10), POL)
    assert close(got, want)


def test_power_large_n_uses_virtual_cascade():
    # depth beyond any literal construction still matches the oracle
    x = normalize("1.0000001")
    got = power(x, 10 ** 5, POL)
    want = oracle_eval("pow", (x, 10 ** 5), POL)
    assert close(got, want)


def test_power_value_is_one_power_not_one_rounding_per_foot():
    # the value is one ctx.power, not one rounding per perpendicular:
    # 9 999 literal multiplies left this 13.6 rel_tol from the oracle
    x = normalize("1.0000001")
    got = power(x, 9999, POL)
    want = oracle_eval("pow", (x, 9999), POL)
    assert close(got, want, POL.rel_tol)


@pytest.mark.parametrize("n", [1, 2, 9999, 10 ** 4, 10 ** 4 + 1])
def test_power_value_does_not_depend_on_the_recorder(n):
    x = normalize("0.737")
    assert power(x, n, POL, recorder=TraceRecorder()) == power(x, n, POL)


def test_traced_power_draws_every_foot_up_to_virtual_depth():
    for n in (3, VIRTUAL_DEPTH):
        rec = TraceRecorder()
        power(normalize("0.999"), n, POL, recorder=rec)
        drops = [s for s in rec.steps if s.kind == "drop-perpendicular"]
        assert len(drops) == n
        # the measure line holds the last drawn foot's literal length
        segment, value = rec.steps[-1].values
        assert segment == f"{foot_label(n)}-perpendicular"
        assert value == drops[-1].values[-1]
    rec = TraceRecorder()
    power(normalize("0.999"), VIRTUAL_DEPTH + 1, POL, recorder=rec)
    assert [s.kind for s in rec.steps] == ["construct-angle-from-cosine",
                                           "measure-length"]


def test_power_overflow_guard():
    # result exponent past the global bound fails fast
    with pytest.raises(ExponentOverflow):
        power(normalize("1e500000"), 10 ** 4, POL)
    # the depth cap on |n| is a separate domain rule
    with pytest.raises(DomainError):
        power(normalize("9.9"), 10 ** 6 + 1, POL)
    # just inside the bound still works
    v = power(normalize("1e500000"), 3, POL)
    assert v.exponent == 1500001


def test_negative_power_runs_its_rule_once(monkeypatch):
    # the reciprocal goes straight into the cascade, with no second rule
    calls = []
    check = cascade.check_power
    monkeypatch.setattr(cascade, "check_power",
                        lambda x, n: calls.append(check(x, n)))
    for x, n in (("2.5", -3), ("-7.3", -2), ("0.001", -4), ("9.9", -10 ** 6)):
        calls.clear()
        power(normalize(x), n, POL)
        assert len(calls) == 1, (x, n)


def test_reciprocal_methods_agree():
    for text in ("1.602176634", "0.37", "5.972e24", "-81.274", "2"):
        x = normalize(text)
        a = reciprocal(x, POL, method="angle")
        b = reciprocal(x, POL, method="unit-perpendicular")
        assert rel_diff(a.value(), b.value(), ORACLE_CTX) <= Decimal("1e-10")
        want = oracle_eval("recip", (x,), POL)
        assert close(a, want)


def test_reciprocal_of_power_of_ten_is_exact():
    assert reciprocal(normalize("1000"), POL).value() == Decimal("0.001")
    assert reciprocal(normalize("0.01"), POL).value() == Decimal("100")
    assert reciprocal(normalize("-10"), POL).value() == Decimal("-0.1")


def test_reciprocal_trace_has_unit_hypotenuse_shape():
    rec = TraceRecorder()
    reciprocal(normalize("2.5"), POL, recorder=rec)
    kinds = [s.kind for s in rec.steps]
    assert kinds[0] == "construct-angle-from-cosine"
    assert kinds[-1] == "measure-length"


def test_multiply_sign_rules_exact():
    # every sign pair prints the same digits, under its own sign
    for sa in ("", "-"):
        for sb in ("", "-"):
            sign = "-" if sa != sb else ""
            got = multiply(normalize(sa + "0.37"), normalize(sb + "8.1"), POL)
            assert got.sign == (-1 if sign else 1)
            got = multiply(normalize(sa + "3.14159265358979323846"),
                           normalize(sb + "2.71828182845904523536e-7"), POL)
            assert to_text(got, 30) == \
                sign + "8.53973422267356706545546229087e-7"


def _signed(sign, x):
    return SignedScaled(sign, x.mantissa, x.exponent)


def _square_of_mean(a, b, policy, recorder):
    """multiply as two public calls: the mean of the magnitudes, squared
    by power, under the product's sign."""
    gm = geometric_mean(_signed(1, a), _signed(1, b), policy,
                        recorder=recorder)
    return _signed(a.sign * b.sign, power(gm, 2, policy, recorder=recorder))


def _outcome(f, a, b, policy):
    rec = TraceRecorder()
    try:
        return repr(f(a, b, policy, recorder=rec)), rec.dumps()
    except GeocalcError as e:
        # a refused op writes no trace, so only the refusal is compared
        return type(e), str(e)


def _sweep_operand(rng):
    digits = rng.choice((12, 30))
    m = rng.randrange(10 ** (digits - 1), 10 ** digits)
    if rng.random() < 0.1:
        m = 10 ** (digits - 1)  # a power of ten
    k = rng.choice((rng.randint(-10 ** 9, 10 ** 9),
                    rng.randint(-10, 10),
                    rng.choice((1, -1)) * (5 * 10 ** 8 + rng.randint(-3, 3))))
    return SignedScaled(rng.choice((1, -1)), shift10(Decimal(m), -digits), k)


@pytest.mark.parametrize("working_digits", [15, 30, 55])
def test_multiply_is_the_square_of_the_mean(working_digits):
    # value, trace and refusal equal the two-call composition over
    # exponents on both sides of +-5e8, where the square leaves the range
    policy = PrecisionPolicy(working_digits=working_digits)
    rng = random.Random(3900 + working_digits)
    refused = 0
    for i in range(1000):
        a, b = _sweep_operand(rng), _sweep_operand(rng)
        if i % 4 == 1:
            b = SignedScaled(b.sign, a.mantissa, b.exponent)  # equal mantissas
        if i % 4 == 2:
            b = SignedScaled(b.sign, b.mantissa, b.exponent | 1)
            a = SignedScaled(a.sign, a.mantissa, a.exponent & ~1)  # odd sum
        want = _outcome(_square_of_mean, a, b, policy)
        assert _outcome(multiply, a, b, policy) == want, (a, b)
        refused += want[0] is ExponentOverflow
    assert 50 < refused < 500


def test_multiply_builds_one_number(monkeypatch):
    # the product is the only SignedScaled a multiply constructs
    built = []
    check = SignedScaled.__post_init__
    monkeypatch.setattr(SignedScaled, "__post_init__",
                        lambda self: built.append(check(self)))
    for a, b in (("0.37", "8.1"), ("-2", "18"), ("-3", "-3"), ("10", "-1e5"),
                 ("5.972e24", "7.348e22")):
        x, y = normalize(a), normalize(b)
        built.clear()
        multiply(x, y, POL)
        assert len(built) == 1, (a, b)


def test_divide_methods_agree():
    pairs = [("5.972e24", "7.348e22"), ("1", "3"), ("-8", "2"),
             ("0.004", "0.2"), ("7", "-0.07")]
    for na, nb in pairs:
        a, b = normalize(na), normalize(nb)
        g1 = divide(a, b, POL, method="hypotenuse")
        g2 = divide(a, b, POL, method="similar-triangles")
        assert rel_diff(g1.value(), g2.value(), ORACLE_CTX) <= Decimal("1e-10")
        want = oracle_eval("div", (a, b), POL)
        assert close(g1, want)


def test_divide_by_power_of_ten_is_exact():
    got = divide(normalize("0.5972"), normalize("100"), POL)
    assert got.value() == Decimal("0.005972")


def test_geometric_mean_methods_agree():
    pairs = [("5.972e24", "7.348e22"), ("0.5972", "0.7348"),
             ("2", "8"), ("0.004", "0.00004"), ("1", "1")]
    for na, nb in pairs:
        a, b = normalize(na), normalize(nb)
        g1 = geometric_mean(a, b, POL, method="bisect")
        g2 = geometric_mean(a, b, POL, method="rotate")
        assert rel_diff(g1.value(), g2.value(), ORACLE_CTX) <= Decimal("1e-10")
        want = oracle_eval("gmean", (a, b), POL)
        assert close(g1, want, Decimal("1e-10"))


def test_rotate_to_a_mean_next_to_one():
    # the mean cosine sqrt(small/big) lies above 1 - 1e-15
    a, b = normalize("0.5"), normalize("0.50000000000000000001")
    got = geometric_mean(a, b, POL, method="rotate")
    assert close(got, oracle_eval("gmean", (a, b), POL), 2 * POL.rel_tol)


def test_rotate_to_a_small_mean_cosine():
    # the 30-digit bracket stalls before small/c**2 comes within rel_tol
    # of big; the search stops once the bracket is narrower than rel_tol
    a, b = normalize("0.280404117683e8"), normalize("0.785888716493e11")
    got = geometric_mean(a, b, POL, method="rotate")
    assert close(got, oracle_eval("gmean", (a, b), POL), POL.rel_tol)


def test_geometric_mean_sign_handling():
    a, b = normalize("-2"), normalize("-8")
    got = geometric_mean(a, b, POL)
    assert got.sign == -1
    assert rel_diff(got.value(), Decimal(-4), ORACLE_CTX) <= Decimal("1e-10")
    with pytest.raises(SignMismatch):
        geometric_mean(normalize("2"), normalize("-8"), POL)


def test_geometric_mean_bisect_trace_contains_bisection():
    rec = TraceRecorder()
    geometric_mean(normalize("2"), normalize("18"), POL, method="bisect",
                   recorder=rec)
    kinds = [s.kind for s in rec.steps]
    assert "bisect-angle" in kinds
    b = rec.steps[kinds.index("bisect-angle")]
    _, cos_full, cos_half = b.values
    assert Decimal(cos_half) > Decimal(cos_full)


def test_multiply_matches_oracle_on_seeded_randoms():
    rng = random.Random(20260822)
    for _ in range(200):
        a = normalize(f"{rng.randint(1, 10**9)}e{rng.randint(-12, 12)}")
        b = normalize(f"{rng.randint(1, 10**9)}e{rng.randint(-12, 12)}")
        got = multiply(a, b, POL)
        want = oracle_eval("mul", (a, b), POL)
        assert close(got, want, Decimal("1e-15"))


def test_reciprocal_round_trip_on_seeded_randoms():
    rng = random.Random(8)
    one = Decimal(1)
    for _ in range(100):
        x = normalize(f"0.{rng.randint(10**8, 10**9 - 1)}e{rng.randint(-6, 6)}")
        back = reciprocal(reciprocal(x, POL), POL)
        assert rel_diff(back.value(), x.value(), ORACLE_CTX) <= Decimal("1e-15")
        prod = multiply(x, reciprocal(x, POL), POL)
        assert rel_diff(prod.value(), one, ORACLE_CTX) <= Decimal("1e-15")
