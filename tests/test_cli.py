"""Command-line interface: output formats, exit codes, CSV contract."""

import contextlib
import decimal
import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import binexceed.algebra
import binexceed.bounds
import binexceed.proofs
import binexceed.cli
from binexceed import digits
from binexceed.cli import format_decimal, main, parse_rational
from binexceed.enclosure import Enclosure, c_enclosure, compare_certified, decide_certified


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "binexceed.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestDecimalRendering:
    def test_fifteen_digits(self):
        assert format_decimal(Fraction(1, 4), 15) == "0.250000000000000"
        assert format_decimal(Fraction(821, 3125), 15) == "0.262720000000000"

    def test_round_half_even(self):
        assert format_decimal(Fraction(5, 100), 1) == "0.0"
        assert format_decimal(Fraction(15, 100), 1) == "0.2"
        assert format_decimal(Fraction(25, 1000), 2) == "0.02"
        assert format_decimal(Fraction(35, 1000), 2) == "0.04"

    def test_never_through_floats(self):
        # 10^-25 is invisible to a double but must influence rounding
        x = Fraction(5, 1000) + Fraction(1, 10**25)
        assert format_decimal(x, 2) == "0.01"

    def test_roundtrip_parse(self):
        for text in ("1/4", "821/3125", "0", "7/27", "0.057"):
            value = parse_rational(text)
            assert parse_rational(str(value)) == value


class TestParseLength:
    SEVENS = "1/" + "7" * 5000       # past the 4300-digit limit of int(str)

    @given(st.text(alphabet="0123456789_./+-eE \t\u0663x", max_size=8))
    def test_accepts_what_fraction_accepts(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match="^not a rational: "):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    def test_long_p_is_echoed_in_full(self, capsys):
        assert main(["check", "1", self.SEVENS]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"p = {self.SEVENS}"
        assert out[2].startswith("regime = proposition")

    def test_long_candidate_constant_is_echoed_in_full(self, capsys):
        assert main(["optimality", self.SEVENS, "--nmax", "3"]) == 0
        assert f"c1 = {self.SEVENS}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["1/" + "7" * 4997 + "x", "7" * 5000 + "/3"],
                             ids=["malformed", "above_one"])
    def test_long_malformed_p_quotes_forty_characters(self, capsys, text):
        assert main(["check", "1", text]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 120
        assert text[:40] in err


    def test_huge_exponent_exits_two_without_building_the_power(self):
        # 10^(10^11) used to be built exactly before any range check
        result = subprocess.run(
            [sys.executable, "-m", "binexceed.cli", "check", "1", "1e-99999999999"],
            capture_output=True, text=True, timeout=20)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert len(result.stderr) < 120
        assert parse_rational("1e-5000") == Fraction(1, 10**5000)

    def test_long_candidate_constant_above_c_quotes_forty_characters(self, capsys):
        assert main(["optimality", "7" * 5000 + "/3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 120
        assert err.startswith("precondition violated: candidate constant 7777")


class TestTailCommand:
    def test_equality_case(self):
        result = run_cli("tail", "2", "1/2")
        assert result.returncode == 0
        assert "1/4 (0.250000000000000)" in result.stdout

    def test_exact_and_decimal(self):
        result = run_cli("tail", "5", "1/5")
        assert result.returncode == 0
        assert "821/3125 (0.262720000000000)" in result.stdout
        assert "m = 2" in result.stdout and "mean = 1" in result.stdout

    def test_zero_probability(self):
        result = run_cli("tail", "5", "0")
        assert result.returncode == 0
        assert "tail = 0" in result.stdout

    def test_decimal_probability_parsing(self):
        result = run_cli("tail", "5", "0.2")
        assert "821/3125" in result.stdout

    def test_parse_failure_is_usage_error(self):
        assert run_cli("tail", "5", "abc").returncode == 2
        assert run_cli("tail", "5", "3/2").returncode == 2


class TestCheckCommand:
    def test_theorem_equality(self):
        result = run_cli("check", "2", "1/2")
        assert result.returncode == 0
        assert "regime = theorem" in result.stdout
        assert "tail > 1/4: FALSE" in result.stdout
        assert "equality case (n = 2, p = 1/2): TRUE" in result.stdout

    def test_proposition_regime(self):
        result = run_cli("check", "10", "1/100")
        assert result.returncode == 0
        assert "regime = proposition" in result.stdout

    def test_proposition_routing_small_n(self):
        result = run_cli("check", "2", "1/10")
        assert result.returncode == 0
        assert "regime = proposition" in result.stdout

    def test_out_of_hypothesis_query_exits_one(self):
        result = run_cli("check", "3", "1")
        assert result.returncode == 1

    def test_undecided_exits_three(self):
        # a rational within 2^-6000 of ln(4/3): undecidable at the 4096 cap
        from binexceed.enclosure import c_enclosure
        p = c_enclosure(6000).mid
        result = run_cli("check", "1", f"{p.numerator}/{p.denominator}")
        assert result.returncode == 3
        assert "undecided" in result.stderr

    def test_undecided_with_long_operands_exits_three(self, capsys):
        # p = 3^-8800 * floor(mid(c) * 3^8800): the denominator has 4199
        # digits, so p parses, but the undecided interval's endpoints have
        # more digits than str() of an int accepts by default
        from binexceed.enclosure import c_enclosure
        den = 3**8800
        p = Fraction(int(c_enclosure(6000).mid * den), den)
        assert main(["check", "1", str(p)]) == 3
        assert capsys.readouterr().err.startswith("undecided")

    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.just(n), st.fractions(0, Fraction(287682, 10**6) / n, max_denominator=10**12))))
    @example((1, Fraction(287682, 10**6)))
    @example((200, Fraction(287682, 200 * 10**6)))
    @example((7, Fraction(0)))
    def test_proposition_side_prints_the_tail(self, query):
        # n*p <= ln(4/3) < 1 puts m at 1, so 1 - (1-p)^n is tail's P(X >= 1)
        n, p = query
        lines = {}
        for command in ("check", "tail"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, str(n), str(p)]) == 0
            lines[command] = out.getvalue().splitlines()
        assert "regime = proposition (certified n*p <= ln(4/3))" in lines["check"]

        def values(command, label):
            return [line.removeprefix(label) for line in lines[command] if line.startswith(label)]

        lhs = values("check", "1 - (1-p)^n = ")
        assert len(lhs) == 1 and lhs == values("tail", "tail = ")


class TestPinnedOutput:
    """Exit code and sha256 of stdout for `check` and `tail`, byte for byte."""

    @pytest.mark.parametrize("argv, code, digest", [
        ("check 5000 337/1000", 0,
         "e66874bb54cfd9a9845be75db66f129a9aa3a3f77ad098349a4fa381231155ad"),
        ("tail 5000 337/1000", 0,
         "ec43ca6c09f9162b834585563918e316b57958cab3c4b23d2b50e46fe66cbe0c"),
        ("check 4000 1/6", 0,
         "e4280b80e39556363da4271c3fdf4020a446129e17fb05f0fbcb1d24a362234f"),
        ("check 5 1", 1,
         "6358f72665d8165a6191b5f7d9397faa8061a0c6820a892c46cd7b5d3fcc5fd1"),
        ("tail 5 1", 0,
         "d293d005194bfdd04748b7f9c0af048a83cb7c8288e11ccbeee99fbade844274"),
        ("check 2 1/2", 0,
         "862cf4ac8b058c8c474290329d714e4f8e3385c5ef85a9fbb70f8edf243ca458"),
        # large n and long p: the renderer's powers of b and the tail kernel's long sums
        ("check 4948 361046/960047", 0,
         "09d080d1121b75865a829d9b298e2efa8fa53b25ec3a4c5efa00676d701505e7"),
        pytest.param(f"check 20 1/{2**4000}", 0,
                     "130ec17e14f7329d318996aec7ca19f25768cbd5a99494786a45c144c3e3a96d",
                     id="check 20 1/2^4000"),
        pytest.param(f"tail 20 1/{2**4000}", 0,
                     "e57ef984b1773fde1372f00ad0cf84d73a1f2774258843280530ddaffb39359b",
                     id="tail 20 1/2^4000"),
        ("check 3000 1/2", 0,
         "08ce76cd743bcb2b9091ed2dd45344eed47bcb6525ad82d61bc31b07139533fb"),
        ("check 1000 7/10", 0,
         "1ea01cc376a4c94428b80c8a0aac92a475fcf8ecfaa35a629510ff47bbbf949b"),
        ("tail 2000 3/10", 0,
         "803fc0f2cb4e64db866bbd52eedc9e21ac36d5e03c27ed2783dfb5f40e005e5e"),
        pytest.param(f"check 1 1/{3**5000}", 0,
                     "e19903a016add4635729a11306eb43285b837e127bf586632233d2f5b0d36a36",
                     id="check 1 1/3^5000"),
        # m = 1 and m = n at large n, the one-loop upper sum, a strip of two
        # primes of b, and p = 0
        ("check 5000 1/10007", 0,
         "ab63ed96c4360ead1bc0a440626d6d9bf28b9c57c0f74fa8f4af504078df89bf"),
        ("check 4000 999999/1000000", 0,
         "cc7d67d4828861cd1ebdfe57112edeb3d4a3016e87dadbb3e5e6ca33356ffe87"),
        ("tail 100 9/10", 0,
         "6e5fdc62109d2a8a8b65c76ad1fb77b18e7cbff9f62f8ed26d7d642e724d8a59"),
        ("tail 3000 5/12", 0,
         "f050b841b922c9d9cf11b7b9e7be91e1fe1ed3f431495dd014c1de00fb121572"),
        ("tail 10 0", 0,
         "d3be6a35892810df3da6b5f846b149362e30923b7b02759495bc6b1b8793475f"),
        # long sums of 10^4 and 1429 terms, and 10^5 trials at p = 1/2, whose
        # work min(m, n-m+1)*n*bits(b) is exactly MAX_TAIL_WORK
        ("tail 20000 1/2", 0,
         "b6afbb00cafada74a0ae45248445e42d1098d83db7899d2bbebe4c7dd59c6cd4"),
        ("check 10000 1/7", 0,
         "c19674cac1700589d3a5fad700d4b91ab0587c49e55c88fe78d2ef7765936255"),
        ("tail 100000 1/2", 0,
         "257c669bacb1f442195af2d98bf0541f48aa1f08e45dbfec898ea220c07c24cc"),
        # either edge of libmpdec's schoolbook band, 129-256 words of 19 digits
        # in the shorter operand.  Each n is the first at which the operand
        # reaches the stated words, ceil(digits / 19): for b^n and x^e the
        # ladder's last square squares b^(n//2) or x^(e//2), and in x^e * s the
        # shorter operand is s or x^e.  At p = 337/1000, b^(n//2) has 128, 129,
        # 256 and 257 words at n = 1610, 1622, 3230 and 3244, and s has 129 and
        # 256 words at n = 2158 and 4297; at p = 5/12, n = 4933, x^e has 129.
        # In the proposition branch, b^(n//2) and (b-1)^(n//2) for b = 1000003
        # have 128, 129, 256 and 257 words at n = 806, 812, 1616 and 1622
        ("check 1610 337/1000", 0,
         "f0b63b7bde717df3df05b37243877b8ed7cf9452cc9b31a325052e1b94204b45"),
        ("check 1622 337/1000", 0,
         "821df37098974e86f4b3bf940c947e6232af7c2611543a98958bea55c1c38431"),
        ("tail 3230 337/1000", 0,
         "130eb224ca6c7529f2bb273e413be3ed743d54f35bfb0d0ee9913101a1b88d99"),
        ("tail 3244 337/1000", 0,
         "66ccb59e58ad2a5733b819ee2747ef858dd598082903c546b0ef0c36b643a1d2"),
        ("check 2158 337/1000", 0,
         "6b1c7697a137c6ce74ec702ed11cc365568ccf3df3768e1657b92156fe3f6bd6"),
        ("tail 4297 337/1000", 0,
         "09ce69905ebfd8c4c88e8859e200045676d32488fb9e1c464c7965a035eb31dc"),
        ("tail 4933 5/12", 0,
         "be4701d093be86a9c0e896f85fc395254530af82a6c024a99f41e1d645abdda6"),
        ("check 806 1/1000003", 0,
         "13017ac6a436ce15093138aac78e2a0ecc15e088a058bfe65789780638c0d869"),
        ("check 812 1/1000003", 0,
         "a99070cacaf486ab3fd27dacf0ce8873ac435225ae7c34af0c7245380da1935e"),
        ("check 1616 1/1000003", 0,
         "1d296ee4179f00a1503b601612f44555509f347a1951aaae65ca89a5a20646c1"),
        ("check 1622 1/1000003", 0,
         "ed8df32015e6aa3a4402b4d21f879a5d363dd4361bdc40af73dc456bc5e5bd67"),
    ])
    def test_stdout_digest(self, argv, code, digest, capsys):
        assert main(argv.split()) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, err", [
        ("check 2", "error: the following arguments are required: p\n"),
        ("check two 1/2", "error: argument n: invalid int value: 'two'\n"),
        ("check 2 1/2 3", "error: unrecognized arguments: 3\n"),
        ("check 2 -1/2", "error: the following arguments are required: p\n"),
        ("tail -5 1/2", "error: n must be a positive integer\n"),
    ])
    def test_usage_error(self, argv, err, capsys):
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", err)

    def test_million_digit_denominator_digest(self):
        # b = 10^(10^6) at n = 1 takes about a second; a conversion of b that
        # is quadratic in its length takes far longer than the timeout
        result = subprocess.run(
            [sys.executable, "-m", "binexceed.cli", "tail", "1", "1e-1000000"],
            capture_output=True, text=True, timeout=10)
        assert result.returncode == 0 and result.stderr == ""
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "ff0cf459bcb35ebbe12a2da684d2704eb5055813ad834f1be0dc28a37b28438e")

    def test_million_digit_fraction_digest(self):
        # "1/" and 10^6 digits: the denominator read by int(Decimal), quadratic,
        # takes over 30 s, and by digits._from_decimal's split about 1.5 s.
        # Linux refuses one argv string over 128 KiB, so main gets it in process
        code = ("import sys; from binexceed.cli import main; "
                "sys.exit(main(['check', '1', '1/' + '31415926' * 125000]))")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == 0 and result.stderr == ""
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "1a295873a644258a8098389a35affeffbdf80024fc68ab51c32ec47eafbc1930")


class TestQueryPath:
    """`check` and `tail` reduce the tail by stripping b's primes from the kernel's
    sum, and form and decide it in exact decimal from the kernel's factors."""

    @pytest.mark.parametrize("argv, code, digest", [
        ("check 4948 361046/960047", 0,
         "09d080d1121b75865a829d9b298e2efa8fa53b25ec3a4c5efa00676d701505e7"),
        ("tail 5000 337/1000", 0,
         "ec43ca6c09f9162b834585563918e316b57958cab3c4b23d2b50e46fe66cbe0c"),
        ("tail 3000 5/12", 0,
         "f050b841b922c9d9cf11b7b9e7be91e1fe1ed3f431495dd014c1de00fb121572"),
        ("check 4000 1/6", 0,
         "e4280b80e39556363da4271c3fdf4020a446129e17fb05f0fbcb1d24a362234f"),
        # the proposition branch's pair of powers, and a ladder past the band
        ("check 1622 1/1000003", 0,
         "ed8df32015e6aa3a4402b4d21f879a5d363dd4361bdc40af73dc456bc5e5bd67"),
        ("tail 3244 337/1000", 0,
         "66ccb59e58ad2a5733b819ee2747ef858dd598082903c546b0ef0c36b643a1d2"),
    ])
    def test_a_coarse_global_context_changes_nothing(self, argv, code, digest, capsys):
        # decimal arithmetic outside the exact context would round to 3 digits
        with decimal.localcontext(decimal.Context(prec=3, traps=[])) as context:
            assert main(argv.split()) == code
            assert decimal.getcontext() is context
            assert context.prec == 3 and not any(context.flags.values())
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_coarse_global_context_refuses_a_huge_exponent(self, capsys):
        # rounded to 3 digits, 1000001 would read 1.00E+6, inside MAX_EXPONENT
        with decimal.localcontext(decimal.Context(prec=3, traps=[])):
            assert main(["check", "1", "1e-1000001"]) == 2
        assert capsys.readouterr().err == "error: not a rational: '1e-1000001'\n"

    def test_neither_tail_nor_power_is_converted(self, monkeypatch, capsys):
        # check 4948 361046/960047 complements: T and b^n have ~98k bits, the
        # kernel's sum s 39k, and a conversion of T or b^n passes half of b^n's
        converted = []
        to_decimal = digits._to_decimal

        def recording(m):
            converted.append(m.bit_length())
            return to_decimal(m)

        for module in (digits, binexceed.cli):
            monkeypatch.setattr(module, "_to_decimal", recording)
        assert main(["check", "4948", "361046/960047"]) == 0
        assert "tail >= 1/4: TRUE" in capsys.readouterr().out
        assert converted and max(converted) < (960047**4948).bit_length() // 2

    @pytest.mark.parametrize("argv", [["check", "5000", "337/1000"],
                                      ["tail", "5000", "337/1000"],
                                      ["check", "4000", "1/6"]], ids=" ".join)
    def test_no_gcd_of_two_large_ints(self, argv, monkeypatch, capsys):
        # math.gcd(T, b^n) costs as much as the tail; the strip reads b alone
        narrowest = []
        gcd = math.gcd

        def recording(x, y):
            narrowest.append(min(abs(x).bit_length(), abs(y).bit_length()))
            return gcd(x, y)

        monkeypatch.setattr(math, "gcd", recording)
        assert main(argv) == 0
        assert narrowest and max(narrowest) < 1000
        assert len(capsys.readouterr().out.splitlines()) >= 5

    @staticmethod
    def _decisions_against_c(monkeypatch, results=None) -> list:
        """Records, for each certified decision `check` makes, whether it is
        against c, and appends its result to `results`: `cli` decides its
        regime with `compare_certified` and its proposition inequality with
        the boolean form, `bounds` with either."""
        against_c = []

        def counting(real):
            def decide(a, relation, b, *args, **kwargs):
                against_c.append(b is c_enclosure)
                result = real(a, relation, b, *args, **kwargs)
                if results is not None:
                    results.append(result)
                return result
            return decide

        for module in (binexceed.cli, binexceed.bounds):
            monkeypatch.setattr(module, "compare_certified", counting(compare_certified))
        monkeypatch.setattr(binexceed.cli, "decide_certified", counting(decide_certified))
        return against_c

    @pytest.mark.parametrize("argv", [["check", "5000", "337/1000"],
                                      ["check", "10", "1/100"],
                                      ["check", "5", "1"]], ids=" ".join)
    def test_regime_decided_once(self, argv, monkeypatch, capsys):
        against_c = self._decisions_against_c(monkeypatch)
        assert main(argv) in (0, 1)
        assert against_c.count(True) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("offset", [4, -3], ids=["theorem", "proposition"])
    def test_threshold_check_refines_without_subtracting(self, offset, monkeypatch, capsys):
        # n*p within 2^-4088 of c: the regime refines to the 4096-bit cap, and
        # only its witness, formed once from the endpoints, is a difference
        p = Fraction(int(c_enclosure(6000).lo * 2**4090) + offset, 19 << 4090)
        results = []
        against_c = self._decisions_against_c(monkeypatch, results)
        subtractions = []
        sub = Enclosure.__sub__

        def counting_sub(self, other):
            subtractions.append(other)
            return sub(self, other)

        monkeypatch.setattr(Enclosure, "__sub__", counting_sub)
        assert main(["check", "19", f"{p.numerator}/{p.denominator}"]) == 0
        assert subtractions == [] and against_c.count(True) == 1
        assert results[0].witness.precision_bits == 4096
        out = capsys.readouterr().out
        assert ("regime = theorem" in out) == (offset > 0)

    @pytest.mark.parametrize("command", ["check", "tail"])
    def test_huge_denominator_power_exits_two(self, command):
        # (1-p)^1000 with p = 10^-(10^6) has a 10^9-digit denominator
        result = subprocess.run(
            [sys.executable, "-m", "binexceed.cli", command, "1000", "1e-1000000"],
            capture_output=True, text=True, timeout=20)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "tail"])
    def test_huge_tail_work_exits_two(self, command):
        # b^n has only 2*10^6 bits, but the tail kernel would run for about 40 s
        result = subprocess.run(
            [sys.executable, "-m", "binexceed.cli", command, "1000000", "1/3"],
            capture_output=True, text=True, timeout=20)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_every_parsed_p_passes_at_n_one(self, capsys):
        assert main(["check", "1", "1e-1000000"]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("regime = proposition")


class TestOptimalityCommand:
    def test_quarter(self):
        result = run_cli("optimality", "1/4", "--nmax", "100")
        assert result.returncode == 0
        assert "n = 2" in result.stdout and "15/64" in result.stdout

    def test_limit_certificate(self):
        result = run_cli("optimality", "287682/1000000", "--nmax", "50")
        assert result.returncode == 0
        assert "no finite counterexample" in result.stdout

    def test_candidate_above_c_exits_two(self):
        assert run_cli("optimality", "1/2", "--nmax", "5").returncode == 2


class TestVerifyCommand:
    def test_anderson_samuels(self, tmp_path):
        out = tmp_path / "as.json"
        result = run_cli("verify", "anderson-samuels", "--nmax", "30",
                         "--mmax", "5", "--out", str(out))
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert all(s["verdict"] == "TRUE" for s in payload["steps"])

    def test_proposition(self, tmp_path):
        out = tmp_path / "prop.json"
        result = run_cli("verify", "proposition", "--out", str(out))
        assert result.returncode == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_main_small(self, tmp_path):
        out = tmp_path / "main.json"
        result = run_cli("verify", "main", "--nmax", "6", "--grid", "40",
                         "--out", str(out))
        assert result.returncode == 0

    def test_main_report_is_the_sweep_json(self, tmp_path):
        # `verify main` writes the one-process sweep's JSON and a newline
        out = tmp_path / "main.json"
        result = run_cli("verify", "main", "--nmax", "8", "--grid", "50",
                         "--out", str(out))
        assert result.returncode == 0
        assert out.read_text(encoding="utf-8") == (
            binexceed.proofs.main_proof_sweep(8, grid=50).to_json() + "\n")

    def test_unwritable_out_exits_four(self):
        result = run_cli("verify", "anderson-samuels", "--nmax", "5",
                         "--mmax", "3", "--out", "/nonexistent/r.json")
        assert result.returncode == 4

    def test_bad_subject_exits_two(self):
        assert run_cli("verify", "nonsense").returncode == 2

    def test_jobs_rejected_where_unused(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        for args in (("main", "--nmax", "3", "--grid", "20"),
                     ("appendix",),
                     ("anderson-samuels", "--nmax", "5", "--mmax", "3")):
            assert main(["verify", *args, "--jobs", "2", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert not out.exists()

    def test_precision_bits_rejected_where_unused(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        for args in (("main", "--nmax", "3", "--grid", "20"),
                     ("proposition",),
                     ("anderson-samuels", "--nmax", "5", "--mmax", "3"),
                     ("appendix",)):
            assert main(["verify", *args, "--precision-bits", "512",
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert not out.exists()

    def test_flags_reach_only_the_targets_that_read_them(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        for args in (("appendix", "--grid", "50"),
                     ("anderson-samuels", "--nmax", "5", "--grid", "50"),
                     ("main", "--nmax", "3", "--grid", "20", "--mmax", "5"),
                     ("appendix", "--mmax", "5"),
                     ("proposition", "--mmax", "5"),
                     # one fixed report covers every n: no size, grid or workers
                     ("proposition", "--nmax", "3"),
                     ("appendix", "--nmax", "600"),
                     ("proposition", "--grid", "20"),
                     ("proposition", "--jobs", "1")):
            assert main(["verify", *args, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
            assert not out.exists()
        # flags follow the target
        assert main(["verify", "--nmax", "3", "main", "--out", str(out)]) == 2
        assert not out.exists()

    def test_sizes_below_one_exit_two(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        # a negative grid used to count k up forever
        result = subprocess.run(
            [sys.executable, "-m", "binexceed.cli", "verify", "main", "--nmax", "2",
             "--grid", "-5", "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        for args in (("main", "--nmax", "2", "--grid", "0"),
                     ("main", "--nmax", "0")):
            assert main(["verify", *args, "--out", str(out)]) == 2
            assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_jobs_below_one_exit_two(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        for args in (("main", "--jobs", "0"), ("main", "--jobs", "-3")):
            assert main(["verify", *args, "--nmax", "3", "--grid", "20",
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
            assert not out.exists()

    def test_help_gives_each_target_its_own_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "appendix", "-h"])
        appendix = capsys.readouterr().out
        assert "--precision-bits" not in appendix and "--nmax" not in appendix
        assert "--out" in appendix
        with pytest.raises(SystemExit):
            main(["verify", "main", "-h"])
        assert "--precision-bits" not in capsys.readouterr().out

    def test_appendix_failing_past_case_1_reads_only_fail(self, tmp_path, monkeypatch,
                                                         capsys):
        # positive_from decides steps of cases 3-5; case 1's conclusion stays TRUE
        monkeypatch.setattr(binexceed.algebra.Rational, "positive_from", lambda *_: False)
        assert main(["verify", "appendix", "--out", str(tmp_path / "a.json")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "result: FAIL (23 steps)" in lines
        assert not [line for line in lines if line.endswith(": TRUE")]


class TestFigureCommand:
    def test_anchor_rows(self, tmp_path):
        out = tmp_path / "fig.csv"
        result = run_cli("figure", "5", "--points", "1000", "--out", str(out))
        assert result.returncode == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,tail,segment"
        assert "0.200000000000,0.262720000000,HIGH" in lines
        assert "0.057000000000,0.254309751687,LOW" in lines
        assert "0.058000000000,0.258255193877,MID" in lines
        assert len(lines) == 1000

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("figure", "3", "--points", "200", "--out", str(a))
        run_cli("figure", "3", "--points", "200", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "fig.csv"
        run_cli("figure", "2", "--points", "50", "--out", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_tails_strictly_inside_unit_interval(self, tmp_path):
        out = tmp_path / "fig.csv"
        run_cli("figure", "4", "--points", "100", "--out", str(out))
        for line in out.read_text().splitlines()[1:]:
            tail = Fraction(line.split(",")[1])
            assert 0 < tail < 1

    def test_rejects_too_few_points(self):
        assert run_cli("figure", "5", "--points", "5").returncode == 2

    def test_unwritable_path_exits_four(self):
        assert run_cli("figure", "5", "--points", "20",
                       "--out", "/nonexistent/f.csv").returncode == 4


class TestMainEntry:
    def test_in_process_invocation(self, tmp_path, capsys):
        code = main(["tail", "3", "1/3"])
        assert code == 0
        assert "7/27" in capsys.readouterr().out

    def test_module_entry_prints_only_the_answer(self):
        result = run_cli("tail", "5", "1/5")
        assert result.returncode == 0
        assert result.stderr == ""

    def test_usage_errors_return_two_with_one_line(self, capsys):
        for argv in (["verify", "nonsense"], ["tail", "5"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["check", "70", "337/1000"], ["tail", " 7 ", "1/3"], ["tail", "1_0", "0.25"],
        ["check", "\u0663", "1/2"], ["tail", "5", ""], ["check", "0", "1/2"],
        ["tail", "5", "3/2"], ["check", "7", "1/3 "], ["tail", "x", "1/2"],
        ["tail", "5", "-"], ["check", "2", "1/2", "--"], ["tail", "--", "5", "1/2"]])
    def test_queries_read_as_the_parser_reads_them(self, argv, monkeypatch, capsys):
        # a plain `check n p` or `tail n p` skips argparse with the same result
        direct = main(argv), capsys.readouterr()
        monkeypatch.setattr(binexceed.cli, "_query", lambda argv: None)
        assert (main(argv), capsys.readouterr()) == direct

    def test_precision_flag_validation(self):
        assert main(["check", "2", "1/2", "--precision-bits", "4"]) == 2
        assert main(["check", "2", "1/2", "--precision-bits", "9999"]) == 2

    def test_check_takes_no_precision_flag(self, capsys):
        assert main(["check", "2", "1/2", "--precision-bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "main", "--nmax", "1", "--grid", "1"],
        ["verify", "proposition"],
        ["verify", "appendix"],
        ["verify", "anderson-samuels", "--nmax", "2", "--mmax", "2"],
        ["figure", "1", "--points", "10"],
        ["optimality", "1/4", "--nmax", "1"],
        ["tail", "1", "0"],
        ["check", "1", "1"],
        ["verify", "appendix", "--precision-bits", "8"],
    ], ids=" ".join)
    def test_smallest_accepted_values_exit_cleanly(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert len(capsys.readouterr().err.splitlines()) == 1
