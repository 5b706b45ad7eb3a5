"""Unit tests for the workload linter (repro.analysis.lint)."""

import pytest

from repro.analysis.lint import ERROR, WARNING, LintError, active, errors, lint_program
from repro.isa.assembler import assemble
from repro.workloads import dsl
from repro.workloads.suite import benchmark_suite


def _rules(source, allow=()):
    diags = active(lint_program(assemble(source, name="t"), allow=allow))
    return {d.rule for d in diags}


def _find(source, rule):
    diags = lint_program(assemble(source, name="t"))
    return [d for d in diags if d.rule == rule]


class TestRules:
    def test_clean_program(self):
        assert _rules("main:\naddi r1, r0, 1\nout r1\nhalt") == set()

    def test_missing_halt(self):
        assert "missing-halt" in _rules("main:\nj main")

    def test_fall_off_end(self):
        assert "fall-off-end" in _rules("addi r1, r0, 1")

    def test_halt_unreachable_infinite_loop(self):
        rules = _rules(
            """
            main:
                beq r1, r0, spin
                halt
            spin:
                j spin
            """
        )
        assert "halt-unreachable" in rules
        assert "missing-halt" not in rules

    def test_unreachable_code(self):
        assert "unreachable-code" in _rules("main:\nj end\naddi r1, r0, 1\nend:\nhalt")

    def test_undef_read(self):
        diags = _find("main:\nout r5\nhalt", "undef-read")
        assert diags and diags[0].severity == WARNING
        assert "r5" in diags[0].message

    def test_dead_write(self):
        diags = _find(
            "main:\naddi r1, r0, 1\naddi r1, r0, 2\nout r1\nhalt", "dead-write"
        )
        assert len(diags) == 1 and diags[0].index == 0

    def test_dead_store(self):
        source = """
            main:
                sw r1, arr(r0)
                sw r2, arr(r0)
                lw r3, arr(r0)
                out r3
                halt
            .data
            arr: .word 0
        """
        assert [d.index for d in _find(source, "dead-store")] == [0]

    def test_r0_write(self):
        assert "r0-write" in _rules("main:\nadd r0, r1, r2\nhalt")

    def test_oob_and_unaligned_data(self):
        source = """
            main:
                lw r1, arr(r0)
                lw r2, 2(r3)        # r3 = 0 statically: addr 2, unaligned+oob
                halt
            .data
            arr: .word 0
        """
        rules = _rules(source)
        assert "oob-data" in rules and "unaligned-data" in rules
        assert all(d.severity == ERROR for d in _find(source, "oob-data"))

    def test_div_zero(self):
        assert "div-zero" in _rules("main:\naddi r1, r0, 4\ndiv r2, r1, r0\nhalt")

    def test_conv_link(self):
        assert "conv-link" in _rules("main:\njal r5, fn\nhalt\nfn:\njalr r0, r5")
        assert "conv-link" not in _rules("main:\njal r31, fn\nhalt\nfn:\njalr r0, r31")

    def test_lcg_low_bits(self):
        source = """
            main:
                lui  r29, 1
                andi r1, r29, 7     # low bits of the LCG state
                out  r1
                halt
        """
        assert "lcg-low-bits" in _rules(source)

    def test_lcg_high_bits_ok(self):
        source = """
            main:
                lui  r29, 1
                srli r1, r29, 28
                andi r1, r1, 1
                out  r1
                halt
        """
        assert "lcg-low-bits" not in _rules(source)


class TestSuppression:
    SOURCE = """
        main:
            addi r1, r0, 1          # lint: ok(dead-write)
            addi r1, r0, 2
            out  r1
            halt
    """

    def test_source_suppression(self):
        diags = lint_program(assemble(self.SOURCE, name="t"))
        dead = [d for d in diags if d.rule == "dead-write"]
        assert len(dead) == 1 and dead[0].suppressed
        assert active(diags) == []

    def test_bare_ok_suppresses_all_rules(self):
        source = "main:\naddi r1, r0, 1  # lint: ok\naddi r1, r0, 2\nout r1\nhalt"
        assert active(lint_program(assemble(source, name="t"))) == []

    def test_mismatched_rule_does_not_suppress(self):
        source = "main:\naddi r1, r0, 1  # lint: ok(r0-write)\naddi r1, r0, 2\nout r1\nhalt"
        assert "dead-write" in {d.rule for d in active(lint_program(assemble(source)))}

    def test_allow_list(self):
        assert _rules(
            "main:\naddi r1, r0, 1\naddi r1, r0, 2\nout r1\nhalt",
            allow=("dead-write",),
        ) == set()

    def test_unknown_allow_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_program(assemble("halt"), allow=("no-such-rule",))


class TestWorkloadIntegration:
    def test_all_bundled_workloads_lint_clean(self):
        for bench in benchmark_suite():
            program = bench.program(scale=1)
            bad = active(lint_program(program))
            assert bad == [], (
                f"{bench.name}: " + "; ".join(d.render() for d in bad)
            )

    def test_build_raises_on_lint_error(self):
        asm = dsl.Asm("broken")
        asm.emit("main:\naddi r1, r0, 1")  # falls off the end
        with pytest.raises(LintError, match="fall-off-end"):
            asm.build()

    def test_build_opt_outs(self, monkeypatch):
        asm = dsl.Asm("broken")
        asm.emit("main:\naddi r1, r0, 1")
        assert len(asm.build(lint=False)) == 1
        monkeypatch.setenv("REPRO_WORKLOAD_LINT", "0")
        assert len(asm.build()) == 1

    @pytest.mark.parametrize("setting", [None, "0", "1"])
    def test_cli_keeps_callers_lint_setting(self, monkeypatch, tmp_path,
                                            setting):
        """``python -m repro.analysis`` turns build-time lint off while
        it loads its targets, then restores the caller's setting."""
        import argparse
        import os

        from repro.analysis.__main__ import _load_targets

        source = tmp_path / "prog.s"
        source.write_text("main:\nhalt\n")
        if setting is None:
            monkeypatch.delenv("REPRO_WORKLOAD_LINT", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKLOAD_LINT", setting)
        args = argparse.Namespace(targets=[str(source), "li"],
                                  all_workloads=False, scale=1)
        assert len(_load_targets(args)) == 2
        assert os.environ.get("REPRO_WORKLOAD_LINT") == setting

    def test_build_allows_warnings(self):
        asm = dsl.Asm("warns")
        asm.emit("main:\naddi r1, r0, 1\naddi r1, r0, 2\nout r1\nhalt")
        program = asm.build()  # dead-write is warning-severity: no raise
        assert errors(lint_program(program)) == []


class TestErrorStructure:
    def test_diagnostic_carries_source_location(self):
        program = assemble("main:\n    addi r1, r0, 1\n    halt", name="t")
        diags = lint_program(program)
        dead = [d for d in diags if d.rule == "dead-write"]
        assert dead[0].line_no == 2
        assert "addi r1, r0, 1" in dead[0].line_text
        assert "line 2" in dead[0].render()
