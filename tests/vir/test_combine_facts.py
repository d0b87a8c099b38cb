"""The keyed-combine facts (``KernelFacts.combine_start``,
``combine_end``, ``combine_keys``, ``combine_buffers``): which registers
key a block combine and where it starts."""

from repro import ReductionFramework
from repro.codegen import Tunables
from repro.vir.analysis import kernel_facts
from repro.vir.assembler import parse_kernel

#: A coop-style block: ``%cnt`` is the block's element count and ``%base``
#: places its load.
HEAD = """
.kernel k(params: n, epb; buffers: in, out)
  .shared s[64]
  %t = %tid
  %b = %ctaid
  %n = ld.param [n]
  %base = mul %b, $epb
  %left = sub %n, %base
  %cnt = min %left, $epb
  %on = lt %t, %cnt
  %v = mov 0.0
  if %on {
    %g = add %base, %t
    %v = ld.global [in + %g]
  }
"""

COMBINE = """
  st.shared [s + %t], %v
  bar.sync
  %half = div %cnt, 2
  %low = lt %t, %half
  if %low {
    %w = ld.shared [s + %t]
  }
"""

SUFFIX = """
  %z = eq %t, 0
  if %z {
    atom.global.device.add [out + 0], %v
  }
"""


def _facts(text):
    return kernel_facts(parse_kernel(text))


def test_block_count_keys_the_combine_and_the_load_stays_before_it():
    facts = _facts(HEAD + COMBINE + SUFFIX)
    assert facts.combine_keys == ("cnt",)
    # The load under ``if %on`` reads %base: the combine starts after it.
    assert (facts.combine_start, facts.combine_end) == (9, 14)
    assert facts.suffix_start == 14
    assert facts.combine_buffers == ()


def test_a_register_in_an_address_slice_is_never_a_key():
    """%base places the load; a combine that reads it directly cannot be
    keyed by it, so it reads a launch-dependent value and starts later."""
    facts = _facts(HEAD + COMBINE.replace("%half = div %cnt, 2",
                                          "%half = div %base, 2") + SUFFIX)
    assert "base" not in facts.combine_keys
    assert facts.combine_start is None or facts.combine_start > 11


def test_a_lane_register_is_never_a_key():
    """%lc = %cnt - %t varies per lane: a guard on it is not keyed."""
    text = HEAD + COMBINE.replace(
        "%half = div %cnt, 2", "%lc = sub %cnt, %t\n  %half = div %lc, 2"
    ) + SUFFIX
    facts = _facts(text)
    assert "lc" not in facts.combine_keys
    assert facts.variance["lc"] == "lane"
    assert facts.combine_keys == ("cnt",)  # reached through %lc


def test_a_register_written_under_a_guard_is_never_a_key():
    """%cnt is written twice, once under a guard: the combine is keyed
    by %half, the first key register after it, and starts there."""
    text = HEAD.replace(
        "  %cnt = min %left, $epb\n",
        "  %cnt = min %left, $epb\n  %p = gt %left, 0\n  if %p {\n"
        "    %cnt = add %cnt, 0\n  }\n",
    ) + COMBINE + SUFFIX
    facts = _facts(text)
    assert facts.combine_keys == ("half",)
    assert (facts.combine_start, facts.combine_end) == (14, 16)


def test_combine_that_feeds_the_suffix_runs_to_the_end():
    """The suffix reads %half, which the combine writes: replaying the
    combine would leave it unwritten, so the keyed region takes the
    suffix along."""
    facts = _facts(HEAD + COMBINE + SUFFIX.replace(
        "%z = eq %t, 0", "%z = eq %t, %half"
    ))
    assert facts.combine_keys == ("cnt",)
    assert facts.combine_end is None


def test_coop_catalog_keys_the_element_count():
    fw = ReductionFramework()
    for label in ("l", "m", "o", "p"):
        kernel = fw.build(label, 1 << 20, Tunables(block=256)).kernel_steps()[0].kernel
        facts = kernel_facts(kernel)
        assert facts.combine_keys == ("r7",), label
        assert facts.combine_start < facts.suffix_start == facts.combine_end
    # Compound versions' combines read no key: they keep the suffix only.
    kernel = fw.build("b", 1 << 20, Tunables(block=256)).kernel_steps()[0].kernel
    assert kernel_facts(kernel).combine_start is None
