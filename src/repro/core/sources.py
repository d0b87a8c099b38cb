"""The parallel-reduction DSL library (the paper's Figures 1 and 3).

One spectrum named ``reduce`` is generated per (reduction op, element
type). Its codelets are exactly the paper's:

* ``scalar``     — atomic autonomous serial reduction, Figure 1(a);
* ``tile``       — compound codelet with a tiled access pattern and the
  Map global-atomic API, Figure 1(b);
* ``stride``     — same compound codelet with a strided access pattern;
* ``coop_tree``  — cooperative tree-based summation (V), Figure 1(c);
* ``shared_v1``  — single shared atomic accumulator (VA1), Figure 3(a);
* ``shared_v2``  — two-step shared atomic (VA2), Figure 3(b).

The shuffle variants (VS, VA2S) are *not* written here: the warp-shuffle
AST pass derives them from ``coop_tree`` and ``shared_v2`` automatically
(Section III-C: "without requiring manual source code modification").

Non-``add`` reductions pad with the op's identity instead of ``0`` (the
paper only evaluates sums; padding with the identity keeps max/min
correct for negative inputs). Identities, API names, qualifiers and
combine statements come from :mod:`repro.lang.reductions`.
"""

from __future__ import annotations

from ..lang import AnalyzedProgram, analyze_source
from ..lang.reductions import LIBRARY_OPS, combine_source, identity_literal, reduction


def reduction_source(op: str = "add", ctype: str = "float") -> str:
    """DSL source text for the full ``reduce`` spectrum."""
    if op not in LIBRARY_OPS:
        raise ValueError(
            f"DSL codelet library supports {LIBRARY_OPS}; op {op!r} is only "
            f"available through the Map atomic API"
        )
    ident = identity_literal(op, ctype)
    api = reduction(op).api
    qualifier = reduction(op).qualifier
    acc = combine_source(op, "accum", "in[idx]")
    tree_read = f"(vthread.LaneId() + offset < vthread.Size()) ? tmp[vthread.ThreadId() + offset] : {ident}"
    tree_step = combine_source(op, "val", tree_read)
    partial_read = (
        f"(vthread.LaneId() + offset < vthread.Size()) ? "
        f"partial[vthread.ThreadId() + offset] : {ident}"
    )
    partial_step = combine_source(op, "val", partial_read)

    return f"""
// ---- Figure 1(a): atomic autonomous serial reduction -------------------
__codelet __tag(scalar)
{ctype} reduce(const Array<1,{ctype}> in) {{
  unsigned len = in.Size();
  {ctype} accum = {ident};
  for (unsigned idx = 0; idx < len; idx += 1) {{
    {acc}
  }}
  return accum;
}}

// ---- Figure 1(b), tiled: compound codelet + Map atomic API --------------
__codelet __tag(tile)
{ctype} reduce(const Array<1,{ctype}> in) {{
  __tunable unsigned p;
  unsigned len = in.Size();
  unsigned tile = (len + p - 1) / p;
  Sequence start(i * tile);
  Sequence inc(1);
  Sequence end(min((i + 1) * tile, len));
  Map map(reduce, partition(in, p, start, inc, end));
  map.{api}();
  return reduce(map);
}}

// ---- Figure 1(b), strided: compound codelet + Map atomic API ------------
__codelet __tag(stride)
{ctype} reduce(const Array<1,{ctype}> in) {{
  __tunable unsigned p;
  unsigned len = in.Size();
  Sequence start(i);
  Sequence inc(p);
  Sequence end(len);
  Map map(reduce, partition(in, p, start, inc, end));
  map.{api}();
  return reduce(map);
}}

// ---- Figure 1(c): cooperative tree-based reduction (V) -------------------
__codelet __coop __tag(coop_tree)
{ctype} reduce(const Array<1,{ctype}> in) {{
  Vector vthread();
  __shared {ctype} partial[vthread.MaxSize()];
  __shared {ctype} tmp[in.Size()];
  {ctype} val = {ident};
  val = (vthread.ThreadId() < in.Size()) ? in[vthread.ThreadId()] : {ident};
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {{
    {tree_step}
    tmp[vthread.ThreadId()] = val;
  }}
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {{
    if (vthread.LaneId() == 0) {{
      partial[vthread.VectorId()] = val;
    }}
    if (vthread.VectorId() == 0) {{
      val = (vthread.ThreadId() <= (in.Size() / vthread.MaxSize())) ? partial[vthread.LaneId()] : {ident};
      for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {{
        {partial_step}
        partial[vthread.ThreadId()] = val;
      }}
    }}
  }}
  return val;
}}

// ---- Figure 3(a): single shared atomic accumulator (VA1) -----------------
__codelet __coop __tag(shared_v1)
{ctype} reduce(const Array<1,{ctype}> in) {{
  Vector vthread();
  __shared {qualifier} {ctype} tmp;
  {ctype} val = {ident};
  val = (vthread.ThreadId() < in.Size()) ? in[vthread.ThreadId()] : {ident};
  tmp = val;
  return tmp;
}}

// ---- Figure 3(b): two-step shared atomic (VA2) ----------------------------
__codelet __coop __tag(shared_v2)
{ctype} reduce(const Array<1,{ctype}> in) {{
  Vector vthread();
  __shared {qualifier} {ctype} partial;
  __shared {ctype} tmp[in.Size()];
  {ctype} val = {ident};
  val = (vthread.ThreadId() < in.Size()) ? in[vthread.ThreadId()] : {ident};
  tmp[vthread.ThreadId()] = val;
  for (int offset = vthread.MaxSize() / 2; offset > 0; offset /= 2) {{
    {tree_step}
    tmp[vthread.ThreadId()] = val;
  }}
  if (in.Size() != vthread.MaxSize() && in.Size() / vthread.MaxSize() > 0) {{
    if (vthread.LaneId() == 0) {{
      partial = val;
    }}
    if (vthread.VectorId() == 0) {{
      val = partial;
    }}
  }}
  return val;
}}
"""


def load_reduction_program(op: str = "add", ctype: str = "float") -> AnalyzedProgram:
    """Parse + analyze the reduction spectrum for one (op, element type)."""
    text = reduction_source(op=op, ctype=ctype)
    return analyze_source(text, name=f"reduce_{op}_{ctype}.tgm")
