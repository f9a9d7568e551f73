"""End-to-end analysis pipeline: presentation in, structured report out."""

from __future__ import annotations

import functools

from . import derlie, kron, oracle, quiver as quiver_mod
from .algebra import Presentation, build_algebra
from .errors import UnsupportedCharacteristic


class AnalysisOptions:
    def __init__(self, oracle: bool = False, decompose: bool = False,
                 assert_nonwild: bool = False):
        self.oracle, self.decompose, self.assert_nonwild = oracle, decompose, assert_nonwild


class AnalysisReport:
    """The staged analysis of one presentation: each artefact is computed
    on first use, once, and each section pulls only what it prints."""

    def __init__(self, presentation: Presentation, options: AnalysisOptions | None = None):
        self.presentation = presentation
        self.options = options if options is not None else AnalysisOptions()

    @functools.cached_property
    def table(self):
        return build_algebra(self.presentation)

    @functools.cached_property
    def hh1(self) -> derlie.HH1Result:
        return derlie.hh1(self.table, rad_only=False)

    @functools.cached_property
    def hh1_rad(self) -> derlie.HH1Result:
        return derlie.hh1(self.table, rad_only=True, full=self.hh1)

    @functools.cached_property
    def loops(self) -> derlie.LoopReport:
        return derlie.loop_criterion(self.table)

    @functools.cached_property
    def graph(self) -> quiver_mod.GraphClass:
        return quiver_mod.classify_components(
            quiver_mod.separated_quiver(self.presentation.quiver))

    @property
    def septype(self) -> str:
        return self.graph.reptype

    @functools.cached_property
    def chain_report(self) -> kron.ChainReport | None:
        """None in characteristic 2, which ``options.decompose`` refuses."""
        if self.table.field.characteristic == 2:
            if self.options.decompose:
                raise UnsupportedCharacteristic(
                    "the sl2 decomposition needs 2 to be invertible")
            return None
        return kron.decomposition_report(self.table, self.hh1_rad, self.septype,
                                         self.options.assert_nonwild)

    @functools.cached_property
    def oracle_dim(self) -> int:
        return oracle.bar_hh1_dim(self.table)

    def hh1_sections(self) -> dict:
        loops = {"orders": dict(self.loops.orders), "holds": self.loops.holds}
        return {"hh1": _lie_dict(self.hh1), "hh1_rad": _lie_dict(self.hh1_rad),
                "loop_criterion": loops}

    def septype_section(self) -> dict:
        components = [{"vertices": list(c.vertices), "verdict": c.verdict,
                       "name": c.name} for c in self.graph.components]
        return {"verdict": self.septype, "components": components}

    def chain_sections(self) -> dict:
        cr = self.chain_report
        if cr is None:
            return {"chains": {"skipped": "characteristic 2"}, "m": None,
                    "flags": {"char_ne_2": False}}
        chains = {
            "classes": [
                {
                    "pairs": [[p.a, p.b] for p in cl.representative.pairs],
                    "shape": cl.representative.shape,
                    "rotations": cl.size,
                    "surjective": s.surjective,
                    "per_pair_image_dims": {
                        "*".join(k): v for k, v in s.per_pair_image_dims.items()},
                    "kernels_coincide": s.kernels_coincide,
                    "standard_relations": {
                        "s1": st.s1, "s2": st.s2, "s3": st.s3,
                        "witnesses": list(st.witnesses),
                    },
                }
                for cl, s, st in zip(cr.classes, cr.surjectivity, cr.standard)
            ],
            "r_dim": cr.r_dim,
            "joint_kernel_dim": cr.joint_kernel_dim,
            "joint_kernel_derived_dims": list(cr.joint_kernel_derived_dims),
            "consistency_ok": cr.consistency_ok,
        }
        return {"chains": chains, "m": cr.m, "flags": dict(cr.flags)}

    def to_dict(self) -> dict:
        t = self.table
        out = {"algebra": {"field": t.field.describe(), "dim": t.dim,
                           "rad_dims": list(t.rad_dims)},
               **self.hh1_sections(), "septype": self.septype_section(),
               **self.chain_sections()}
        if self.options.oracle:
            out["oracle"] = {"bar_hh1_dim": self.oracle_dim,
                             "matches_hh1": self.oracle_dim == self.hh1.lie.dim}
        return out

    def to_text(self) -> str:
        return render_text(self.to_dict())


def render_text(d: dict) -> str:
    """The human-readable form of a ``to_dict`` report."""
    lines = []
    alg = d["algebra"]
    lines.append(f"field: {alg['field']}")
    lines.append(f"dim A: {alg['dim']}")
    lines.append("radical dims: " + " ".join(str(x) for x in alg["rad_dims"]))
    for key in ("hh1", "hh1_rad"):
        h = d[key]
        name = "HH1" if key == "hh1" else "HH1_rad"
        lines.append(
            f"{name}: dim {h['dim']} (der {h['der_dim']}, inn {h['inn_dim']}), "
            + ("solvable" if h["solvable"] else "not solvable")
            + ", derived series " + " ".join(str(x) for x in h["derived_dims"]))
    lc = d["loop_criterion"]
    if lc["orders"]:
        orders = ", ".join(f"{k}: {v}" for k, v in sorted(lc["orders"].items()))
        lines.append(f"loop orders: {orders} -> "
                     + ("criterion holds" if lc["holds"] else "criterion fails"))
    else:
        lines.append("loop orders: none")
    lines.append(f"separated quiver type: {d['septype']['verdict']}")
    for c in d["septype"]["components"]:
        name = c["name"] or "unlisted"
        lines.append(f"  component {{{', '.join(c['vertices'])}}}: "
                     f"{c['verdict']} ({name})")
    ch = d["chains"]
    if "skipped" in ch:
        lines.append(f"chains: skipped ({ch['skipped']})")
    else:
        lines.append(f"m = {d['m']} (solvable remainder dim {ch['r_dim']})")
        for cl in ch["classes"]:
            pairs = " ".join("(" + ",".join(p) + ")" for p in cl["pairs"])
            verdict = "surjective" if cl["surjective"] else "not surjective"
            std = "standard" if all(cl["standard_relations"][k]
                                    for k in ("s1", "s2", "s3")) else "non-standard"
            lines.append(f"  chain {pairs} [{cl['shape']}]: {verdict}, {std}")
        lines.append("joint kernel dim "
                     f"{ch['joint_kernel_dim']}, derived series "
                     + " ".join(str(x) for x in ch["joint_kernel_derived_dims"]))
        if not ch["consistency_ok"]:
            lines.append("warning: solvability does not match m = 0; "
                         "hypotheses likely violated")
    flags = d["flags"]
    lines.append("flags: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    if "oracle" in d:
        o = d["oracle"]
        lines.append(f"oracle HH1 dim: {o['bar_hh1_dim']} "
                     + ("(matches)" if o["matches_hh1"] else "(MISMATCH)"))
    return "\n".join(lines) + "\n"


def _lie_dict(h: derlie.HH1Result) -> dict:
    lie = h.lie
    derived = lie.derived_series()
    return {
        "dim": lie.dim,
        "der_dim": h.der_dim,
        "inn_dim": h.inn_dim,
        "solvable": derived[-1] == 0,
        "derived_dims": derived,
    }


def run_analyze(p: Presentation, options: AnalysisOptions | None = None) -> AnalysisReport:
    """The analysis with every artefact of the full report computed, in
    pipeline order, so that any error of the pipeline is raised here."""
    report = AnalysisReport(p, options)
    stages = ("table", "hh1", "hh1_rad", "loops", "graph", "chain_report")
    for stage in stages + (("oracle_dim",) if report.options.oracle else ()):
        getattr(report, stage)
    return report
