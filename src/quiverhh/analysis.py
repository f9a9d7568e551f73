"""End-to-end analysis pipeline: presentation in, structured report out."""

from __future__ import annotations

from dataclasses import dataclass

from . import derlie, kron, oracle, quiver as quiver_mod
from .algebra import Presentation, build_algebra
from .errors import UnsupportedCharacteristic


@dataclass
class AnalysisOptions:
    oracle: bool = False
    decompose: bool = False
    assert_nonwild: bool = False


@dataclass
class AnalysisReport:
    presentation: Presentation
    table: object
    hh1: derlie.HH1Result
    hh1_rad: derlie.HH1Result
    loops: derlie.LoopReport
    septype: str
    graph: quiver_mod.GraphClass
    chain_report: kron.ChainReport | None
    chains_skipped_reason: str | None
    oracle_dim: int | None

    def to_dict(self) -> dict:
        t = self.table
        out = {
            "algebra": {
                "field": t.field.describe(),
                "dim": t.dim,
                "rad_dims": list(t.rad_dims),
            },
            "hh1": _lie_dict(self.hh1),
            "hh1_rad": _lie_dict(self.hh1_rad),
            "loop_criterion": {
                "orders": dict(self.loops.orders),
                "holds": self.loops.holds,
            },
            "septype": {
                "verdict": self.septype,
                "components": [
                    {"vertices": list(c.vertices), "verdict": c.verdict,
                     "name": c.name}
                    for c in self.graph.components
                ],
            },
        }
        cr = self.chain_report
        if cr is None:
            out["chains"] = {"skipped": self.chains_skipped_reason}
            out["m"] = None
            out["flags"] = {"char_ne_2": t.field.characteristic != 2}
        else:
            out["chains"] = {
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
            out["m"] = cr.m
            out["flags"] = dict(cr.flags)
        if self.oracle_dim is not None:
            out["oracle"] = {
                "bar_hh1_dim": self.oracle_dim,
                "matches_hh1": self.oracle_dim == self.hh1.lie.dim,
            }
        return out

    def to_text(self) -> str:
        d = self.to_dict()
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
    if options is None:
        options = AnalysisOptions()
    table = build_algebra(p)
    full = derlie.hh1(table, rad_only=False)
    rad = derlie.hh1(table, rad_only=True, full=full)
    loops = derlie.loop_criterion(table)
    graph = quiver_mod.classify_components(quiver_mod.separated_quiver(p.quiver))
    septype = graph.reptype
    chain_report = None
    skipped = None
    if table.field.characteristic == 2:
        if options.decompose:
            raise UnsupportedCharacteristic(
                "the sl2 decomposition needs 2 to be invertible")
        skipped = "characteristic 2"
    else:
        chain_report = kron.decomposition_report(table, rad, septype, options.assert_nonwild)
    oracle_dim = oracle.bar_hh1_dim(table) if options.oracle else None
    return AnalysisReport(p, table, full, rad, loops, septype, graph,
                          chain_report, skipped, oracle_dim)
