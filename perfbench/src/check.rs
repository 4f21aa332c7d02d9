//! Correctness gates.  Every result the benchmark times is checked here;
//! any mismatch fails the run.

use crate::sut::{self, Csr, Kernel, Output, VertexId};

/// What a correct result must match, made in-process at set-up.
#[derive(Clone, Debug)]
pub enum Reference {
    Labels(Vec<VertexId>),
    Dist(Vec<u64>),
    Triangles(u64),
    /// PageRank has no bitwise reference (its float sums depend on thread
    /// timing); the residual bound below is checked instead.
    Pagerank,
}

/// How a PageRank result treats dangling vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagerankForm {
    /// BSP program: a dangling vertex never receives a message, so it
    /// keeps its initial rank `1/n` and donates nothing.
    Bsp,
    /// GraphCT kernel: dangling mass is spread uniformly.
    GraphCt,
}

/// Largest accepted L1 residual of one more power-iteration sweep, for a
/// run stopped at an L1 change below `tolerance`.
pub fn pagerank_bound(tolerance: f64, n: usize) -> f64 {
    10.0 * tolerance + 1e-12 * n as f64
}

/// Check `out` for kernel `k` on `g` against `reference`.
pub fn check(
    g: &Csr,
    k: Kernel,
    source: VertexId,
    out: &Output,
    reference: &Reference,
    pagerank: (PagerankForm, f64),
) -> Result<(), String> {
    let n = g.num_vertices() as usize;
    match (k, out, reference) {
        (Kernel::Cc, Output::Labels(labels), Reference::Labels(want)) => {
            sut::validate_components(g, labels).map_err(|e| format!("cc: {e}"))?;
            if labels != want {
                return Err("cc: labels differ from the reference".into());
            }
            Ok(())
        }
        (Kernel::Bfs, Output::Bfs { dist, parent }, Reference::Dist(want)) => {
            sut::validate_bfs(g, source, dist, parent)
                .map_err(|e| format!("bfs from {source}: {e}"))?;
            if dist != want {
                return Err(format!(
                    "bfs from {source}: distances differ from the reference"
                ));
            }
            Ok(())
        }
        (Kernel::Tc, Output::Triangles(t), Reference::Triangles(want)) => {
            if t != want {
                return Err(format!("tc: {t} triangles, reference {want}"));
            }
            Ok(())
        }
        (Kernel::Pagerank, Output::Ranks(ranks), Reference::Pagerank) => {
            if ranks.len() != n {
                return Err(format!("pagerank: {} ranks for {n} vertices", ranks.len()));
            }
            let (form, tolerance) = pagerank;
            let r = pagerank_residual(g, ranks, form);
            let bound = pagerank_bound(tolerance, n);
            if r.is_nan() || r > bound {
                return Err(format!("pagerank: residual {r:e} above bound {bound:e}"));
            }
            Ok(())
        }
        _ => Err(format!("{}: result of the wrong kind", k.name())),
    }
}

/// L1 norm of `F(r) - r`, where `F` is one synchronous PageRank sweep
/// (damping 0.85) in the given form.
pub fn pagerank_residual(g: &Csr, ranks: &[f64], form: PagerankForm) -> f64 {
    const D: f64 = 0.85;
    let n = g.num_vertices();
    let nf = n as f64;
    let dangling: f64 = match form {
        PagerankForm::Bsp => 0.0,
        PagerankForm::GraphCt => (0..n)
            .filter(|&v| g.degree(v) == 0)
            .map(|v| ranks[v as usize])
            .sum(),
    };
    let base = (1.0 - D) / nf + D * dangling / nf;
    (0..n)
        .map(|v| {
            if form == PagerankForm::Bsp && g.degree(v) == 0 {
                return (1.0 / nf - ranks[v as usize]).abs();
            }
            let sum: f64 = g
                .neighbors(v)
                .iter()
                .map(|&u| ranks[u as usize] / g.degree(u) as f64)
                .sum();
            (base + D * sum - ranks[v as usize]).abs()
        })
        .sum::<f64>()
}

/// Reference for kernel `k` from `source`, computed with the GraphCT
/// kernels and the in-crate validators.
pub fn reference(g: &Csr, k: Kernel, source: VertexId) -> Reference {
    match k {
        Kernel::Cc => Reference::Labels(sut::reference_components(g)),
        Kernel::Bfs => Reference::Dist(sut::reference_bfs(g, source)),
        Kernel::Pagerank => Reference::Pagerank,
        Kernel::Tc => Reference::Triangles(sut::reference_triangles(g)),
    }
}

/// Corrupt `out` the way a subtle bug would: flip one CC label, move one
/// BFS distance, nudge one rank, or miscount by one triangle.
pub fn corrupt(out: &mut Output) {
    match out {
        Output::Labels(l) => {
            if let Some(x) = l.iter_mut().rev().find(|x| **x != 0) {
                *x -= 1;
            } else if let Some(x) = l.last_mut() {
                *x = 1;
            }
        }
        Output::Bfs { dist, .. } => {
            if let Some(x) = dist.iter_mut().find(|d| **d != 0 && **d != u64::MAX) {
                *x += 1;
            }
        }
        Output::Ranks(r) => {
            if let Some(x) = r.first_mut() {
                *x += 1e-3;
            }
        }
        Output::Triangles(t) => *t += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        sut::build(&sut::rmat_edges(8, 8, 3))
    }

    fn run_all(g: &Csr, corrupt_it: bool) -> Vec<Result<(), String>> {
        let src = sut::pick_bfs_source(g);
        Kernel::ALL
            .iter()
            .flat_map(|&k| {
                let reference = reference(g, k, src);
                let (mut b, _) = sut::bsp(g, k, src, None);
                let mut c = sut::graphct(g, k, src);
                if corrupt_it {
                    corrupt(&mut b);
                    corrupt(&mut c);
                }
                [
                    check(g, k, src, &b, &reference, (PagerankForm::Bsp, 1e-9)),
                    check(g, k, src, &c, &reference, (PagerankForm::GraphCt, 1e-9)),
                ]
            })
            .collect()
    }

    #[test]
    fn both_models_pass_the_gate() {
        for r in run_all(&small(), false) {
            r.unwrap();
        }
    }

    #[test]
    fn every_corruption_is_caught() {
        for r in run_all(&small(), true) {
            assert!(r.is_err());
        }
    }

    #[test]
    fn one_flipped_cc_label_is_caught() {
        let g = small();
        let src = sut::pick_bfs_source(&g);
        let reference = reference(&g, Kernel::Cc, src);
        let mut labels = match sut::graphct(&g, Kernel::Cc, src) {
            Output::Labels(l) => l,
            _ => unreachable!(),
        };
        let v = labels.len() - 1;
        labels[v] = if labels[v] == 0 { 1 } else { 0 };
        let out = Output::Labels(labels);
        assert!(check(
            &g,
            Kernel::Cc,
            src,
            &out,
            &reference,
            (PagerankForm::Bsp, 0.0)
        )
        .is_err());
    }

    #[test]
    fn pagerank_forms_differ_on_dangling_vertices() {
        // A graph with isolated vertices: each form accepts its own
        // fixed point and rejects the other's.
        let g = small();
        let (bsp, _) = sut::bsp(&g, Kernel::Pagerank, 0, None);
        let ct = sut::graphct(&g, Kernel::Pagerank, 0);
        let (Output::Ranks(b), Output::Ranks(c)) = (bsp, ct) else {
            unreachable!()
        };
        let bound = pagerank_bound(1e-9, b.len());
        assert!(pagerank_residual(&g, &b, PagerankForm::Bsp) <= bound);
        assert!(pagerank_residual(&g, &c, PagerankForm::GraphCt) <= bound);
        assert!(pagerank_residual(&g, &b, PagerankForm::GraphCt) > bound);
    }
}
