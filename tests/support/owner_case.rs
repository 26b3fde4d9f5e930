//! Shared fixture of the owner-compute properties in `threaded.rs` and
//! `dataflow.rs`: increment loops over a quad mesh whose edges and
//! nodes may be shuffled and one of whose edges may have coinciding map
//! entries.
//!
//! The kernels use non-dyadic constants on purpose: any change to the
//! order of one element's increments changes its bits, so bitwise
//! equality with `core::seq` pins the update order itself.

use op2::core::{seq, AccessMode, Arg, Args, DatId, Domain, LoopSpec, SetId};
use op2::mesh::shuffle::shuffle_set;
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};

/// Edge flux into both end nodes: args 0, 1 read `x`, args 2, 3 `Inc`
/// the node residual.
fn flux(args: &Args<'_>) {
    let a = args.get(0, 0);
    let b = args.get(1, 0);
    args.inc(2, 0, (b - a) * 0.123456789 + 0.1);
    args.inc(3, 0, (a - b) * 0.987654321 + 0.3);
}

/// [`flux`] plus increments into the two cells either side (args 4, 5):
/// one loop, two target sets.
fn two_set(args: &Args<'_>) {
    flux(args);
    let a = args.get(0, 0);
    let b = args.get(1, 0);
    args.inc(4, 0, a * 0.317 - b * 0.011);
    args.inc(5, 0, b * 0.271 + a * 0.013);
}

/// Read-modify-write of both end nodes through the map: not an
/// owner-compute candidate, so it keeps the colored path.
fn relax(args: &Args<'_>) {
    let a = args.get(0, 0);
    let b = args.get(1, 0);
    args.set(0, 0, a * 0.75 + b * 0.1);
    args.set(1, 0, b * 0.5 + a * 0.3);
}

pub struct OwnerCase {
    pub dom: Domain,
    pub nodes: SetId,
    pub coords: DatId,
    /// Node residual and cell residual.
    pub dats: [DatId; 2],
    /// Eligible: node increments through `e2n`.
    pub flux: LoopSpec,
    /// Eligible: increments nodes through `e2n` and cells through `e2c`.
    pub two_set: LoopSpec,
    /// Ineligible: `Rw` through `e2n`.
    pub relax: LoopSpec,
}

impl OwnerCase {
    /// An `nx × ny` quad mesh. With `shuffle`, edges and nodes are
    /// renumbered by seeded random permutations; with `coincident`, the
    /// middle edge's second node is set to its first.
    pub fn build(nx: usize, ny: usize, shuffle: Option<u64>, coincident: bool) -> OwnerCase {
        let m = Quad2D::generate(nx, ny);
        let mut dom = m.dom;
        let n_nodes = dom.set(m.nodes).size;
        if coincident {
            let mid = dom.set(m.edges).size / 2;
            let values = &mut dom.map_mut(m.e2n).values;
            values[2 * mid + 1] = values[2 * mid];
        }
        let x0: Vec<f64> = (0..n_nodes).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = dom.decl_dat("x", m.nodes, 1, x0);
        let rn = dom.decl_dat_zeros("rn", m.nodes, 1);
        let rc = dom.decl_dat_zeros("rc", m.cells, 1);
        if let Some(seed) = shuffle {
            shuffle_set(&mut dom, m.edges, seed);
            shuffle_set(&mut dom, m.nodes, seed ^ 0x9e37_79b9);
        }
        let read_x = [
            Arg::dat_indirect(x, m.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(x, m.e2n, 1, AccessMode::Read),
        ];
        let inc_rn = [
            Arg::dat_indirect(rn, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(rn, m.e2n, 1, AccessMode::Inc),
        ];
        let inc_rc = [
            Arg::dat_indirect(rc, m.e2c, 0, AccessMode::Inc),
            Arg::dat_indirect(rc, m.e2c, 1, AccessMode::Inc),
        ];
        OwnerCase {
            flux: LoopSpec::new("flux", m.edges, [read_x, inc_rn].concat(), flux),
            two_set: LoopSpec::new(
                "two_set",
                m.edges,
                [read_x, inc_rn, inc_rc].concat(),
                two_set,
            ),
            relax: LoopSpec::new(
                "relax",
                m.edges,
                vec![
                    Arg::dat_indirect(rn, m.e2n, 0, AccessMode::Rw),
                    Arg::dat_indirect(rn, m.e2n, 1, AccessMode::Rw),
                ],
                relax,
            ),
            dom,
            nodes: m.nodes,
            coords: m.coords,
            dats: [rn, rc],
        }
    }

    /// The loops one program iteration runs, in order.
    pub fn program(&self) -> [&LoopSpec; 3] {
        [&self.flux, &self.two_set, &self.relax]
    }

    /// Bit patterns of the residual dats.
    pub fn bits(&self, dom: &Domain) -> Vec<Vec<u64>> {
        self.dats
            .iter()
            .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// `iters` program iterations under `core::seq`.
    pub fn run_seq(&self, iters: usize) -> Vec<Vec<u64>> {
        let mut dom = self.dom.clone();
        for _ in 0..iters {
            for spec in self.program() {
                seq::run_loop(&mut dom, spec);
            }
        }
        self.bits(&dom)
    }

    /// RCB layouts over `nparts` ranks.
    pub fn layouts(&self, nparts: usize) -> Vec<RankLayout> {
        let base = rcb_partition(&self.dom.dat(self.coords).data, 2, nparts);
        let own = derive_ownership(&self.dom, self.nodes, base, nparts);
        build_layouts(&self.dom, &own, 2)
    }
}
