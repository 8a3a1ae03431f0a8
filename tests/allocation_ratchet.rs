//! Allocation ratchet for the fixed cost of a Figure-5-style sweep point:
//! building the random network, a warm solve, auditing the four fairness
//! properties and computing the scalar metrics.
//!
//! A counting global allocator counts heap allocations (`alloc` and
//! `realloc` calls) per thread, so tests running in parallel do not mix
//! their counts. The bounds are ceilings: a change that allocates more
//! fails here, and one that allocates less may lower them.

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{check_all, jain_index, satisfaction, Allocation, LinkRateConfig, LinkRateModel};
use mlf_net::topology::random_network_with;
use mlf_net::{Network, TopologyFamily};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is a thread-local counter increment on the allocation path.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The value of `f` and the allocations this thread made computing it.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The perfbench shapes: the 30-node Figure-5 flat tree and the 96-node
/// transit–stub of `hier_linear_grid`, 8 sessions of at most 5 receivers.
const SHAPES: [(TopologyFamily, usize); 2] = [
    (TopologyFamily::FlatTree, 30),
    (TopologyFamily::TransitStub { transit: 4 }, 96),
];

/// What each measured call may allocate, at most: `random_network_with`,
/// a repeat `solve_with` on the same network through a reused workspace
/// (only the owned `[session][receiver]` output, `2·(sessions + 1)`: the
/// solver's scratch, its live-link list and its per-link floors included,
/// stays in the workspace), `check_all`, and `jain_index` with
/// `satisfaction`.
const CEILINGS: [(&str, u64); 4] = [
    ("random_network_with", 40),
    ("solve_with (warm)", 18),
    ("check_all", 6),
    ("jain_index + satisfaction", 0),
];

fn max_min(net: &Network, cfg: &LinkRateConfig, ws: &mut SolverWorkspace) -> Allocation {
    Hybrid::as_declared()
        .solve_with(net, cfg, ws)
        .expect("solvable")
        .allocation
}

#[test]
fn sweep_point_fixed_cost_stays_within_its_allocation_budget() {
    let mut ws = SolverWorkspace::new();
    for (family, nodes) in SHAPES {
        let mut worst = [0u64; 4];
        for seed in 0..16u64 {
            let (net, build) =
                allocations_during(|| random_network_with(family, seed, nodes, 8, 5).unwrap());
            for model in [
                LinkRateModel::Efficient,
                LinkRateModel::RandomJoin { sigma: 6.0 },
            ] {
                let cfg = LinkRateConfig::uniform(net.session_count(), model);
                max_min(&net, &cfg, &mut ws);
                let (alloc, solve) = allocations_during(|| max_min(&net, &cfg, &mut ws));
                let (report, audit) = allocations_during(|| check_all(&net, &cfg, &alloc));
                let (_, metrics) =
                    allocations_during(|| (jain_index(&alloc), satisfaction(&net, &alloc)));
                assert!(report.count_holding() > 0);
                worst = [
                    worst[0].max(build),
                    worst[1].max(solve),
                    worst[2].max(audit),
                    worst[3].max(metrics),
                ];
            }
        }
        for ((what, ceiling), made) in CEILINGS.into_iter().zip(worst) {
            println!(
                "{} ({nodes} nodes): {what} made {made} allocations at most",
                family.label()
            );
            assert!(
                made <= ceiling,
                "{}: {what} made {made} allocations (ceiling {ceiling})",
                family.label()
            );
        }
    }
}
