//! Content-addressed cache of tile circuit solves.
//!
//! Benchmark sweeps re-map near-identical models over and over — the faults
//! bench re-simulates the rate-0 baseline per scenario, rearrange A/B maps
//! the same weights twice, WCT re-maps between epochs. Each of those pays
//! the full line-relaxation cost for crossbar arrays whose *programmed
//! conductances are byte-for-byte identical*. This module memoises solved
//! node voltages keyed by everything that determines the solve:
//!
//! * the programmed conductance matrix (all `f64` bit patterns),
//! * the input voltage vector,
//! * the circuit parameters that enter the nodal equations (`Rdriver`,
//!   `Rwire_row`, `Rwire_col`, `Rsense`),
//! * the solve method, tolerance and sweep cap.
//!
//! Two keys being equal therefore implies the solves are identical, so a
//! hit can never change results — only skip work. Keys are 128-bit FNV-1a
//! hashes; at that width accidental collisions are out of reach of any
//! realistic workload.
//!
//! A hit replays the stored node voltages through the pure extraction
//! step, so it is **bit-identical** to the cold solve that populated the
//! entry, including its [`SolveStats`]. Only cold solves are stored: a
//! caller's warm-started solve (repair re-simulation) is never inserted, so
//! every entry is a genuine cold result. To time a cold map, empty the
//! cache first with [`clear_solve_cache`].
//!
//! Hits and misses are counted in the `sim/solve_cache_hits` /
//! `sim/solve_cache_misses` metrics (`xbar-obs`).
//!
//! A `SolveCache` is bounded by stored voltage volume (FIFO eviction), so
//! long sweeps cannot grow it without limit. One process-wide instance
//! backs the tile simulation API; tests that count entries use a private
//! one.
//!
//! [`SolveStats`]: xbar_linalg::SolveStats

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

use crate::conductance::ConductanceMatrix;
use crate::solve::{NodeVoltages, NonIdealSolver, SolveMethod};

/// Total `f64`-equivalents the cache may hold before FIFO eviction kicks
/// in (~64 MiB). Each entry is charged its voltage payload *plus*
/// [`ENTRY_OVERHEAD_F64S`], so the bound covers what the process actually
/// holds, not just the voltages.
const MAX_CACHED_F64S: usize = 8_000_000;

/// Per-entry bookkeeping charged on top of the voltage payload, in f64
/// units (8 bytes each): the 16-byte key stored twice (map + FIFO order),
/// the `SolveStats`/fallback fields, two `Vec` headers, and the hash-map
/// bucket. Slightly generous on purpose — the original accounting counted
/// only `vr.len() + vc.len()` and quietly undershot the "~64 MiB" bound.
const ENTRY_OVERHEAD_F64S: usize = 24;

/// The charged size of one entry: voltage payload plus fixed overhead.
fn entry_f64s(nodes: &NodeVoltages) -> usize {
    nodes.vr.len() + nodes.vc.len() + ENTRY_OVERHEAD_F64S
}

struct Store {
    entries: HashMap<u128, CachedSolve>,
    order: VecDeque<u128>,
    held_f64s: usize,
}

impl Store {
    fn new() -> Store {
        Store {
            entries: HashMap::new(),
            order: VecDeque::new(),
            held_f64s: 0,
        }
    }

    /// Stores `solve` under `key` unless it is already present, evicting
    /// the oldest entries (FIFO) until the charged volume fits the bound.
    /// An entry larger than the whole bound is not stored.
    fn insert(&mut self, key: u128, solve: CachedSolve) {
        let size = entry_f64s(&solve.nodes);
        if size > MAX_CACHED_F64S || self.entries.contains_key(&key) {
            return;
        }
        while self.held_f64s + size > MAX_CACHED_F64S {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.held_f64s -= entry_f64s(&evicted.nodes);
            }
        }
        self.held_f64s += size;
        self.order.push_back(key);
        self.entries.insert(key, solve);
    }
}

/// A memoised array solve: the node voltages of the cold solve that
/// populated the entry, and whether that solve needed the extended-sweep
/// fallback (so a replay reports the same outcome).
#[derive(Clone)]
pub(crate) struct CachedSolve {
    pub nodes: NodeVoltages,
    pub fallback: bool,
}

/// A bounded, content-addressed store of cold array solves. Every method
/// takes `&self`: the store sits behind a mutex, so one instance can back
/// the tile solves of every mapping worker thread.
pub(crate) struct SolveCache {
    store: Mutex<Store>,
}

impl SolveCache {
    pub(crate) fn new() -> SolveCache {
        SolveCache {
            store: Mutex::new(Store::new()),
        }
    }

    /// The process-wide cache behind [`crate::tile::simulate_tile`],
    /// [`crate::tile::solve_currents_batch`] and [`clear_solve_cache`].
    pub(crate) fn global() -> &'static SolveCache {
        static GLOBAL: OnceLock<SolveCache> = OnceLock::new();
        GLOBAL.get_or_init(SolveCache::new)
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lookup(&self, key: u128) -> Option<CachedSolve> {
        self.store().entries.get(&key).cloned()
    }

    pub(crate) fn insert(&self, key: u128, nodes: NodeVoltages, fallback: bool) {
        self.store().insert(key, CachedSolve { nodes, fallback });
    }

    /// Drops every entry and releases their memory.
    pub(crate) fn clear(&self) {
        *self.store() = Store::new();
    }

    /// Number of array solves currently stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.store().entries.len()
    }

    /// Applies `f` to every stored solve (tests tamper with entries to show
    /// that a hit replays them).
    #[cfg(test)]
    pub(crate) fn update_entries(&self, f: impl FnMut(&mut CachedSolve)) {
        self.store().entries.values_mut().for_each(f);
    }
}

/// Empties the process-wide solve cache, so the next map solves every
/// tile cold (hit/miss counters in `xbar-obs` are cumulative and
/// unaffected).
pub fn clear_solve_cache() {
    SolveCache::global().clear();
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

#[inline]
fn fnv_eat(h: &mut u128, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u128::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// 128-bit FNV-1a over everything that determines an array solve *except*
/// the input-voltage vector: method, shape, circuit parameters, solver
/// knobs, and all conductance bit patterns. A batch of solves through one
/// conductance matrix shares this prefix and only pays per-element hashing
/// for its voltage vectors ([`solve_keys_batch`]).
pub(crate) fn solve_key_prefix(solver: &NonIdealSolver, g: &ConductanceMatrix) -> u128 {
    let mut h = FNV_OFFSET;
    let tag: u8 = match solver.method() {
        SolveMethod::DenseExact => 1,
        SolveMethod::LineRelaxation => 2,
    };
    fnv_eat(&mut h, &[tag]);
    let p = solver.params();
    fnv_eat(&mut h, &(g.rows() as u64).to_le_bytes());
    fnv_eat(&mut h, &(g.cols() as u64).to_le_bytes());
    for r in [p.r_driver, p.r_wire_row, p.r_wire_col, p.r_sense] {
        fnv_eat(&mut h, &r.to_bits().to_le_bytes());
    }
    fnv_eat(&mut h, &solver.tolerance.to_bits().to_le_bytes());
    fnv_eat(&mut h, &(solver.max_sweeps as u64).to_le_bytes());
    for &x in g.as_slice() {
        fnv_eat(&mut h, &x.to_bits().to_le_bytes());
    }
    h
}

/// Continues a [`solve_key_prefix`] with one input-voltage vector.
pub(crate) fn extend_key(prefix: u128, v: &[f64]) -> u128 {
    let mut h = prefix;
    for &x in v {
        fnv_eat(&mut h, &x.to_bits().to_le_bytes());
    }
    h
}

/// 128-bit FNV-1a over everything that determines an array solve.
pub(crate) fn solve_key(solver: &NonIdealSolver, g: &ConductanceMatrix, v: &[f64]) -> u128 {
    extend_key(solve_key_prefix(solver, g), v)
}

/// Cache keys for a whole batch of solves through one conductance matrix:
/// the conductance/parameter prefix is hashed once and extended per
/// element.
pub(crate) fn solve_keys_batch(
    solver: &NonIdealSolver,
    g: &ConductanceMatrix,
    vs: &[Vec<f64>],
) -> Vec<u128> {
    let prefix = solve_key_prefix(solver, g);
    vs.iter().map(|v| extend_key(prefix, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CrossbarParams;

    fn solver(n: usize) -> NonIdealSolver {
        NonIdealSolver::new(CrossbarParams::with_size(n), SolveMethod::LineRelaxation)
    }

    #[test]
    fn key_is_content_addressed() {
        let s = solver(4);
        let g = ConductanceMatrix::filled(4, 4, 1e-5);
        let v = vec![0.25; 4];
        assert_eq!(solve_key(&s, &g, &v), solve_key(&s, &g, &v));
        // Any perturbation of the conductances changes the key.
        let mut g2 = g.clone();
        g2.set(2, 3, 1.0000001e-5);
        assert_ne!(solve_key(&s, &g, &v), solve_key(&s, &g2, &v));
        // ... as does the voltage vector ...
        let v2 = vec![0.3; 4];
        assert_ne!(solve_key(&s, &g, &v), solve_key(&s, &g, &v2));
        // ... the circuit parameters ...
        let mut p = CrossbarParams::with_size(4);
        p.r_wire_row *= 2.0;
        let s2 = NonIdealSolver::new(p, SolveMethod::LineRelaxation);
        assert_ne!(solve_key(&s, &g, &v), solve_key(&s2, &g, &v));
        // ... and the method.
        let sd = NonIdealSolver::new(CrossbarParams::with_size(4), SolveMethod::DenseExact);
        assert_ne!(solve_key(&s, &g, &v), solve_key(&sd, &g, &v));
    }

    #[test]
    fn shape_enters_the_key() {
        // A 2×8 and an 8×2 array can share the same flat data; their solves
        // differ, so their keys must too.
        let p = {
            let mut p = CrossbarParams::with_size(8);
            p.rows = 8;
            p.cols = 8;
            p
        };
        let s = NonIdealSolver::new(p, SolveMethod::LineRelaxation);
        let wide = ConductanceMatrix::filled(2, 8, 1e-5);
        let tall = ConductanceMatrix::filled(8, 2, 1e-5);
        assert_ne!(
            solve_key(&s, &wide, &[0.25; 2]),
            solve_key(&s, &tall, &[0.25; 8])
        );
    }

    #[test]
    fn eviction_keeps_volume_bounded() {
        // A private store: the process-global one is shared with every
        // other test in this binary, so exact counts on it would race.
        let solve = |k: u64, len: usize| CachedSolve {
            nodes: NodeVoltages {
                vr: vec![k as f64; len],
                vc: vec![k as f64; len],
                stats: Default::default(),
            },
            fallback: false,
        };
        // Exactly-half-payload entries: with the per-entry overhead charged,
        // two of them exceed the budget — the original accounting (payload
        // only) would have kept both and quietly overshot the bound.
        let mut store = Store::new();
        for k in 0..5u64 {
            store.insert(u128::from(k), solve(k, MAX_CACHED_F64S / 4));
        }
        assert_eq!(
            store.entries.len(),
            1,
            "overhead must count against the bound"
        );
        assert!(
            !store.entries.contains_key(&0),
            "oldest entries must be evicted"
        );
        assert!(store.entries.contains_key(&4));
        assert!(store.held_f64s <= MAX_CACHED_F64S);
        // Entries that leave room for the overhead: two fit at a time.
        let mut store = Store::new();
        let len = MAX_CACHED_F64S / 4 - ENTRY_OVERHEAD_F64S;
        for k in 0..5u64 {
            store.insert(u128::from(k), solve(k, len));
        }
        assert_eq!(store.entries.len(), 2);
        assert!(store.entries.contains_key(&3) && store.entries.contains_key(&4));
        assert!(store.held_f64s <= MAX_CACHED_F64S);
        // Accounting stays exact through eviction churn: after two more
        // evictions the store is charged for exactly its two entries.
        for k in 5..7u64 {
            store.insert(u128::from(k), solve(k, len));
        }
        assert_eq!(store.entries.len(), 2);
        assert_eq!(store.held_f64s, 2 * (2 * len + ENTRY_OVERHEAD_F64S));
        // An entry above the whole bound is refused outright.
        store.insert(99, solve(99, MAX_CACHED_F64S));
        assert!(!store.entries.contains_key(&99));
        assert_eq!(store.entries.len(), 2);
    }

    #[test]
    fn batch_keys_match_per_element_keys() {
        let s = solver(4);
        let g = ConductanceMatrix::filled(4, 4, 1e-5);
        let vs: Vec<Vec<f64>> = vec![
            vec![0.25; 4],
            vec![0.1, 0.2, 0.3, 0.4],
            vec![0.25; 4], // duplicate of element 0 — identical key expected
        ];
        let batch = solve_keys_batch(&s, &g, &vs);
        for (k, v) in batch.iter().zip(&vs) {
            assert_eq!(*k, solve_key(&s, &g, v));
        }
        assert_eq!(batch[0], batch[2]);
        assert_ne!(batch[0], batch[1]);
    }
}
