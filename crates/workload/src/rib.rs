//! Synthetic RIBs and route-churn streams.
//!
//! The paper's IP-routing workload uses a static 256K-entry table (§5.1);
//! scaling that axis to "Internet-scale" means (a) tables up to ~1M
//! prefixes with the default-free-zone length mix, and (b) a *churn
//! stream* — the announce/withdraw sequence a BGP session would feed the
//! control plane while the dataplane forwards. This module supplies
//! both, built on `rb_lookup::gen`'s length-distribution machinery so
//! table shape stays consistent across benches and tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rb_lookup::gen::{generate_table, TableGenConfig};
pub use rb_lookup::rcu::RouteUpdate;
use rb_lookup::{NextHop, Prefix, RouteTable};

/// Generates a full-table RIB of `n_prefixes` routes (plus the default
/// route) with a realistic /8–/24 length distribution and a small
/// fraction of longer more-specifics, deterministically from `seed`.
pub fn rib_full_table(n_prefixes: usize, seed: u64) -> RouteTable {
    generate_table(&TableGenConfig {
        routes: n_prefixes,
        seed,
        ..TableGenConfig::default()
    })
}

/// Configuration of a synthetic churn stream.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Updates to generate.
    pub updates: usize,
    /// Fraction (0.0–1.0) of withdrawals; the rest are announcements.
    /// Withdrawals pick prefixes previously announced (or present in the
    /// base RIB), so they usually hit.
    pub withdraw_fraction: f64,
    /// Next hops to spread announcements over.
    pub next_hops: NextHop,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            updates: 10_000,
            withdraw_fraction: 0.3,
            next_hops: 32,
            seed: 0xc4c4_0001,
        }
    }
}

/// Generates a churn stream against `base`: a mix of re-announcements of
/// existing prefixes (next-hop changes), announcements of fresh
/// more-specifics, and withdrawals of previously touched prefixes —
/// the three update shapes BGP churn is made of. The default route is
/// never withdrawn, so a FIB seeded from `base` keeps resolving every
/// address throughout the stream.
pub fn churn_stream(base: &RouteTable, config: &ChurnConfig) -> Vec<RouteUpdate> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut touchable: Vec<Prefix> = base
        .iter()
        .filter(|(p, _)| !p.is_default())
        .map(|(p, _)| *p)
        .collect();
    let mut updates = Vec::with_capacity(config.updates);
    while updates.len() < config.updates {
        let withdraw = !touchable.is_empty() && rng.gen_bool(config.withdraw_fraction);
        if withdraw {
            let idx = rng.gen_range(0..touchable.len());
            updates.push(RouteUpdate::Withdraw(touchable.swap_remove(idx)));
        } else if !touchable.is_empty() && rng.gen_bool(0.5) {
            // Re-announce an existing prefix with a new hop — the most
            // common real-world update.
            let p = touchable[rng.gen_range(0..touchable.len())];
            updates.push(RouteUpdate::Announce(
                p,
                rng.gen_range(0..config.next_hops.max(1)),
            ));
        } else {
            // A fresh more-specific in the unicast range.
            let addr: u32 = rng.gen_range(0x0100_0000..0xe000_0000);
            let len = rng.gen_range(16..=24);
            let p = Prefix::new(addr, len);
            touchable.push(p);
            updates.push(RouteUpdate::Announce(
                p,
                rng.gen_range(0..config.next_hops.max(1)),
            ));
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lookup::{DynamicDir24_8, LpmLookup};

    #[test]
    fn full_table_is_deterministic_and_sized() {
        let a = rib_full_table(2_000, 7);
        let b = rib_full_table(2_000, 7);
        assert!(a.len() >= 2_000);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "same seed, same table"
        );
        assert_ne!(
            a.iter().collect::<Vec<_>>(),
            rib_full_table(2_000, 8).iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn churn_stream_applies_cleanly() {
        let base = rib_full_table(1_000, 3);
        let stream = churn_stream(
            &base,
            &ChurnConfig {
                updates: 5_000,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(stream.len(), 5_000);
        let withdraws = stream
            .iter()
            .filter(|u| matches!(u, RouteUpdate::Withdraw(_)))
            .count();
        assert!(withdraws > 500, "withdrawals present: {withdraws}");
        // Applying the whole stream to a dynamic FIB must succeed and
        // keep the default route: every address still resolves.
        let mut fib = DynamicDir24_8::from_table(base).unwrap();
        let mut hits = 0usize;
        for u in &stream {
            match *u {
                RouteUpdate::Announce(p, h) => fib.insert(p, h).unwrap(),
                RouteUpdate::Withdraw(ref p) => {
                    if fib.remove(p).is_some() {
                        hits += 1;
                    }
                }
            }
        }
        assert!(hits > withdraws / 2, "most withdrawals hit: {hits}");
        for addr in [0u32, 0x0a00_0001, 0x7fff_ffff, u32::MAX] {
            assert!(fib.lookup(addr).is_some(), "default route survived");
        }
    }

    #[test]
    fn churn_stream_is_deterministic() {
        let base = rib_full_table(200, 1);
        let cfg = ChurnConfig {
            updates: 300,
            ..ChurnConfig::default()
        };
        assert_eq!(churn_stream(&base, &cfg), churn_stream(&base, &cfg));
    }
}
