//! The paper's evaluation as library functions: one per table or figure
//! (§5–§6, plus the §3.3, §4.2 and §8 side results), each returning the
//! tables it prints. `cargo run -p rb-bench --bin paper <name>` prints
//! one ([`TABLES`] and [`MEASURED`] list the names); `tests/golden.rs`
//! holds the paper-vs-reproduction sections of EXPERIMENTS.md to what the
//! [`TABLES`] functions return. The paper's own numbers live in [`paper`].

use routebricks::report::TextTable;
use std::fmt;

mod measured;
mod tables;
pub use measured::*;
pub use tables::*;

pub mod paper {
    //! The numbers the paper reports, transcribed from the text.

    /// Table 1: (kp, kn, Gbps) for 64 B minimal forwarding.
    pub const TABLE1: [(u32, u32, f64); 3] = [(1, 1, 1.46), (32, 1, 4.97), (32, 16, 9.77)];

    /// Table 2 rows: (component, nominal Gbps, empirical Gbps);
    /// CPU row is in Gcycles/s.
    pub const TABLE2: [(&str, f64, f64); 5] = [
        ("CPUs (Gcycles/s)", 22.4, 22.4),
        ("Memory", 410.0, 262.0),
        ("Inter-socket link", 200.0, 144.34),
        ("I/O-socket links", 400.0, 117.0),
        ("PCIe buses (v1.1)", 64.0, 50.8),
    ];

    /// Table 3: (application, instructions/packet, cycles/instruction).
    pub const TABLE3: [(&str, f64, f64); 3] = [
        ("Minimal forwarding", 1_033.0, 1.19),
        ("IP routing", 1_512.0, 1.23),
        ("IPsec", 14_221.0, 0.55),
    ];

    /// Fig. 6 per-FP rates in Gbps: parallel, pipeline (shared L3),
    /// pipeline (across sockets), overlapping without MQ, with MQ.
    pub const FIG6_PARALLEL: f64 = 1.7;
    pub const FIG6_PIPELINE_SHARED: f64 = 1.2;
    pub const FIG6_PIPELINE_CROSS: f64 = 0.6;
    pub const FIG6_OVERLAP_NO_MQ: f64 = 0.7;
    pub const FIG6_OVERLAP_MQ: f64 = 1.7;

    /// Fig. 7 anchors: final rate and the improvement factors.
    pub const FIG7_FULL_MPPS: f64 = 18.96;
    pub const FIG7_VS_NEHALEM_BASE: f64 = 6.7;
    pub const FIG7_VS_XEON: f64 = 11.0;

    /// Fig. 8 headline rates (Gbps): (application, 64B, Abilene).
    pub const FIG8: [(&str, f64, f64); 3] = [
        ("Minimal forwarding", 9.7, 24.6),
        ("IP routing", 6.35, 24.6),
        ("IPsec", 1.4, 4.45),
    ];

    /// §5.3 next-generation projections (Gbps at 64 B), and the current
    /// server's Abilene rate had it not been limited to two NIC slots.
    pub const SCALING: [(&str, f64); 3] = [
        ("Minimal forwarding", 38.8),
        ("IP routing", 19.9),
        ("IPsec", 5.8),
    ];
    pub const SCALING_UNCONSTRAINED_ABILENE_GBPS: f64 = 70.0;

    /// §6.2 per-server latency terms in µs: 4 DMA transfers of 2.56 µs,
    /// the 16-packet batch wait, processing.
    pub const LATENCY_TERMS_US: [f64; 3] = [4.0 * 2.56, 12.8, 0.8];

    /// §6.2 RB4 results.
    pub const RB4_64B_GBPS: f64 = 12.0;
    pub const RB4_ABILENE_GBPS: f64 = 35.0;
    pub const RB4_EXPECTED_64B_RANGE: (f64, f64) = (12.7, 19.4);
    pub const RB4_REORDER_WITH: f64 = 0.0015;
    pub const RB4_REORDER_WITHOUT: f64 = 0.055;
    pub const RB4_PER_SERVER_LATENCY_US: f64 = 24.0;
    pub const RB4_CLUSTER_LATENCY_US: (f64, f64) = (47.6, 66.4);
}

/// A function that computes one table or figure.
pub type TableFn = fn() -> Vec<Table>;

/// Every model, DES and simulation table function by the name
/// `paper <name>` takes, in the paper's order; each is deterministic.
pub const TABLES: [(&str, TableFn); 15] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig3", fig3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("numa", numa),
    ("latency", latency),
    ("topologies", topologies),
    ("discussion", discussion),
    ("scaling", scaling),
    ("rb4", rb4),
];

/// The tables measured on this host, by name: `paper <name>` prints
/// them after the [`TABLES`] entry of the same name, if there is one.
pub const MEASURED: [(&str, TableFn); 2] = [("table1", table1_measured), ("regimes", regimes)];

/// One printed table: a title, the column headers, the rows as printed
/// (every number already at print precision) and a closing note.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub header: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
    pub note: String,
}

impl Table {
    /// `header` names the columns, separated by ` | `.
    fn new(title: impl Into<String>, header: &'static str) -> Table {
        Table {
            title: title.into(),
            header: header.split(" | ").collect(),
            ..Table::default()
        }
    }

    fn rows<R: Into<Vec<String>>>(mut self, rows: impl IntoIterator<Item = R>) -> Table {
        self.rows.extend(rows.into_iter().map(Into::into));
        self
    }

    fn note(mut self, note: impl Into<String>) -> Table {
        self.note = note.into();
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = TextTable::new(self.header.iter().copied());
        for row in &self.rows {
            text.row(row.iter().cloned());
        }
        write!(f, "{}\n\n{text}", self.title)?;
        if !self.note.is_empty() {
            write!(f, "\n{}\n", self.note)?;
        }
        Ok(())
    }
}

/// Formats a measured-vs-paper pair with the relative deviation.
pub fn compare(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:.2} (paper: n/a)");
    }
    let dev = (measured / paper - 1.0) * 100.0;
    format!("{measured:.2} (paper {paper:.2}, {dev:+.1}%)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_formats_deviation() {
        let s = compare(9.33, 9.7);
        assert!(s.contains("9.33"));
        assert!(s.contains("-3.8%"));
        assert!(compare(1.0, 0.0).contains("n/a"));
    }
}
