//! Packet-conservation ledger: every packet a run sources must be
//! accounted for as forwarded, dropped (with a cause), or still queued.
//!
//! The paper's evaluation (§6) reasons about loss rates per stage —
//! RX-descriptor drops at the NIC, drop-tail at output queues, VLB
//! overload — which only means anything if the accounting is airtight.
//! [`Ledger`] enforces the invariant
//!
//! ```text
//! sourced = forwarded + Σ dropped(cause) + in_flight
//! ```
//!
//! as a checkable identity: elements report their contribution through
//! `Element::ledger`, the driver folds in its own wiring drops, and tests
//! assert [`Ledger::balances`] so silent packet loss becomes a hard
//! failure instead of a quietly-wrong counter.
//!
//! [`DropCause`] is the single per-cause enum the workspace's previously
//! scattered drop counters (`dropped_default`, `pool_exhausted`, element
//! `dropped`) unify behind.

use crate::json;

/// Why a packet left the dataplane without being forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Pushed to an element output with no default handler (the driver's
    /// `dropped_default`).
    Wiring,
    /// Emitted on an output port with no edge (the driver's `leaked`).
    Leaked,
    /// Drop-tail at a full `Queue`.
    QueueOverflow,
    /// No arena slot free at a *source* — packet generation outran the
    /// arena. Device-boundary exhaustion is [`DropCause::NoRxDescriptor`].
    PoolExhausted,
    /// No free RX descriptor/buffer at the NIC ingress boundary — the
    /// frame died where a real ring with no posted descriptors drops it.
    /// This is the single ledger entry for `FromDevice` inject failures
    /// (the arena's own exhaustion counter remains a pool-level stat,
    /// not a second ledger row, so conservation stays exact).
    NoRxDescriptor,
    /// Explicitly sunk by a `Discard` element.
    Discarded,
    /// Consumed by a filtering element (e.g. an unmatched `Classifier`
    /// pattern with no fallback port).
    Filtered,
    /// Absorbed by design — the element generated a response or logged
    /// the packet instead of forwarding it (e.g. an ICMP responder).
    Consumed,
    /// Route lookup found no covering prefix — the packet left through
    /// the routing element's miss port into its drop sink.
    NoRoute,
}

impl DropCause {
    /// Every cause, in ledger-column order.
    pub const ALL: [DropCause; 9] = [
        DropCause::Wiring,
        DropCause::Leaked,
        DropCause::QueueOverflow,
        DropCause::PoolExhausted,
        DropCause::NoRxDescriptor,
        DropCause::Discarded,
        DropCause::Filtered,
        DropCause::Consumed,
        DropCause::NoRoute,
    ];

    /// Number of causes (the ledger's column count).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name — the single source of truth for this
    /// cause everywhere it is rendered: ledger report rows, Prometheus
    /// `cause` label values, and JSON export keys all call this, so the
    /// three surfaces can never drift apart.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::Wiring => "wiring",
            DropCause::Leaked => "leaked",
            DropCause::QueueOverflow => "queue_overflow",
            DropCause::PoolExhausted => "pool_exhausted",
            DropCause::NoRxDescriptor => "no_rx_descriptor",
            DropCause::Discarded => "discarded",
            DropCause::Filtered => "filtered",
            DropCause::Consumed => "consumed",
            DropCause::NoRoute => "no_route",
        }
    }

    pub(crate) fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|c| *c == self)
            .expect("cause present in ALL")
    }
}

/// One run's packet accounting. Plain counters — build it by merging
/// element contributions, then check [`Ledger::balances`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Packets that entered the dataplane (source emissions *attempted*,
    /// including ones that immediately died to pool exhaustion, plus
    /// RX injections).
    pub sourced: u64,
    /// Packets transmitted out of the router (ToDevice / egress).
    pub forwarded: u64,
    /// Packets queued but neither forwarded nor dropped (queue occupancy
    /// plus pending RX) at observation time.
    pub in_flight: u64,
    /// Per-cause drop counters in [`DropCause::ALL`] order; prefer
    /// [`Ledger::add`]/[`Ledger::dropped`] over direct indexing.
    pub dropped: [u64; DropCause::COUNT],
}

impl Ledger {
    /// Records `n` drops for `cause`.
    pub fn add(&mut self, cause: DropCause, n: u64) {
        self.dropped[cause.index()] += n;
    }

    /// Drops recorded for `cause`.
    pub fn dropped(&self, cause: DropCause) -> u64 {
        self.dropped[cause.index()]
    }

    /// Total drops across all causes.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Folds another ledger's counters into this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.sourced += other.sourced;
        self.forwarded += other.forwarded;
        self.in_flight += other.in_flight;
        for (acc, v) in self.dropped.iter_mut().zip(other.dropped.iter()) {
            *acc += v;
        }
    }

    /// `sourced − forwarded − Σdropped − in_flight`: zero iff the run
    /// conserved packets. Signed so a *negative* residual (packets
    /// appearing from nowhere — double counting) is as loud as a loss.
    pub fn residual(&self) -> i128 {
        i128::from(self.sourced)
            - i128::from(self.forwarded)
            - i128::from(self.dropped_total())
            - i128::from(self.in_flight)
    }

    /// `true` when every sourced packet is accounted for.
    pub fn balances(&self) -> bool {
        self.residual() == 0
    }

    /// JSON object: totals, a per-cause `drops` map, the residual and the
    /// balance verdict.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("sourced").int(self.sourced);
            w.key("forwarded").int(self.forwarded);
            w.key("in_flight").int(self.in_flight);
            w.key("drops").obj(|w| write_drops(w, &self.dropped));
            w.key("dropped_total").int(self.dropped_total());
            w.key("residual").int(self.residual());
            w.key("balanced").bool(self.balances());
        })
    }
}

/// The members of a `drops` object: one per cause with a nonzero count,
/// in [`DropCause::ALL`] order — the one spelling the ledger and the
/// interval series share.
pub(crate) fn write_drops(w: &mut json::Writer, drops: &[u64; DropCause::COUNT]) {
    for (cause, &n) in DropCause::ALL.iter().zip(drops) {
        if n > 0 {
            w.key(cause.as_str()).int(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn balanced_ledger_has_zero_residual() {
        let mut led = Ledger {
            sourced: 100,
            forwarded: 90,
            in_flight: 4,
            ..Ledger::default()
        };
        led.add(DropCause::QueueOverflow, 5);
        led.add(DropCause::PoolExhausted, 1);
        assert_eq!(led.residual(), 0);
        assert!(led.balances());
        assert_eq!(led.dropped_total(), 6);
    }

    #[test]
    fn residual_is_signed_both_ways() {
        let lost = Ledger {
            sourced: 10,
            forwarded: 9,
            ..Ledger::default()
        };
        assert_eq!(lost.residual(), 1);
        let conjured = Ledger {
            sourced: 10,
            forwarded: 11,
            ..Ledger::default()
        };
        assert_eq!(conjured.residual(), -1);
        assert!(!lost.balances() && !conjured.balances());
    }

    #[test]
    fn merge_sums_every_column() {
        let mut a = Ledger {
            sourced: 5,
            forwarded: 3,
            in_flight: 1,
            ..Ledger::default()
        };
        a.add(DropCause::Discarded, 1);
        let mut b = Ledger {
            sourced: 7,
            forwarded: 6,
            ..Ledger::default()
        };
        b.add(DropCause::Discarded, 1);
        a.merge(&b);
        assert_eq!(a.sourced, 12);
        assert_eq!(a.forwarded, 9);
        assert_eq!(a.dropped(DropCause::Discarded), 2);
        assert!(a.balances());
    }

    #[test]
    fn json_round_trips_and_names_causes() {
        let mut led = Ledger {
            sourced: 20,
            forwarded: 18,
            ..Ledger::default()
        };
        led.add(DropCause::Wiring, 2);
        let v = json::parse(&led.to_json()).expect("ledger JSON parses");
        assert_eq!(v.get("sourced").and_then(json::Value::as_f64), Some(20.0));
        assert_eq!(
            v.get("drops")
                .and_then(|d| d.get("wiring"))
                .and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(v.get("balanced"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("residual").and_then(json::Value::as_f64), Some(0.0));
    }

    #[test]
    fn cause_index_covers_all() {
        for (i, cause) in DropCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        assert_eq!(DropCause::COUNT, 9);
    }
}
