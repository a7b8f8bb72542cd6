//! Property tests for the telemetry primitives: histogram bucket
//! geometry, quantile sanity, and merge associativity (the contract the
//! multi-worker drain path depends on).

use proptest::prelude::*;
use rb_telemetry::{
    CoreMetrics, CumulativeTotals, DropCause, Harvester, IntervalRecorder, Log2Histogram,
    MetricsSnapshot, TelemetryLevel,
};

proptest! {
    /// Every value lands in a bucket whose [lo, hi] range contains it.
    #[test]
    fn bucket_bounds_contain_value(v in any::<u64>()) {
        let b = Log2Histogram::bucket_of(v);
        prop_assert!(Log2Histogram::bucket_lo(b) <= v);
        prop_assert!(v <= Log2Histogram::bucket_hi(b));
    }

    /// Buckets partition: a value belongs to exactly one bucket.
    #[test]
    fn buckets_are_disjoint(v in any::<u64>()) {
        let b = Log2Histogram::bucket_of(v);
        if b > 0 {
            prop_assert!(v > Log2Histogram::bucket_hi(b - 1));
        }
        if b < 64 {
            prop_assert!(v < Log2Histogram::bucket_lo(b + 1));
        }
    }

    /// Quantile bounds bracket a true order statistic: for any sample set,
    /// the q-quantile bucket's bounds contain at least one sample, and the
    /// number of samples at or below the bucket's hi is >= ceil(q*n).
    #[test]
    fn quantile_bounds_are_order_statistics(
        mut samples in prop::collection::vec(0u64..1_000_000, 1..200),
        q_pct in 0u32..101,
    ) {
        let q = q_pct as f64 / 100.0;
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let (lo, hi) = h.quantile_bounds(q).expect("non-empty");
        prop_assert!(samples.iter().any(|&s| lo <= s && s <= hi));
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
        let at_or_below_hi = samples.iter().filter(|&&s| s <= hi).count();
        prop_assert!(at_or_below_hi >= rank);
        // And the bucket is tight from below: fewer than `rank` samples
        // sit strictly below its lo.
        let below_lo = samples.iter().filter(|&&s| s < lo).count();
        prop_assert!(below_lo < rank);
    }

    /// Histogram merge is associative and commutative.
    #[test]
    fn hist_merge_is_associative_commutative(
        a in prop::collection::vec(any::<u64>(), 0..50),
        b in prop::collection::vec(any::<u64>(), 0..50),
        c in prop::collection::vec(any::<u64>(), 0..50),
    ) {
        let h = |vals: &[u64]| {
            let mut h = Log2Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (h(&a), h(&b), h(&c));

        // (a + b) + c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a + (b + c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // b + a == a + b
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Snapshot merge is associative: merging three worker shards in
    /// either grouping yields the same rows, totals, and histograms.
    #[test]
    fn snapshot_merge_is_associative(
        shards in prop::collection::vec(
            prop::collection::vec((0usize..4, 1u64..256, 0u64..10_000), 0..20),
            3..4,
        ),
    ) {
        let build = |events: &[(usize, u64, u64)]| {
            let mut m = CoreMetrics::new(TelemetryLevel::Cycles, 4);
            for &(stage, pkts, cyc) in events {
                m.record_dispatch(stage, pkts, cyc);
            }
            m.record_quantum(events.iter().map(|e| e.2).sum(), !events.is_empty());
            m.snapshot(|i| (format!("e{i}"), format!("C{i}")))
        };
        let (s0, s1, s2) = (build(&shards[0]), build(&shards[1]), build(&shards[2]));

        let mut left = MetricsSnapshot::empty();
        left.merge(&s0);
        left.merge(&s1);
        left.merge(&s2);

        let mut r12 = s1.clone();
        r12.merge(&s2);
        let mut right = s0.clone();
        right.merge(&r12);

        prop_assert_eq!(left, right);
    }

    /// Interval conservation: for any quantum/roll schedule, the
    /// harvested series telescopes exactly to the cumulative run totals
    /// — counters, per-cause drops, and the merged latency sketch alike.
    /// This is the contract that makes live telemetry trustworthy: an
    /// operator summing intervals sees the same numbers a post-mortem
    /// `Ledger`/`MetricsSnapshot` reader does.
    #[test]
    fn interval_series_telescopes_to_run_totals(
        events in prop::collection::vec(
            (
                // (quantum span ticks, did_work, roll after this quantum?)
                (1u64..10_000, any::<bool>(), any::<bool>()),
                // (+sourced, +forwarded, +tx_bytes)
                (0u64..64, 0u64..64, 0u64..4096),
                // one drop-cause bump
                (0usize..DropCause::COUNT, 0u64..8),
                // (+credit stalls, +nic stalls)
                (0u64..4, 0u64..4),
            ),
            1..120,
        ),
        interval_ticks in 1u64..50_000,
    ) {
        let mut rec = IntervalRecorder::with_capacity(0, interval_ticks, 0, 256);
        let ring = rec.ring();
        let mut now = 0u64;
        let mut totals = CumulativeTotals::default();
        let mut spans = Log2Histogram::new();
        let (mut quanta, mut empty) = (0u64, 0u64);
        for &((span, did_work, roll), (s, f, tx), (cause, d), (cr, nic)) in &events {
            now += span;
            rec.quantum(span, did_work);
            spans.record(span);
            quanta += 1;
            empty += u64::from(!did_work);
            totals.sourced += s;
            totals.forwarded += f;
            totals.drops[cause] += d;
            totals.tx_bytes += tx;
            totals.credit_stalls += cr;
            totals.nic_desc_stalls += nic;
            if roll {
                rec.roll(now, &totals);
            }
        }
        rec.flush(now, &totals);

        let mut h = Harvester::new(vec![ring]);
        h.poll(false);
        let (series, _) = h.finish(interval_ticks);
        let led = series.ledger();
        prop_assert_eq!(led.sourced, totals.sourced);
        prop_assert_eq!(led.forwarded, totals.forwarded);
        prop_assert_eq!(led.dropped, totals.drops);
        prop_assert_eq!(series.tx_bytes(), totals.tx_bytes);
        prop_assert_eq!(series.quanta(), quanta);
        prop_assert_eq!(series.empty_polls(), empty);
        let (credit, nic): (u64, u64) = series
            .intervals
            .iter()
            .fold((0, 0), |(c, n), b| (c + b.credit_stalls, n + b.nic_desc_stalls));
        prop_assert_eq!(credit, totals.credit_stalls);
        prop_assert_eq!(nic, totals.nic_desc_stalls);
        // The merged sketch is bucket-exact, not approximate: interval
        // splitting never loses or moves a sample.
        let merged = series.merged_latency();
        prop_assert_eq!(merged.raw_counts(), spans.raw_counts());
    }

    /// Merged packet/cycle totals equal the sums of the inputs.
    #[test]
    fn snapshot_merge_preserves_totals(
        a in prop::collection::vec((0usize..3, 1u64..128, 0u64..5_000), 1..20),
        b in prop::collection::vec((0usize..3, 1u64..128, 0u64..5_000), 1..20),
    ) {
        let build = |events: &[(usize, u64, u64)]| {
            let mut m = CoreMetrics::new(TelemetryLevel::Cycles, 3);
            for &(stage, pkts, cyc) in events {
                m.record_dispatch(stage, pkts, cyc);
            }
            m.snapshot(|i| (format!("e{i}"), String::from("X")))
        };
        let (sa, sb) = (build(&a), build(&b));
        let mut merged = sa.clone();
        merged.merge(&sb);

        let packets = |s: &MetricsSnapshot| s.stages.iter().map(|r| r.packets).sum::<u64>();
        let cycles = |s: &MetricsSnapshot| s.stages.iter().map(|r| r.cycles).sum::<u64>();
        prop_assert_eq!(packets(&merged), packets(&sa) + packets(&sb));
        prop_assert_eq!(cycles(&merged), cycles(&sa) + cycles(&sb));
        prop_assert_eq!(merged.workers, 2);
        prop_assert_eq!(
            merged.batch_sizes.count(),
            sa.batch_sizes.count() + sb.batch_sizes.count()
        );
    }
}

// -- rb_telemetry::json: the parser faces bytes from a socket ---------------

use rb_telemetry::json::{self, Value};

/// Decimals the round-trip writer prints floats with.
const DECIMALS: usize = 6;

fn next(seed: &mut std::slice::Iter<'_, u8>) -> u8 {
    seed.next().copied().unwrap_or(0)
}

/// Up to seven characters: ASCII — control characters, `"` and `\\`
/// among them — and multi-byte and non-BMP text.
fn string_from(seed: &mut std::slice::Iter<'_, u8>) -> String {
    const WIDE: [char; 6] = ['é', '\u{7f}', '\u{2028}', '\u{fffd}', '😀', '\u{10ffff}'];
    (0..next(seed) % 8)
        .map(|_| match next(seed) {
            b @ 0..=127 => b as char,
            b => WIDE[b as usize % WIDE.len()],
        })
        .collect()
}

/// Builds a JSON value from a byte string read as a little program: each
/// byte picks a constructor or feeds one. Numbers include raw bit
/// patterns, so NaN, the infinities, subnormals and 1e300s all turn up.
fn value_from(seed: &mut std::slice::Iter<'_, u8>, depth: usize) -> Value {
    match next(seed) % if depth < 5 { 7 } else { 5 } {
        0 => Value::Null,
        1 => Value::Bool(next(seed) < 128),
        2 => Value::Num(f64::from_bits(u64::from_le_bytes(
            [(); 8].map(|()| next(seed)),
        ))),
        3 => Value::Num(f64::from(next(seed)) - 100.5),
        4 => Value::Str(string_from(seed)),
        5 => Value::Arr(
            (0..next(seed) % 5)
                .map(|_| value_from(seed, depth + 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..next(seed) % 5)
                .map(|_| (string_from(seed), value_from(seed, depth + 1)))
                .collect(),
        ),
    }
}

/// Writes `v` through the crate's one writer.
fn write(v: &Value, w: &mut json::Writer) {
    match v {
        Value::Null => w.raw("null"),
        Value::Bool(b) => w.bool(*b),
        Value::Num(n) => w.float(*n, DECIMALS),
        Value::Str(s) => w.str(s),
        Value::Arr(items) => w.arr(|w| items.iter().for_each(|item| write(item, w))),
        Value::Obj(members) => w.obj(|w| {
            for (key, member) in members {
                write(member, w.key(key));
            }
        }),
    };
}

/// What `v` reads back as: floats at the written precision, a non-finite
/// float as the 0 `json::num` prints for it.
fn as_written(v: &Value) -> Value {
    match v {
        Value::Num(n) => Value::Num(json::num(*n, DECIMALS).parse().expect("a number")),
        Value::Arr(items) => Value::Arr(items.iter().map(as_written).collect()),
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .map(|(k, member)| (k.clone(), as_written(member)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// A generated value under the key `v` of a one-member document.
fn document(seed: &[u8]) -> (Value, String) {
    let value = value_from(&mut seed.iter(), 0);
    let text = json::object(|w| write(&value, w.key("v")));
    (Value::Obj(vec![("v".to_string(), value)]), text)
}

proptest! {
    /// Whatever the bytes, `parse` answers — `Ok` or `Err`, never a panic,
    /// an abort or a hang. Brackets and quotes are over-represented so
    /// the input gets past the first byte.
    #[test]
    fn json_parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        bias in any::<bool>(),
    ) {
        const SYNTAX: &[u8] = b"[]{}\",:\\ue-+.0123456789tfn \n";
        let bytes: Vec<u8> = if bias {
            bytes.iter().map(|b| SYNTAX[*b as usize % SYNTAX.len()]).collect()
        } else {
            bytes
        };
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Valid documents with bytes overwritten, inserted and deleted: the
    /// inputs that reach deepest into the parser before going wrong.
    #[test]
    fn json_parse_survives_mutated_documents(
        seed in prop::collection::vec(any::<u8>(), 0..300),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..8),
    ) {
        let (_, text) = document(&seed);
        let mut bytes = text.into_bytes();
        for (at, byte, how) in edits {
            let at = at % (bytes.len() + 1);
            match how {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.insert(at, byte),
            }
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// `parse(write(v)) == v` for generated values — control characters,
    /// quotes, backslashes and non-BMP text in strings and keys included —
    /// with floats compared at the written precision.
    #[test]
    fn json_write_then_parse_is_the_identity(
        seed in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let (value, text) = document(&seed);
        let parsed = json::parse(&text);
        prop_assert_eq!(parsed, Ok(as_written(&value)), "{}", text);
    }
}
