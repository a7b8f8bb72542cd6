//! The pattern classifier.
//!
//! A simplified version of Click's `Classifier`: each output port has a
//! pattern made of `offset/hexvalue[%hexmask]` terms that must all match;
//! `-` matches everything. The first matching pattern wins; packets
//! matching nothing are dropped (as in Click when no `-` is given).

use crate::element::{Element, Output, PacketBatch, Ports};
use crate::ConfigError;
use rb_telemetry::{DropCause, Ledger};

/// One `offset/value%mask` term.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Term {
    offset: usize,
    value: Vec<u8>,
    mask: Vec<u8>,
}

impl Term {
    fn matches(&self, data: &[u8]) -> bool {
        let end = self.offset + self.value.len();
        if data.len() < end {
            return false;
        }
        data[self.offset..end]
            .iter()
            .zip(self.value.iter().zip(&self.mask))
            .all(|(b, (v, m))| b & m == v & m)
    }
}

/// A pattern: all terms must match; `None` terms = match-all (`-`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pattern {
    terms: Option<Vec<Term>>,
}

/// Classifies packets to output ports by byte patterns.
pub struct Classifier {
    patterns: Vec<Pattern>,
    matched: Vec<u64>,
    unmatched: u64,
}

impl Classifier {
    /// Parses a comma-separated pattern list, one pattern per output.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadArguments`] on malformed patterns.
    ///
    /// # Examples
    ///
    /// ```
    /// use rb_click::elements::Classifier;
    ///
    /// // IPv4 frames to output 0, ARP to 1, everything else to 2.
    /// let c = Classifier::from_spec("12/0800, 12/0806, -").unwrap();
    /// assert_eq!(c.outputs(), 3);
    /// ```
    pub fn from_spec(spec: &str) -> Result<Classifier, ConfigError> {
        let bad = |message: String| ConfigError::BadArguments {
            class: "Classifier".into(),
            message,
        };
        let mut patterns = Vec::new();
        for pat in spec.split(',') {
            let pat = pat.trim();
            if pat.is_empty() {
                return Err(bad("empty pattern".into()));
            }
            if pat == "-" {
                patterns.push(Pattern { terms: None });
                continue;
            }
            let mut terms = Vec::new();
            for term in pat.split_whitespace() {
                let (off_s, rest) = term
                    .split_once('/')
                    .ok_or_else(|| bad(format!("term `{term}` missing '/'")))?;
                let offset: usize = off_s
                    .parse()
                    .map_err(|_| bad(format!("bad offset in `{term}`")))?;
                let (val_s, mask_s) = match rest.split_once('%') {
                    Some((v, m)) => (v, Some(m)),
                    None => (rest, None),
                };
                let value = parse_hex(val_s).ok_or_else(|| bad(format!("bad hex in `{term}`")))?;
                let mask = match mask_s {
                    Some(m) => {
                        let mask =
                            parse_hex(m).ok_or_else(|| bad(format!("bad mask in `{term}`")))?;
                        if mask.len() != value.len() {
                            return Err(bad(format!("mask length mismatch in `{term}`")));
                        }
                        mask
                    }
                    None => vec![0xff; value.len()],
                };
                terms.push(Term {
                    offset,
                    value,
                    mask,
                });
            }
            if terms.is_empty() {
                return Err(bad(format!("pattern `{pat}` has no terms")));
            }
            patterns.push(Pattern { terms: Some(terms) });
        }
        let n = patterns.len();
        Ok(Classifier {
            patterns,
            matched: vec![0; n],
            unmatched: 0,
        })
    }

    /// Number of output ports.
    pub fn outputs(&self) -> usize {
        self.patterns.len()
    }

    /// Packets matched per output so far.
    pub fn matched(&self) -> &[u64] {
        &self.matched
    }

    /// Packets that matched no pattern (dropped).
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Returns the output port `data` classifies to.
    pub fn classify(&self, data: &[u8]) -> Option<usize> {
        self.patterns.iter().position(|p| match &p.terms {
            None => true,
            Some(terms) => terms.iter().all(|t| t.matches(data)),
        })
    }
}

/// Parses an even-length hex string into bytes.
fn parse_hex(s: &str) -> Option<Vec<u8>> {
    if s.is_empty() || !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

impl Element for Classifier {
    fn class_name(&self) -> &'static str {
        "Classifier"
    }

    fn ports(&self) -> Ports {
        Ports::push(1, self.patterns.len())
    }

    fn ledger(&self) -> Option<Ledger> {
        let mut led = Ledger::default();
        led.add(DropCause::Filtered, self.unmatched);
        Some(led)
    }

    fn replicate(&self) -> Option<Box<dyn Element>> {
        // Patterns are read-only configuration; match counters are
        // per-core state.
        Some(Box::new(Classifier {
            patterns: self.patterns.clone(),
            matched: vec![0; self.patterns.len()],
            unmatched: 0,
        }))
    }

    fn push_batch(&mut self, _port: usize, pkts: &mut PacketBatch, out: &mut Output) {
        for pkt in pkts.drain() {
            match self.classify(pkt.data()) {
                Some(port) => {
                    self.matched[port] += 1;
                    out.push(port, pkt);
                }
                None => self.unmatched += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::OnePacket;
    use rb_packet::builder::PacketSpec;
    use rb_packet::Packet;

    #[test]
    fn ethertype_classification() {
        let mut c = Classifier::from_spec("12/0800, 12/0806, -").unwrap();
        let ipv4 = PacketSpec::udp().build();
        let mut arp_frame = vec![0u8; 60];
        arp_frame[12] = 0x08;
        arp_frame[13] = 0x06;
        let mut out = Output::new();
        c.push(0, ipv4, &mut out);
        c.push(0, Packet::from_slice(&arp_frame), &mut out);
        let ports: Vec<usize> = out.drain().map(|(p, _)| p).collect();
        assert_eq!(ports, vec![0, 1]);
        assert_eq!(c.matched(), &[1, 1, 0]);
    }

    #[test]
    fn fallthrough_matches_everything() {
        let c = Classifier::from_spec("-").unwrap();
        assert_eq!(c.classify(&[]), Some(0));
    }

    #[test]
    fn unmatched_packets_are_dropped_and_counted() {
        let mut c = Classifier::from_spec("12/0800").unwrap();
        let mut out = Output::new();
        c.push(0, Packet::from_slice(&[0u8; 60]), &mut out);
        assert!(out.is_empty());
        assert_eq!(c.unmatched(), 1);
    }

    #[test]
    fn masked_terms() {
        // Match any frame whose byte 0 has the low bit set.
        let c = Classifier::from_spec("0/01%01, -").unwrap();
        assert_eq!(c.classify(&[0x03]), Some(0));
        assert_eq!(c.classify(&[0x02]), Some(1));
    }

    #[test]
    fn multi_term_patterns_require_all() {
        let c = Classifier::from_spec("12/0800 23/11, -").unwrap();
        let udp = PacketSpec::udp().build();
        assert_eq!(c.classify(udp.data()), Some(0), "UDP is proto 17 = 0x11");
        let tcp = PacketSpec::tcp(0).build();
        assert_eq!(c.classify(tcp.data()), Some(1));
    }

    #[test]
    fn short_packets_never_match() {
        let c = Classifier::from_spec("40/dead, -").unwrap();
        assert_eq!(c.classify(&[0u8; 10]), Some(1));
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(Classifier::from_spec("").is_err());
        assert!(Classifier::from_spec("nooffset").is_err());
        assert!(Classifier::from_spec("x/0800").is_err());
        assert!(Classifier::from_spec("12/08zz").is_err());
        assert!(Classifier::from_spec("12/0800%ff").is_err());
        assert!(Classifier::from_spec("12/080").is_err());
    }
}
