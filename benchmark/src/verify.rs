//! The verify pass: before anything is timed, each workload's router must
//! turn known ingress frames into the right egress frames.

use crate::workloads::{Kind, Spec, ROUND, ROUTE_PORTS, VERIFY_FRAMES};
use routebricks::builder::BuiltRouter;
use routebricks::click::elements::{FromDevice, LookupIPRoute, ToDevice};
use routebricks::crypto::{EspDecryptor, SecurityAssociation};
use routebricks::lookup::{Dir24_8, LpmLookup};
use routebricks::packet::ethernet::HEADER_LEN as ETH;
use routebricks::packet::{ipv4, IpProto, Ipv4Header, Packet};
use routebricks::telemetry::Ledger;

/// SA seed `RouterBuilder::ipsec_gateway()` keys its tunnel from.
pub const IPSEC_SA_SEED: u64 = 0x5a;

/// Checks the per-port egress of one application against its ingress.
///
/// * forwarding: everything leaves port 1, byte-identical and in order;
/// * routing: each frame leaves the port `fib` resolves its destination to,
///   in order, with the TTL one lower, a valid header checksum and every
///   other byte untouched;
/// * IPsec: everything leaves port 1 as ESP, and opening it with the
///   gateway's SA recovers the inner datagram.
pub fn check_egress(
    kind: Kind,
    ingress: &[Packet],
    egress: &[Vec<Packet>],
    fib: Option<&Dir24_8>,
) -> Result<(), String> {
    let expected_port = |pkt: &Packet| -> Result<usize, String> {
        match kind {
            Kind::Route => {
                let fib = fib.ok_or("route check needs the reference FIB")?;
                let dst = ipv4::fast::dst(&pkt.data()[ETH..]).map_err(|e| e.to_string())?;
                let hop = fib
                    .lookup(dst)
                    .ok_or_else(|| format!("reference FIB has no route for {dst:#010x}"))?;
                Ok(usize::from(hop) % ROUTE_PORTS)
            }
            _ => Ok(1),
        }
    };
    let mut next = vec![0usize; egress.len()];
    let mut esp = EspDecryptor::new(&SecurityAssociation::from_seed(IPSEC_SA_SEED));
    for (i, sent) in ingress.iter().enumerate() {
        let port = expected_port(sent)?;
        let got = egress
            .get(port)
            .and_then(|frames| frames.get(next[port]))
            .ok_or_else(|| format!("frame {i}: nothing left on egress port {port}"))?;
        next[port] += 1;
        let (sent, got) = (sent.data(), got.data());
        match kind {
            Kind::Forward | Kind::MtForward => {
                if sent != got {
                    return Err(format!("frame {i}: egress differs from ingress"));
                }
            }
            Kind::Route => {
                let hdr = Ipv4Header::parse(&got[ETH..])
                    .map_err(|e| format!("frame {i}: egress IPv4 header: {e}"))?;
                if u16::from(hdr.ttl) + 1 != u16::from(sent[ETH + 8]) {
                    return Err(format!("frame {i}: TTL {} not decremented", hdr.ttl));
                }
                // Bytes 8 (TTL) and 10..12 (checksum) of the IPv4 header
                // change; nothing else may.
                let same =
                    sent.len() == got.len()
                        && sent.iter().zip(got).enumerate().all(|(at, (a, b))| {
                            a == b || matches!(at.wrapping_sub(ETH), 8 | 10 | 11)
                        });
                if !same {
                    return Err(format!("frame {i}: bytes outside TTL/checksum changed"));
                }
            }
            Kind::Ipsec => {
                let outer = Ipv4Header::parse(&got[ETH..])
                    .map_err(|e| format!("frame {i}: outer IPv4 header: {e}"))?;
                if outer.proto != IpProto::Esp {
                    return Err(format!("frame {i}: egress is not ESP"));
                }
                let inner = esp
                    .open(&got[ETH + outer.header_len()..])
                    .map_err(|e| format!("frame {i}: ESP open: {e}"))?;
                if inner != sent[ETH..] {
                    return Err(format!("frame {i}: decrypted datagram differs"));
                }
            }
        }
    }
    for (port, frames) in egress.iter().enumerate() {
        if next[port] != frames.len() {
            return Err(format!(
                "egress port {port} carries {} unexpected frames",
                frames.len() - next[port]
            ));
        }
    }
    Ok(())
}

/// A conservation ledger must balance with nothing left inside.
pub fn check_ledger(ledger: &Ledger, offered: u64) -> Result<(), String> {
    if !ledger.balances() || ledger.in_flight != 0 {
        return Err(format!("ledger does not balance: {ledger:?}"));
    }
    if ledger.sourced != offered || ledger.forwarded != offered {
        return Err(format!(
            "offered {offered}, sourced {}, forwarded {}, dropped {}",
            ledger.sourced,
            ledger.forwarded,
            ledger.dropped_total()
        ));
    }
    Ok(())
}

/// What the ingress device of a single-thread router has seen so far.
///
/// `BuiltRouter::inject` returns `true` even when the pooled `FromDevice`
/// drops the frame for lack of a slot, so accepted counts come from here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressCounts {
    pub injected: u64,
    pub rx_dropped: u64,
}

pub fn ingress_counts(router: &mut BuiltRouter) -> IngressCounts {
    let dev = router
        .click()
        .element_as::<FromDevice>("rx0")
        .expect("builder routers have rx0");
    IngressCounts {
        injected: dev.injected(),
        rx_dropped: dev.rx_dropped(),
    }
}

/// `(lookups, misses)` of the route element; zeros on other graphs.
pub fn route_counts(router: &mut BuiltRouter) -> (u64, u64) {
    router
        .click()
        .element_as::<LookupIPRoute>("rt0")
        .map_or((0, 0), LookupIPRoute::counts)
}

fn for_each_tx(router: &mut BuiltRouter, mut f: impl FnMut(usize, &mut ToDevice)) {
    for port in 0..router.ports() {
        let dev = router
            .click()
            .element_as_mut::<ToDevice>(&format!("tx{port}"))
            .expect("builder routers have one ToDevice per port");
        f(port, dev);
    }
}

/// Runs [`VERIFY_FRAMES`] frames through a router built with
/// `keep_tx_frames(true)`, checks egress, ledger and route misses, and
/// switches frame retention off again. The transmit logs are copied out
/// every round: a kept frame holds its arena slot.
///
/// `break_check` corrupts one expected frame first, to show that a wrong
/// egress fails the run.
pub fn verify_single_thread(
    spec: &Spec,
    router: &mut BuiltRouter,
    frames: &[Packet],
    fib: Option<&Dir24_8>,
    break_check: bool,
) -> Result<(), String> {
    let mut ingress: Vec<Packet> = frames.iter().cycle().take(VERIFY_FRAMES).cloned().collect();
    let mut egress: Vec<Vec<Packet>> = vec![Vec::new(); router.ports()];
    for round in ingress.chunks(ROUND) {
        for pkt in round {
            router.inject(0, pkt.clone());
        }
        if router.run_until_idle(u64::MAX).fused {
            return Err("verify pass did not drain".into());
        }
        // Heap copies: the kept frames themselves would pin their slots.
        for_each_tx(router, |port, dev| {
            let log = dev.take_tx_log();
            egress[port].extend(log.iter().map(|p| Packet::from_slice(p.data())));
        });
    }
    for_each_tx(router, |_, dev| dev.set_keep_frames(false));
    let counts = ingress_counts(router);
    if counts.injected != VERIFY_FRAMES as u64 || counts.rx_dropped != 0 {
        return Err(format!("verify ingress: {counts:?}"));
    }
    check_ledger(&router.ledger(), VERIFY_FRAMES as u64)?;
    let (_, misses) = route_counts(router);
    if misses != 0 {
        return Err(format!("{misses} route misses in the verify pass"));
    }
    if break_check {
        let last = ingress[0].len() - 1;
        ingress[0].data_mut()[last] ^= 0xff;
    }
    check_egress(spec.kind, &ingress, &egress, fib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{make_inputs, router_builder, spec_by_name, Scale};
    use routebricks::telemetry::TelemetryLevel;

    const SMOKE: Scale = Scale {
        seconds: 10.0,
        smoke: true,
    };

    fn verify(name: &str, break_check: bool) -> Result<(), String> {
        let spec = spec_by_name(name).unwrap();
        let inputs = make_inputs(spec, &SMOKE, 11);
        let fib = inputs.rib.as_ref().map(|t| Dir24_8::compile(t).unwrap());
        let mut router = router_builder(spec, &inputs, TelemetryLevel::Off, true)
            .build()
            .unwrap();
        verify_single_thread(spec, &mut router, &inputs.frames, fib.as_ref(), break_check)
    }

    #[test]
    fn every_single_thread_workload_verifies() {
        for name in [
            "fwd64_tuned",
            "fwd64_untuned",
            "route64_fib1m_churn",
            "ipsec_abilene",
        ] {
            verify(name, false).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn a_broken_expectation_fails_every_workload() {
        for name in ["fwd64_tuned", "route64_fib1m_churn", "ipsec_abilene"] {
            assert!(verify(name, true).is_err(), "{name} accepted a wrong frame");
        }
    }

    #[test]
    fn frames_on_the_wrong_port_are_caught() {
        let spec = spec_by_name("fwd64_tuned").unwrap();
        let frames = crate::workloads::make_frames(spec, 5);
        let ingress = &frames[..4];
        let wrong_port = vec![ingress.to_vec(), Vec::new()];
        assert!(check_egress(Kind::Forward, ingress, &wrong_port, None).is_err());
        let extra = vec![vec![frames[9].clone()], ingress.to_vec()];
        assert!(check_egress(Kind::Forward, ingress, &extra, None).is_err());
        let right = vec![Vec::new(), ingress.to_vec()];
        assert_eq!(check_egress(Kind::Forward, ingress, &right, None), Ok(()));
    }

    #[test]
    fn an_unbalanced_ledger_is_caught() {
        let ok = Ledger {
            sourced: 10,
            forwarded: 10,
            ..Ledger::default()
        };
        assert_eq!(check_ledger(&ok, 10), Ok(()));
        assert!(check_ledger(&ok, 11).is_err());
        let lost = Ledger {
            sourced: 10,
            forwarded: 9,
            ..Ledger::default()
        };
        assert!(check_ledger(&lost, 10).is_err());
    }
}
