//! The element-class registry: class name + argument text → element.

use crate::element::Element;
use crate::elements::{
    Classifier, Counter, DecIPTTL, Discard, EtherEncap, FromDevice, HashSwitch, IcmpTtlExpired,
    InfiniteSource, IpsecDecap, IpsecEncap, LookupIPRoute, Meter, Paint, PaintSwitch, Queue,
    RandomSample, RoundRobinSwitch, SetTimestamp, StripEther, Tee, ToDevice,
};
use crate::ConfigError;
use rb_crypto::SecurityAssociation;
use rb_packet::{EtherType, MacAddr};
use std::collections::HashMap;

/// Constructor signature: argument text → element.
pub type Constructor = Box<dyn Fn(&str) -> Result<Box<dyn Element>, ConfigError> + Send + Sync>;

/// A registry of element classes.
pub struct Registry {
    classes: HashMap<String, Constructor>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry {
            classes: HashMap::new(),
        }
    }

    /// Registers (or replaces) a class constructor.
    pub fn register(
        &mut self,
        class: impl Into<String>,
        ctor: impl Fn(&str) -> Result<Box<dyn Element>, ConfigError> + Send + Sync + 'static,
    ) {
        self.classes.insert(class.into(), Box::new(ctor));
    }

    /// Instantiates `class` with raw `args` text.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownClass`] when the class is unregistered, or
    /// whatever the constructor reports.
    pub fn construct(&self, class: &str, args: &str) -> Result<Box<dyn Element>, ConfigError> {
        let ctor = self
            .classes
            .get(class)
            .ok_or_else(|| ConfigError::UnknownClass(class.to_string()))?;
        ctor(args)
    }

    /// Returns `true` when `class` is registered.
    pub fn contains(&self, class: &str) -> bool {
        self.classes.contains_key(class)
    }

    /// The standard library registry.
    pub fn standard() -> Registry {
        let mut r = Registry::new();
        r.register("Discard", |_| Ok(Box::new(Discard::new())));
        r.register("Counter", |_| Ok(Box::new(Counter::new())));
        r.register("Queue", |args| {
            let capacity = if args.is_empty() {
                Queue::DEFAULT_CAPACITY
            } else {
                parse_field::<usize>("Queue", args, "capacity")?
            };
            if capacity == 0 {
                return Err(bad_args("Queue", "capacity must be positive"));
            }
            Ok(Box::new(Queue::new(capacity)))
        });
        r.register("InfiniteSource", |args| {
            let parts = split_args(args);
            let size = match parts.first() {
                Some(s) => parse_field::<usize>("InfiniteSource", s, "size")?,
                None => 64,
            };
            let limit = match parts.get(1) {
                Some(s) => Some(parse_field::<u64>("InfiniteSource", s, "limit")?),
                None => None,
            };
            let flows = match parts.get(2) {
                Some(s) => parse_field::<usize>("InfiniteSource", s, "flows")?,
                None => 16,
            };
            if flows == 0 {
                return Err(bad_args("InfiniteSource", "flows must be positive"));
            }
            Ok(Box::new(InfiniteSource::with_flows(size, limit, flows)))
        });
        r.register("FromDevice", |args| {
            let parts = split_args(args);
            let port = match parts.first() {
                Some(s) => parse_field::<u16>("FromDevice", s, "port")?,
                None => 0,
            };
            // `FromDevice(port)` polls the router's device burst
            // (`poll_burst`, else `kp`); `FromDevice(port, N)` pins N.
            let burst = match parts.get(1) {
                Some(s) => Some(parse_field::<usize>("FromDevice", s, "burst")?),
                None => None,
            };
            if burst == Some(0) {
                return Err(bad_args("FromDevice", "burst must be positive"));
            }
            Ok(Box::new(FromDevice::new(port, burst)))
        });
        r.register("ToDevice", |args| {
            // Grammar: `ToDevice()` and `ToDevice(keep)` pull the router's
            // device burst (`poll_burst`, else `kp`), as a bare
            // `FromDevice(port)` polls it; `ToDevice(N)` and
            // `ToDevice(N, keep)` pin N.
            let parts = split_args(args);
            let (burst, keep_idx) = match parts.first().map(String::as_str) {
                None => (None, 1),
                Some("keep") => (None, 0),
                Some(s) => {
                    let burst = parse_field::<usize>("ToDevice", s, "burst")?;
                    if burst == 0 {
                        return Err(bad_args("ToDevice", "burst must be positive"));
                    }
                    (Some(burst), 1)
                }
            };
            let keep = match parts.get(keep_idx).map(String::as_str) {
                None => false,
                Some("keep") => true,
                Some(other) => {
                    return Err(bad_args("ToDevice", format!("unexpected `{other}`")));
                }
            };
            if parts.len() > keep_idx + 1 {
                return Err(bad_args("ToDevice", "too many arguments"));
            }
            Ok(Box::new(ToDevice::new(burst, keep)))
        });
        r.register("Classifier", |args| {
            Ok(Box::new(Classifier::from_spec(args)?))
        });
        r.register("CheckIPHeader", |args| {
            let offset = if args.is_empty() {
                14
            } else {
                parse_field::<usize>("CheckIPHeader", args, "offset")?
            };
            Ok(Box::new(crate::elements::CheckIPHeader::new(offset)))
        });
        r.register("DecIPTTL", |args| {
            let offset = if args.is_empty() {
                14
            } else {
                parse_field::<usize>("DecIPTTL", args, "offset")?
            };
            Ok(Box::new(DecIPTTL::new(offset)))
        });
        r.register("LookupIPRoute", |args| {
            Ok(Box::new(LookupIPRoute::from_spec(args)?))
        });
        r.register("Tee", |args| {
            let n = parse_count("Tee", args)?;
            Ok(Box::new(Tee::new(n)))
        });
        r.register("RoundRobinSwitch", |args| {
            let n = parse_count("RoundRobinSwitch", args)?;
            Ok(Box::new(RoundRobinSwitch::new(n)))
        });
        r.register("HashSwitch", |args| {
            let n = parse_count("HashSwitch", args)?;
            Ok(Box::new(HashSwitch::new(n)))
        });
        r.register("Paint", |args| {
            let color = parse_field::<u8>("Paint", args, "color")?;
            Ok(Box::new(Paint::new(color)))
        });
        r.register("PaintSwitch", |args| {
            let n = parse_count("PaintSwitch", args)?;
            Ok(Box::new(PaintSwitch::new(n)))
        });
        r.register("StripEther", |_| Ok(Box::new(StripEther::new())));
        r.register("IcmpTtlExpired", |args| {
            let addr = parse_field::<std::net::Ipv4Addr>("IcmpTtlExpired", args, "router address")?;
            Ok(Box::new(IcmpTtlExpired::new(addr)))
        });
        r.register("Meter", |args| {
            let parts = split_args(args);
            let [rate, burst] = match parts.as_slice() {
                [r, b] => [r, b],
                _ => return Err(bad_args("Meter", "expected `rate-bps, burst-bytes`")),
            };
            let rate = parse_field::<f64>("Meter", rate, "rate")?;
            let burst = parse_field::<f64>("Meter", burst, "burst")?;
            if rate <= 0.0 || burst <= 0.0 {
                return Err(bad_args("Meter", "rate and burst must be positive"));
            }
            Ok(Box::new(Meter::new(rate, burst)))
        });
        r.register("RandomSample", |args| {
            let parts = split_args(args);
            let p = match parts.first() {
                Some(s) => parse_field::<f64>("RandomSample", s, "probability")?,
                None => return Err(bad_args("RandomSample", "expected `probability [, seed]`")),
            };
            if !(0.0..=1.0).contains(&p) {
                return Err(bad_args("RandomSample", "probability must be in [0, 1]"));
            }
            let seed = match parts.get(1) {
                Some(s) => parse_field::<u64>("RandomSample", s, "seed")?,
                None => 0,
            };
            Ok(Box::new(RandomSample::new(p, seed)))
        });
        r.register("SetTimestamp", |args| {
            let rate = parse_field::<f64>("SetTimestamp", args, "rate-pps")?;
            if rate <= 0.0 {
                return Err(bad_args("SetTimestamp", "rate must be positive"));
            }
            Ok(Box::new(SetTimestamp::new(rate)))
        });
        r.register("EtherEncap", |args| {
            let parts = split_args(args);
            let [src, dst] = match parts.as_slice() {
                [s, d] => [s, d],
                _ => return Err(bad_args("EtherEncap", "expected `src-mac, dst-mac`")),
            };
            let src: MacAddr = src
                .parse()
                .map_err(|_| bad_args("EtherEncap", "bad source MAC"))?;
            let dst: MacAddr = dst
                .parse()
                .map_err(|_| bad_args("EtherEncap", "bad destination MAC"))?;
            Ok(Box::new(EtherEncap::new(src, dst, EtherType::Ipv4)))
        });
        r.register("IpsecEncap", |args| {
            let parts = split_args(args);
            let [seed, src, dst] = match parts.as_slice() {
                [a, b, c] => [a, b, c],
                _ => {
                    return Err(bad_args(
                        "IpsecEncap",
                        "expected `seed, tunnel-src, tunnel-dst`",
                    ))
                }
            };
            let seed = parse_field::<u64>("IpsecEncap", seed, "seed")?;
            let src = parse_field::<std::net::Ipv4Addr>("IpsecEncap", src, "tunnel-src")?;
            let dst = parse_field::<std::net::Ipv4Addr>("IpsecEncap", dst, "tunnel-dst")?;
            let sa = SecurityAssociation::from_seed(seed);
            Ok(Box::new(IpsecEncap::new(&sa, src, dst)))
        });
        r.register("IpsecDecap", |args| {
            let parts = split_args(args);
            let [seed, src, dst] = match parts.as_slice() {
                [a, b, c] => [a, b, c],
                _ => return Err(bad_args("IpsecDecap", "expected `seed, src-mac, dst-mac`")),
            };
            let seed = parse_field::<u64>("IpsecDecap", seed, "seed")?;
            let src: MacAddr = src
                .parse()
                .map_err(|_| bad_args("IpsecDecap", "bad source MAC"))?;
            let dst: MacAddr = dst
                .parse()
                .map_err(|_| bad_args("IpsecDecap", "bad destination MAC"))?;
            let sa = SecurityAssociation::from_seed(seed);
            Ok(Box::new(IpsecDecap::new(&sa, src, dst)))
        });
        r
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

/// Splits a top-level comma-separated argument list (no nesting support
/// needed for the standard elements that use this).
fn split_args(args: &str) -> Vec<String> {
    if args.trim().is_empty() {
        return Vec::new();
    }
    args.split(',').map(|s| s.trim().to_string()).collect()
}

fn bad_args(class: &str, message: impl Into<String>) -> ConfigError {
    ConfigError::BadArguments {
        class: class.to_string(),
        message: message.into(),
    }
}

fn parse_field<T: std::str::FromStr>(
    class: &str,
    text: &str,
    field: &str,
) -> Result<T, ConfigError> {
    text.trim()
        .parse()
        .map_err(|_| bad_args(class, format!("bad {field}: `{text}`")))
}

fn parse_count(class: &str, args: &str) -> Result<usize, ConfigError> {
    let n = parse_field::<usize>(class, args, "output count")?;
    if n == 0 {
        return Err(bad_args(class, "output count must be positive"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_knows_core_classes() {
        let r = Registry::standard();
        for class in [
            "Discard",
            "Counter",
            "Queue",
            "InfiniteSource",
            "FromDevice",
            "ToDevice",
            "Classifier",
            "CheckIPHeader",
            "DecIPTTL",
            "LookupIPRoute",
            "Tee",
            "RoundRobinSwitch",
            "HashSwitch",
            "Paint",
            "PaintSwitch",
            "StripEther",
            "EtherEncap",
            "IpsecEncap",
            "IpsecDecap",
        ] {
            assert!(r.contains(class), "missing {class}");
        }
    }

    #[test]
    fn unknown_class_is_reported() {
        let r = Registry::standard();
        assert!(matches!(
            r.construct("Nope", ""),
            Err(ConfigError::UnknownClass(_))
        ));
    }

    #[test]
    fn constructors_validate_arguments() {
        let r = Registry::standard();
        assert!(r.construct("Queue", "0").is_err());
        assert!(r.construct("Queue", "xyz").is_err());
        assert!(r.construct("Tee", "0").is_err());
        assert!(r.construct("Paint", "300").is_err());
        assert!(r.construct("EtherEncap", "one-arg").is_err());
        assert!(r
            .construct("EtherEncap", "00:00:00:00:00:01, 00:00:00:00:00:02")
            .is_ok());
        assert!(r.construct("IpsecEncap", "7, 1.1.1.1, 2.2.2.2").is_ok());
        assert!(r.construct("IpsecEncap", "7, bad, 2.2.2.2").is_err());
    }

    #[test]
    fn custom_class_registration() {
        let mut r = Registry::new();
        r.register("MyDiscard", |_| Ok(Box::new(Discard::new())));
        assert!(r.construct("MyDiscard", "").is_ok());
        assert!(!r.contains("Discard"));
    }

    #[test]
    fn defaults_apply_when_args_empty() {
        let r = Registry::standard();
        let q = r.construct("Queue", "").unwrap();
        assert_eq!(q.class_name(), "Queue");
        let s = r.construct("InfiniteSource", "").unwrap();
        assert_eq!(s.class_name(), "InfiniteSource");
    }
}
