//! IPv4 prefixes.

use crate::LookupError;

/// An IPv4 prefix: a network address and a mask length.
///
/// The address is stored in host byte order with the host bits zeroed
/// (enforced by the constructor), so two equal prefixes always compare
/// equal bitwise.
///
/// The derived order is by address, then by length, so a prefix sorts
/// before every prefix it covers: the DIR-24-8 builds sweep a
/// [`crate::RouteTable`] in this order and rely on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: 0, len: 0 };

    /// Creates a prefix, zeroing any host bits in `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `len > 32`; mask lengths above 32 are meaningless for
    /// IPv4 and indicate a programming error.
    pub fn new(addr: u32, len: u8) -> Prefix {
        assert!(len <= 32, "IPv4 prefix length must be at most 32");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// Returns the network mask for a prefix length.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Returns the network address (host bits zero, host byte order).
    #[inline]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Returns the mask length.
    ///
    /// (`len` here is the prefix bit-length, not a container size, so no
    /// `is_empty` counterpart exists; see [`Prefix::is_default`].)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Returns `true` for the zero-length default route.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when `addr` falls inside this prefix.
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.addr
    }

    /// Returns `true` when `other` is fully contained in `self`
    /// (equal prefixes count as containment).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// Returns the first address of the prefix.
    pub fn first(&self) -> u32 {
        self.addr
    }

    /// Returns the last address of the prefix.
    pub fn last(&self) -> u32 {
        self.addr | !Self::mask(self.len)
    }
}

impl core::fmt::Display for Prefix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let o = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", o[0], o[1], o[2], o[3], self.len)
    }
}

impl core::str::FromStr for Prefix {
    type Err = LookupError;

    /// Parses the `a.b.c.d/len` notation.
    fn from_str(s: &str) -> Result<Prefix, LookupError> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or(LookupError::BadPrefix("missing '/'"))?;
        let addr: std::net::Ipv4Addr = addr_s
            .parse()
            .map_err(|_| LookupError::BadPrefix("bad address"))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| LookupError::BadPrefix("bad length"))?;
        if len > 32 {
            return Err(LookupError::BadPrefix("length above 32"));
        }
        Ok(Prefix::new(u32::from(addr), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.4.0/22", "1.2.3.4/32"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn host_bits_are_zeroed() {
        let p: Prefix = "10.1.2.3/8".parse().unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn contains_boundaries() {
        let p: Prefix = "192.168.4.0/22".parse().unwrap();
        assert!(p.contains(p.first()));
        assert!(p.contains(p.last()));
        assert!(!p.contains(p.first().wrapping_sub(1)));
        assert!(!p.contains(p.last().wrapping_add(1)));
    }

    #[test]
    fn default_route_contains_everything() {
        assert!(Prefix::DEFAULT.contains(0));
        assert!(Prefix::DEFAULT.contains(u32::MAX));
        assert!(Prefix::DEFAULT.is_default());
    }

    #[test]
    fn covers_relations() {
        let eight: Prefix = "10.0.0.0/8".parse().unwrap();
        let sixteen: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(eight.covers(&sixteen));
        assert!(!sixteen.covers(&eight));
        assert!(eight.covers(&eight));
        let other: Prefix = "11.0.0.0/16".parse().unwrap();
        assert!(!eight.covers(&other));
    }

    #[test]
    fn order_is_address_then_length_so_covers_come_first() {
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        let sorted = [
            p("0.0.0.0/0"),
            p("10.0.0.0/8"),
            p("10.0.0.0/16"),
            p("10.0.0.0/32"),
            p("10.0.1.0/24"),
            p("10.255.255.255/32"),
            p("11.0.0.0/8"),
            p("255.255.255.255/32"),
        ];
        for pair in sorted.windows(2) {
            assert!(pair[0] < pair[1], "{} sorts before {}", pair[0], pair[1]);
        }
        for (i, a) in sorted.iter().enumerate() {
            for b in &sorted[i + 1..] {
                assert!(!b.covers(a), "{b} covers {a} yet sorts after it");
            }
        }
    }

    #[test]
    fn bad_strings_rejected() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn new_rejects_long_mask() {
        Prefix::new(0, 33);
    }

    #[test]
    fn mask_values() {
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(8), 0xff00_0000);
        assert_eq!(Prefix::mask(24), 0xffff_ff00);
        assert_eq!(Prefix::mask(32), u32::MAX);
    }
}
