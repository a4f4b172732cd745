//! The 40-bit circular key space.
//!
//! The paper's prototype derives "a 40 bit hash value generated by the object
//! name" for every key in the metadata store; node identifiers live in the
//! same space. Keys are compared by circular distance for root selection
//! (the node whose ID is *numerically closest* to the key owns it) and by
//! shared hex-digit prefix length for Pastry/Tapestry-style routing.

use std::fmt;

/// Number of bits in the key space.
pub const KEY_BITS: u32 = 40;

/// Number of base-16 digits in a key (routing-table rows).
pub const KEY_DIGITS: usize = (KEY_BITS / 4) as usize;

/// Mask selecting the low 40 bits.
pub const KEY_MASK: u64 = (1u64 << KEY_BITS) - 1;

/// A 40-bit key identifying an object, service, node, or resource record.
///
/// # Examples
///
/// ```
/// use c4h_chimera::Key;
///
/// let k = Key::from_name("vacation.avi");
/// assert_eq!(k, Key::from_name("vacation.avi")); // deterministic
/// assert!(k.raw() <= Key::MAX.raw());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(u64);

impl Key {
    /// The smallest key.
    pub const MIN: Key = Key(0);

    /// The largest key.
    pub const MAX: Key = Key(KEY_MASK);

    /// Creates a key from a raw value, masking to 40 bits.
    pub const fn from_raw(raw: u64) -> Self {
        Key(raw & KEY_MASK)
    }

    /// The raw 40-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Hashes an arbitrary name into the key space (FNV-1a, folded to
    /// 40 bits).
    ///
    /// This is the function applied to object names, service identifiers,
    /// and node addresses throughout the metadata layer.
    pub fn from_name(name: &str) -> Self {
        Key::from_bytes(name.as_bytes())
    }

    /// Hashes arbitrary bytes into the key space.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut h = KeyHasher::new();
        h.update(bytes);
        h.finish()
    }

    /// The hex digit (0–15) at position `i`, with digit 0 the most
    /// significant.
    ///
    /// # Panics
    ///
    /// Panics if `i >= KEY_DIGITS`.
    pub fn digit(self, i: usize) -> u8 {
        assert!(i < KEY_DIGITS, "digit index {i} out of range");
        let shift = (KEY_DIGITS - 1 - i) * 4;
        ((self.0 >> shift) & 0xF) as u8
    }

    /// Length of the shared most-significant-digit prefix with `other`
    /// (0..=KEY_DIGITS).
    pub fn shared_prefix_len(self, other: Key) -> usize {
        for i in 0..KEY_DIGITS {
            if self.digit(i) != other.digit(i) {
                return i;
            }
        }
        KEY_DIGITS
    }

    /// Clockwise distance from `self` to `other` on the 2⁴⁰ ring.
    pub fn clockwise_distance(self, other: Key) -> u64 {
        other.0.wrapping_sub(self.0) & KEY_MASK
    }

    /// Circular (shortest-way-around) distance to `other`.
    pub fn ring_distance(self, other: Key) -> u64 {
        let cw = self.clockwise_distance(other);
        let ccw = other.clockwise_distance(self);
        cw.min(ccw)
    }

    /// Whether `self` is strictly closer to `target` than `other` is,
    /// breaking exact ties by smaller raw key (so root selection is total).
    pub fn closer_to(self, target: Key, other: Key) -> bool {
        let a = self.ring_distance(target);
        let b = other.ring_distance(target);
        a < b || (a == b && self.0 < other.0)
    }
}

/// Incremental form of [`Key::from_bytes`]: FNV-1a over the update stream
/// with the same splitmix-style finisher, so hashing a name assembled from
/// several pieces (`"obj:"` + name, name + `"#"` + row) needs no
/// intermediate `format!` allocation. Feeding the concatenation in any
/// split produces exactly `Key::from_bytes` of the whole — FNV folds one
/// byte at a time, so the derivation stays byte-compatible with every key
/// ever published.
///
/// # Examples
///
/// ```
/// use c4h_chimera::{Key, KeyHasher};
///
/// let mut h = KeyHasher::new();
/// h.update(b"obj:");
/// h.update(b"videos/trip.avi");
/// assert_eq!(h.finish(), Key::from_name("obj:videos/trip.avi"));
/// ```
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher in the FNV-1a initial state.
    pub fn new() -> Self {
        KeyHasher {
            state: Self::FNV_OFFSET,
        }
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::FNV_PRIME);
        }
        self.state = h;
    }

    /// Folds the decimal digits of `v` into the running hash, exactly as
    /// if `v.to_string()` had been fed to [`KeyHasher::update`].
    pub fn update_decimal(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = v;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.update(&buf[i..]);
    }

    /// Finishes the hash, folding to a 40-bit [`Key`].
    pub fn finish(self) -> Key {
        // FNV alone has weak high-bit avalanche on short, similar names
        // (e.g. "node-1" vs "node-2"), which would cluster IDs on the ring.
        // Finish with a splitmix64-style mix before folding to 40 bits.
        let mut h = self.state;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        Key::from_raw(h ^ (h >> KEY_BITS as u64))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:010x}", self.0)
    }
}

impl fmt::LowerHex for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Selects the root (owner) of `key` among `candidates`: the numerically
/// closest node on the ring, ties broken toward the smaller node ID.
///
/// Returns `None` when `candidates` is empty.
pub fn root_of<I>(key: Key, candidates: I) -> Option<Key>
where
    I: IntoIterator<Item = Key>,
{
    candidates
        .into_iter()
        .fold(None, |best: Option<Key>, c| match best {
            None => Some(c),
            Some(b) => {
                if c.closer_to(key, b) {
                    Some(c)
                } else {
                    Some(b)
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_masks_to_40_bits() {
        let k = Key::from_raw(u64::MAX);
        assert_eq!(k.raw(), KEY_MASK);
        assert_eq!(k, Key::MAX);
    }

    #[test]
    fn hashing_is_deterministic_and_spread() {
        let a = Key::from_name("object-a");
        let b = Key::from_name("object-b");
        assert_eq!(a, Key::from_name("object-a"));
        assert_ne!(a, b);
    }

    #[test]
    fn digits_decompose_the_key() {
        let k = Key::from_raw(0x123456789A);
        let digits: Vec<u8> = (0..KEY_DIGITS).map(|i| k.digit(i)).collect();
        assert_eq!(digits, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_out_of_range_panics() {
        Key::MIN.digit(KEY_DIGITS);
    }

    #[test]
    fn shared_prefix_counts_digits() {
        let a = Key::from_raw(0x1234500000);
        let b = Key::from_raw(0x1234600000);
        assert_eq!(a.shared_prefix_len(b), 4);
        assert_eq!(a.shared_prefix_len(a), KEY_DIGITS);
        let c = Key::from_raw(0x9234500000);
        assert_eq!(a.shared_prefix_len(c), 0);
    }

    #[test]
    fn ring_distance_wraps() {
        let a = Key::from_raw(1);
        let b = Key::MAX;
        assert_eq!(a.ring_distance(b), 2);
        assert_eq!(b.ring_distance(a), 2);
        assert_eq!(a.clockwise_distance(b), KEY_MASK - 1);
        assert_eq!(b.clockwise_distance(a), 2);
    }

    #[test]
    fn closer_to_breaks_ties_by_id() {
        let target = Key::from_raw(100);
        let left = Key::from_raw(90);
        let right = Key::from_raw(110);
        // Equidistant: the smaller raw key wins.
        assert!(left.closer_to(target, right));
        assert!(!right.closer_to(target, left));
    }

    #[test]
    fn root_of_picks_numerically_closest() {
        let nodes = [
            Key::from_raw(0x10),
            Key::from_raw(0x80),
            Key::from_raw(0xF0),
        ];
        assert_eq!(
            root_of(Key::from_raw(0x7F), nodes.iter().copied()),
            Some(Key::from_raw(0x80))
        );
        assert_eq!(
            root_of(Key::from_raw(0x00), nodes.iter().copied()),
            Some(Key::from_raw(0x10))
        );
        assert_eq!(root_of(Key::from_raw(0x7F), std::iter::empty()), None);
    }

    #[test]
    fn display_is_fixed_width_hex() {
        assert_eq!(format!("{}", Key::from_raw(0xAB)), "00000000ab");
    }

    #[test]
    fn incremental_hashing_matches_whole_string() {
        let mut h = KeyHasher::new();
        h.update(b"ecs:");
        h.update(b"videos/trip.avi");
        h.update(b"#");
        h.update_decimal(17);
        assert_eq!(h.finish(), Key::from_name("ecs:videos/trip.avi#17"));
    }

    #[test]
    fn update_decimal_matches_formatted_digits() {
        for v in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            let mut a = KeyHasher::new();
            a.update_decimal(v);
            let mut b = KeyHasher::new();
            b.update(v.to_string().as_bytes());
            assert_eq!(a.finish(), b.finish(), "decimal folding of {v}");
        }
    }
}
