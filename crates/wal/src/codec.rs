//! Byte encoding for the engine's key/value type parameters.
//!
//! The log stores keys and versions as opaque byte strings; `WalCodec` is
//! the bridge from the store's `K`/`V` types. Implementations must be
//! injective (`decode(encode(x)) == Some(x)`) — recovery round-trips every
//! key through it — and canonical: `decode` accepts exactly the bytes
//! `encode` produces, so two encoded keys are equal iff the keys are.
//!
//! Integers are as short as their value: the little-endian bytes with
//! the high zero bytes dropped (so `0` is no bytes at all), after a
//! zigzag step for the signed types (`0, -1, 1, -2, …` ↦ `0, 1, 2, 3, …`),
//! so a small negative value is as short as a small positive one. The
//! byte string carries its own length in the frame, so no length or
//! terminator is needed.

/// A type the engine can persist in WAL records.
pub trait WalCodec: Sized {
    /// Append this value's byte encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reconstruct a value from its exact encoding; `None` if the bytes
    /// are not a valid encoding of this type.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// `v`'s little-endian bytes without their high zero bytes.
fn put_trimmed(out: &mut Vec<u8>, v: u64) {
    let len = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
    out.extend_from_slice(&v.to_le_bytes()[..len]);
}

/// The inverse of [`put_trimmed`] for a type of `width` bytes: `None` if
/// `bytes` is wider than that or ends in a zero byte (not the shortest).
fn get_trimmed(bytes: &[u8], width: usize) -> Option<u64> {
    if bytes.len() > width || bytes.last() == Some(&0) {
        return None;
    }
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    Some(u64::from_le_bytes(le))
}

macro_rules! unsigned_codec {
    ($($t:ty),*) => {$(
        impl WalCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                put_trimmed(out, u64::from(*self));
            }
            fn decode(bytes: &[u8]) -> Option<Self> {
                get_trimmed(bytes, size_of::<$t>()).map(|v| v as $t)
            }
        }
    )*};
}

macro_rules! signed_codec {
    ($($t:ty => $u:ty),*) => {$(
        impl WalCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                let zigzag = ((*self << 1) ^ (*self >> (<$t>::BITS - 1))) as $u;
                put_trimmed(out, u64::from(zigzag));
            }
            fn decode(bytes: &[u8]) -> Option<Self> {
                let zigzag = get_trimmed(bytes, size_of::<$t>())? as $u;
                Some((zigzag >> 1) as $t ^ -((zigzag & 1) as $t))
            }
        }
    )*};
}

unsigned_codec!(u32, u64);
signed_codec!(i32 => u32, i64 => u64);

impl WalCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl WalCodec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

/// Encode a value into a fresh buffer (convenience over [`WalCodec::encode`]).
pub fn encode_to_vec<T: WalCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WalCodec + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::decode(&encode_to_vec(&v)), Some(v));
    }

    #[test]
    fn integer_roundtrips() {
        for v in [0u32, 1, 255, 256, u32::MAX] {
            roundtrip(v);
        }
        for v in [0u64, 1, 255, 256, u64::MAX] {
            roundtrip(v);
        }
        for v in [0i32, 1, 255, 256, i32::MAX, -1, i32::MIN] {
            roundtrip(v);
        }
        for v in [0i64, 1, 255, 256, i64::MAX, -1, i64::MIN] {
            roundtrip(v);
        }
    }

    #[test]
    fn integers_are_as_short_as_their_value() {
        assert_eq!(encode_to_vec(&0u64), [] as [u8; 0]);
        assert_eq!(encode_to_vec(&1u64), [1]);
        assert_eq!(encode_to_vec(&255u64), [255]);
        assert_eq!(encode_to_vec(&256u64), [0, 1]);
        assert_eq!(encode_to_vec(&u64::MAX), [255; 8]);
        assert_eq!(encode_to_vec(&u32::MAX), [255; 4]);
        // Zigzag: 0, -1, 1, -2, … ↦ 0, 1, 2, 3, …
        assert_eq!(encode_to_vec(&0i64), [] as [u8; 0]);
        assert_eq!(encode_to_vec(&-1i64), [1]);
        assert_eq!(encode_to_vec(&1i64), [2]);
        assert_eq!(encode_to_vec(&i64::MIN), [255; 8]);
        assert_eq!(encode_to_vec(&i32::MIN), [255; 4]);
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        roundtrip(String::new());
        roundtrip("nested transactions".to_string());
        roundtrip(vec![0u8, 255, 7]);
    }

    /// Every byte string decodes to at most one integer, and only from
    /// its shortest form: a high zero byte or a width over the type's is
    /// no encoding at all.
    #[test]
    fn bad_lengths_rejected() {
        assert_eq!(u64::decode(&[1, 2, 3]), Some(0x03_02_01), "3 bytes are a valid u64");
        assert_eq!(u64::decode(&[1; 9]), None, "9 bytes are wider than a u64");
        assert_eq!(u32::decode(&[1; 5]), None, "5 bytes are wider than a u32");
        assert_eq!(u32::decode(&[0; 8]), None);
        assert_eq!(i64::decode(&[1; 9]), None);
        assert_eq!(i32::decode(&[1; 5]), None);
        assert_eq!(String::decode(&[0xFF, 0xFE]), None);
    }

    #[test]
    fn high_zero_bytes_rejected() {
        assert_eq!(u64::decode(&[0]), None, "0 is no bytes, not a zero byte");
        assert_eq!(u64::decode(&[7, 0]), None);
        assert_eq!(u32::decode(&[1, 2, 0]), None);
        assert_eq!(i64::decode(&[0]), None);
        assert_eq!(i32::decode(&[2, 0, 0, 0]), None);
        assert_eq!(u64::decode(&[0, 1]), Some(256), "a low zero byte is a digit");
    }
}
