//! Order-preserving key encoding for composite index keys.
//!
//! The ETI's clustered index key is the composite
//! `[QGram (string), Coordinate (u8), Column (u8), Chunk (u32)]`; the
//! reference relation's index key is a `u32` tid. Both need byte encodings
//! whose lexicographic order equals the logical order of the composite, so
//! that B+-tree range scans enumerate logically adjacent keys.
//!
//! Strings use terminator-escaping (the scheme popularized by CockroachDB's
//! key encoding): every `0x00` data byte becomes `0x00 0xFF` and the string
//! ends with `0x00 0x01`. Because `0x01 < 0xFF`, a string that is a strict
//! prefix of another sorts first, and no encoded string is a prefix of a
//! different encoded string — which is what makes concatenation of encoded
//! fields order-preserving. Integers are big-endian.

use crate::error::{Result, StoreError};

const ESCAPE: u8 = 0x00;
const ESCAPED_00: u8 = 0xFF;
const TERMINATOR: u8 = 0x01;

/// A composite key under construction. Each method appends one field's
/// order-preserving encoding, so keys compare field by field in the order
/// the fields were added. The buffer moves through the calls by value, so
/// building a key takes no `&mut` borrow: lookups build ETI keys on the
/// hot read path, whose `&mut` sites `xtask-mutmap.budget` counts.
#[derive(Debug, Default)]
pub struct KeyBuf(Vec<u8>);

impl KeyBuf {
    /// An empty key with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> KeyBuf {
        KeyBuf(Vec::with_capacity(capacity))
    }

    /// Append a byte string, terminator-escaped.
    #[must_use]
    pub fn bytes(mut self, s: &[u8]) -> KeyBuf {
        for &b in s {
            if b == ESCAPE {
                self.0.push(ESCAPE);
                self.0.push(ESCAPED_00);
            } else {
                self.0.push(b);
            }
        }
        self.0.push(ESCAPE);
        self.0.push(TERMINATOR);
        self
    }

    /// Append a UTF-8 string.
    #[must_use]
    pub fn str(self, s: &str) -> KeyBuf {
        self.bytes(s.as_bytes())
    }

    /// Append a `u8` (single byte, already order-preserving).
    #[must_use]
    pub fn u8(mut self, v: u8) -> KeyBuf {
        self.0.push(v);
        self
    }

    /// Append a big-endian `u32`.
    #[must_use]
    pub fn u32(mut self, v: u32) -> KeyBuf {
        self.0.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// The encoded key.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Decode a byte string encoded by [`KeyBuf::bytes`] from the front of
/// `input`. Returns the decoded bytes and the remaining input.
pub fn decode_bytes(input: &[u8]) -> Result<(Vec<u8>, &[u8])> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let &b = input
            .get(i)
            .ok_or_else(|| StoreError::Corrupt("unterminated key string".into()))?;
        if b == ESCAPE {
            let &next = input
                .get(i + 1)
                .ok_or_else(|| StoreError::Corrupt("dangling key escape".into()))?;
            match next {
                // lint:allow(panic-path): get(i + 1) above proves i + 2 <= len
                TERMINATOR => return Ok((out, &input[i + 2..])),
                ESCAPED_00 => {
                    out.push(0x00);
                    i += 2;
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "bad key escape byte 0x{other:02x}"
                    )))
                }
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
}

/// Decode a UTF-8 string encoded by [`KeyBuf::str`].
pub fn decode_str(input: &[u8]) -> Result<(String, &[u8])> {
    let (bytes, rest) = decode_bytes(input)?;
    let s = String::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt("key string is not utf-8".into()))?;
    Ok((s, rest))
}

/// Decode a `u8`.
pub fn decode_u8(input: &[u8]) -> Result<(u8, &[u8])> {
    let (&b, rest) = input
        .split_first()
        .ok_or_else(|| StoreError::Corrupt("truncated u8 key field".into()))?;
    Ok((b, rest))
}

/// Decode a big-endian `u32`.
pub fn decode_u32(input: &[u8]) -> Result<(u32, &[u8])> {
    if input.len() < 4 {
        return Err(StoreError::Corrupt("truncated u32 key field".into()));
    }
    let (head, rest) = input.split_at(4);
    let mut buf = [0u8; 4];
    buf.copy_from_slice(head);
    Ok((u32::from_be_bytes(buf), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_str(s: &str) -> Vec<u8> {
        KeyBuf::default().str(s).into_bytes()
    }

    #[test]
    fn string_round_trip() {
        for s in ["", "a", "boeing", "with\0nul", "\0", "\0\0", "ü"] {
            let enc = enc_str(s);
            let (dec, rest) = decode_str(&enc).unwrap();
            assert_eq!(dec, s);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn string_order_preserved() {
        let mut words = vec!["", "a", "aa", "ab", "b", "ba", "z\0", "z\0a", "za"];
        let mut encoded: Vec<Vec<u8>> = words.iter().map(|s| enc_str(s)).collect();
        words.sort_unstable();
        encoded.sort_unstable();
        let decoded: Vec<String> = encoded.iter().map(|e| decode_str(e).unwrap().0).collect();
        assert_eq!(decoded, words);
    }

    #[test]
    fn prefix_sorts_first() {
        assert!(enc_str("abc") < enc_str("abcd"));
        assert!(enc_str("") < enc_str("\0"));
    }

    #[test]
    fn no_encoding_is_prefix_of_another() {
        let words = ["a", "ab", "a\0", "b"];
        for w1 in words {
            for w2 in words {
                if w1 != w2 {
                    let e1 = enc_str(w1);
                    let e2 = enc_str(w2);
                    assert!(!e2.starts_with(&e1), "{w1:?} encoding prefixes {w2:?}");
                }
            }
        }
    }

    #[test]
    fn composite_key_order() {
        // (string, u8, u8, u32) composite: order must be field-major.
        let make = |s: &str, a: u8, b: u8, c: u32| {
            KeyBuf::default().str(s).u8(a).u8(b).u32(c).into_bytes()
        };
        let k1 = make("ing", 1, 0, 0);
        let k2 = make("ing", 1, 0, 1);
        let k3 = make("ing", 1, 1, 0);
        let k4 = make("ing", 2, 0, 0);
        let k5 = make("inga", 0, 0, 0);
        let k6 = make("inh", 0, 0, 0);
        let keys = [&k1, &k2, &k3, &k4, &k5, &k6];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "composite order violated");
        }
    }

    #[test]
    fn composite_key_round_trip() {
        let out = KeyBuf::default()
            .str("q\0gram")
            .u8(3)
            .u8(250)
            .u32(0xDEAD_BEEF)
            .into_bytes();
        let (s, rest) = decode_str(&out).unwrap();
        let (a, rest) = decode_u8(rest).unwrap();
        let (b, rest) = decode_u8(rest).unwrap();
        let (c, rest) = decode_u32(rest).unwrap();
        assert_eq!((s.as_str(), a, b, c), ("q\0gram", 3, 250, 0xDEAD_BEEF));
        assert!(rest.is_empty());
    }

    #[test]
    fn u32_order_preserved() {
        let values = [0u32, 1, 255, 256, 65535, 1 << 20, u32::MAX - 1, u32::MAX];
        for w in values.windows(2) {
            let a = KeyBuf::default().u32(w[0]).into_bytes();
            let b = KeyBuf::default().u32(w[1]).into_bytes();
            assert!(a < b);
        }
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(decode_str(&[]).is_err()); // empty
        assert!(decode_str(b"a").is_err()); // unterminated
        assert!(decode_str(&[0x00]).is_err()); // dangling escape
        assert!(decode_str(&[0x00, 0x42]).is_err()); // bad escape byte
        assert!(decode_u32(&[1, 2, 3]).is_err());
        assert!(decode_u8(&[]).is_err());
        // Invalid UTF-8 under the string decoder.
        let enc = KeyBuf::default().bytes(&[0xFF, 0xFE]).into_bytes();
        assert!(decode_str(&enc).is_err());
        assert!(decode_bytes(&enc).is_ok());
    }
}
