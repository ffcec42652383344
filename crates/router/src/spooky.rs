//! SpookyHash V2 — Bob Jenkins's public-domain 128-bit noncryptographic
//! hash, ported from the reference C++.
//!
//! The paper picks SpookyHash because it "(1) enables quick hashing
//! (1 byte/cycle for short keys and 3 bytes/cycle for long keys), (2) can
//! work for any key data type, and (3) incurs a low collision rate"
//! (§III-B). Router feeds every client key through
//! [`SpookyHasher::hash128`] and routes on the first 64 bits.

const SC_CONST: u64 = 0xdead_beef_dead_beef;
/// Internal state size of the long-message core, in u64 words.
const SC_NUM_VARS: usize = 12;
/// Block size of the long-message core, in bytes.
const SC_BLOCK_SIZE: usize = SC_NUM_VARS * 8;
/// Messages shorter than this use the short-message path.
const SC_BUF_SIZE: usize = 2 * SC_BLOCK_SIZE;

/// A 128-bit SpookyHash V2 hasher with configurable seeds.
///
/// # Examples
///
/// ```
/// use musuite_router::spooky::SpookyHasher;
///
/// let hasher = SpookyHasher::new(0, 0);
/// let (h1, h2) = hasher.hash128(b"memcached-key");
/// assert_ne!((h1, h2), hasher.hash128(b"memcached-kez"));
/// assert_eq!(hasher.hash64(b"k"), hasher.hash128(b"k").0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpookyHasher {
    seed1: u64,
    seed2: u64,
}

#[inline(always)]
fn read_u64_le(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Reads up to 8 bytes little-endian, zero-padded.
fn read_partial_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

#[inline(always)]
fn short_mix(h0: &mut u64, h1: &mut u64, h2: &mut u64, h3: &mut u64) {
    *h2 = h2.rotate_left(50);
    *h2 = h2.wrapping_add(*h3);
    *h0 ^= *h2;
    *h3 = h3.rotate_left(52);
    *h3 = h3.wrapping_add(*h0);
    *h1 ^= *h3;
    *h0 = h0.rotate_left(30);
    *h0 = h0.wrapping_add(*h1);
    *h2 ^= *h0;
    *h1 = h1.rotate_left(41);
    *h1 = h1.wrapping_add(*h2);
    *h3 ^= *h1;
    *h2 = h2.rotate_left(54);
    *h2 = h2.wrapping_add(*h3);
    *h0 ^= *h2;
    *h3 = h3.rotate_left(48);
    *h3 = h3.wrapping_add(*h0);
    *h1 ^= *h3;
    *h0 = h0.rotate_left(38);
    *h0 = h0.wrapping_add(*h1);
    *h2 ^= *h0;
    *h1 = h1.rotate_left(37);
    *h1 = h1.wrapping_add(*h2);
    *h3 ^= *h1;
    *h2 = h2.rotate_left(62);
    *h2 = h2.wrapping_add(*h3);
    *h0 ^= *h2;
    *h3 = h3.rotate_left(34);
    *h3 = h3.wrapping_add(*h0);
    *h1 ^= *h3;
    *h0 = h0.rotate_left(5);
    *h0 = h0.wrapping_add(*h1);
    *h2 ^= *h0;
    *h1 = h1.rotate_left(36);
    *h1 = h1.wrapping_add(*h2);
    *h3 ^= *h1;
}

#[inline(always)]
fn short_end(h0: &mut u64, h1: &mut u64, h2: &mut u64, h3: &mut u64) {
    *h3 ^= *h2;
    *h2 = h2.rotate_left(15);
    *h3 = h3.wrapping_add(*h2);
    *h0 ^= *h3;
    *h3 = h3.rotate_left(52);
    *h0 = h0.wrapping_add(*h3);
    *h1 ^= *h0;
    *h0 = h0.rotate_left(26);
    *h1 = h1.wrapping_add(*h0);
    *h2 ^= *h1;
    *h1 = h1.rotate_left(51);
    *h2 = h2.wrapping_add(*h1);
    *h3 ^= *h2;
    *h2 = h2.rotate_left(28);
    *h3 = h3.wrapping_add(*h2);
    *h0 ^= *h3;
    *h3 = h3.rotate_left(9);
    *h0 = h0.wrapping_add(*h3);
    *h1 ^= *h0;
    *h0 = h0.rotate_left(47);
    *h1 = h1.wrapping_add(*h0);
    *h2 ^= *h1;
    *h1 = h1.rotate_left(54);
    *h2 = h2.wrapping_add(*h1);
    *h3 ^= *h2;
    *h2 = h2.rotate_left(32);
    *h3 = h3.wrapping_add(*h2);
    *h0 ^= *h3;
    *h3 = h3.rotate_left(25);
    *h0 = h0.wrapping_add(*h3);
    *h1 ^= *h0;
    *h0 = h0.rotate_left(63);
    *h1 = h1.wrapping_add(*h0);
}

/// One round of the long-message mix over a 96-byte block.
#[inline(always)]
fn mix(data: &[u64; SC_NUM_VARS], s: &mut [u64; SC_NUM_VARS]) {
    s[0] = s[0].wrapping_add(data[0]);
    s[2] ^= s[10];
    s[11] ^= s[0];
    s[0] = s[0].rotate_left(11);
    s[11] = s[11].wrapping_add(s[1]);
    s[1] = s[1].wrapping_add(data[1]);
    s[3] ^= s[11];
    s[0] ^= s[1];
    s[1] = s[1].rotate_left(32);
    s[0] = s[0].wrapping_add(s[2]);
    s[2] = s[2].wrapping_add(data[2]);
    s[4] ^= s[0];
    s[1] ^= s[2];
    s[2] = s[2].rotate_left(43);
    s[1] = s[1].wrapping_add(s[3]);
    s[3] = s[3].wrapping_add(data[3]);
    s[5] ^= s[1];
    s[2] ^= s[3];
    s[3] = s[3].rotate_left(31);
    s[2] = s[2].wrapping_add(s[4]);
    s[4] = s[4].wrapping_add(data[4]);
    s[6] ^= s[2];
    s[3] ^= s[4];
    s[4] = s[4].rotate_left(17);
    s[3] = s[3].wrapping_add(s[5]);
    s[5] = s[5].wrapping_add(data[5]);
    s[7] ^= s[3];
    s[4] ^= s[5];
    s[5] = s[5].rotate_left(28);
    s[4] = s[4].wrapping_add(s[6]);
    s[6] = s[6].wrapping_add(data[6]);
    s[8] ^= s[4];
    s[5] ^= s[6];
    s[6] = s[6].rotate_left(39);
    s[5] = s[5].wrapping_add(s[7]);
    s[7] = s[7].wrapping_add(data[7]);
    s[9] ^= s[5];
    s[6] ^= s[7];
    s[7] = s[7].rotate_left(57);
    s[6] = s[6].wrapping_add(s[8]);
    s[8] = s[8].wrapping_add(data[8]);
    s[10] ^= s[6];
    s[7] ^= s[8];
    s[8] = s[8].rotate_left(55);
    s[7] = s[7].wrapping_add(s[9]);
    s[9] = s[9].wrapping_add(data[9]);
    s[11] ^= s[7];
    s[8] ^= s[9];
    s[9] = s[9].rotate_left(54);
    s[8] = s[8].wrapping_add(s[10]);
    s[10] = s[10].wrapping_add(data[10]);
    s[0] ^= s[8];
    s[9] ^= s[10];
    s[10] = s[10].rotate_left(22);
    s[9] = s[9].wrapping_add(s[11]);
    s[11] = s[11].wrapping_add(data[11]);
    s[1] ^= s[9];
    s[10] ^= s[11];
    s[11] = s[11].rotate_left(46);
    s[10] = s[10].wrapping_add(s[0]);
}

#[inline(always)]
fn end_partial(h: &mut [u64; SC_NUM_VARS]) {
    h[11] = h[11].wrapping_add(h[1]);
    h[2] ^= h[11];
    h[1] = h[1].rotate_left(44);
    h[0] = h[0].wrapping_add(h[2]);
    h[3] ^= h[0];
    h[2] = h[2].rotate_left(15);
    h[1] = h[1].wrapping_add(h[3]);
    h[4] ^= h[1];
    h[3] = h[3].rotate_left(34);
    h[2] = h[2].wrapping_add(h[4]);
    h[5] ^= h[2];
    h[4] = h[4].rotate_left(21);
    h[3] = h[3].wrapping_add(h[5]);
    h[6] ^= h[3];
    h[5] = h[5].rotate_left(38);
    h[4] = h[4].wrapping_add(h[6]);
    h[7] ^= h[4];
    h[6] = h[6].rotate_left(33);
    h[5] = h[5].wrapping_add(h[7]);
    h[8] ^= h[5];
    h[7] = h[7].rotate_left(10);
    h[6] = h[6].wrapping_add(h[8]);
    h[9] ^= h[6];
    h[8] = h[8].rotate_left(13);
    h[7] = h[7].wrapping_add(h[9]);
    h[10] ^= h[7];
    h[9] = h[9].rotate_left(38);
    h[8] = h[8].wrapping_add(h[10]);
    h[11] ^= h[8];
    h[10] = h[10].rotate_left(53);
    h[9] = h[9].wrapping_add(h[11]);
    h[0] ^= h[9];
    h[11] = h[11].rotate_left(42);
    h[10] = h[10].wrapping_add(h[0]);
    h[1] ^= h[10];
    h[0] = h[0].rotate_left(54);
}

#[inline(always)]
fn end(data: &[u64; SC_NUM_VARS], h: &mut [u64; SC_NUM_VARS]) {
    for i in 0..SC_NUM_VARS {
        h[i] = h[i].wrapping_add(data[i]);
    }
    end_partial(h);
    end_partial(h);
    end_partial(h);
}

impl SpookyHasher {
    /// Creates a hasher with the given 128-bit seed.
    pub fn new(seed1: u64, seed2: u64) -> SpookyHasher {
        SpookyHasher { seed1, seed2 }
    }

    /// Hashes `message`, returning 128 bits as two words.
    pub fn hash128(&self, message: &[u8]) -> (u64, u64) {
        if message.len() < SC_BUF_SIZE {
            return self.short(message);
        }
        self.long(message)
    }

    /// Hashes `message`, returning the first 64 bits of the 128-bit hash.
    pub fn hash64(&self, message: &[u8]) -> u64 {
        self.hash128(message).0
    }

    /// The short-message path (< 192 bytes), ~1 byte/cycle.
    fn short(&self, message: &[u8]) -> (u64, u64) {
        let length = message.len();
        let mut h0 = self.seed1;
        let mut h1 = self.seed2;
        let mut h2 = SC_CONST;
        let mut h3 = SC_CONST;
        let mut remainder = message;
        // Consume 32-byte chunks.
        while remainder.len() >= 32 {
            h2 = h2.wrapping_add(read_u64_le(remainder, 0));
            h3 = h3.wrapping_add(read_u64_le(remainder, 8));
            short_mix(&mut h0, &mut h1, &mut h2, &mut h3);
            h0 = h0.wrapping_add(read_u64_le(remainder, 16));
            h1 = h1.wrapping_add(read_u64_le(remainder, 24));
            remainder = &remainder[32..];
        }
        // Consume a trailing 16-byte half-chunk.
        if remainder.len() >= 16 {
            h2 = h2.wrapping_add(read_u64_le(remainder, 0));
            h3 = h3.wrapping_add(read_u64_le(remainder, 8));
            short_mix(&mut h0, &mut h1, &mut h2, &mut h3);
            remainder = &remainder[16..];
        }
        // Last 0..15 bytes, with the total length folded into the top byte.
        h3 = h3.wrapping_add((length as u64) << 56);
        if remainder.len() >= 8 {
            h2 = h2.wrapping_add(read_u64_le(remainder, 0));
            h3 = h3.wrapping_add(read_partial_u64(&remainder[8..]));
        } else if !remainder.is_empty() {
            h2 = h2.wrapping_add(read_partial_u64(remainder));
        } else {
            h2 = h2.wrapping_add(SC_CONST);
            h3 = h3.wrapping_add(SC_CONST);
        }
        short_end(&mut h0, &mut h1, &mut h2, &mut h3);
        (h0, h1)
    }

    /// The long-message path (≥ 192 bytes), ~3 bytes/cycle.
    fn long(&self, message: &[u8]) -> (u64, u64) {
        let mut h = [0u64; SC_NUM_VARS];
        for i in (0..SC_NUM_VARS).step_by(3) {
            h[i] = self.seed1;
            h[i + 1] = self.seed2;
            h[i + 2] = SC_CONST;
        }
        let mut data = [0u64; SC_NUM_VARS];
        let mut remainder = message;
        while remainder.len() >= SC_BLOCK_SIZE {
            for (i, word) in data.iter_mut().enumerate() {
                *word = read_u64_le(remainder, i * 8);
            }
            mix(&data, &mut h);
            remainder = &remainder[SC_BLOCK_SIZE..];
        }
        // Final partial block: zero-padded, length in the last byte.
        let mut tail = [0u8; SC_BLOCK_SIZE];
        tail[..remainder.len()].copy_from_slice(remainder);
        tail[SC_BLOCK_SIZE - 1] = remainder.len() as u8;
        for (i, word) in data.iter_mut().enumerate() {
            *word = read_u64_le(&tail, i * 8);
        }
        end(&data, &mut h);
        (h[0], h[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(n: usize, len: usize) -> Vec<u64> {
        let hasher = SpookyHasher::new(0, 0);
        (0..n)
            .map(|i| {
                let mut key = format!("key-{i}").into_bytes();
                key.resize(len, b'x');
                hasher.hash64(&key)
            })
            .collect()
    }

    #[test]
    fn deterministic() {
        let hasher = SpookyHasher::new(1, 2);
        assert_eq!(hasher.hash128(b"hello"), hasher.hash128(b"hello"));
    }

    #[test]
    fn seed_changes_hash() {
        let a = SpookyHasher::new(1, 2).hash128(b"hello");
        let b = SpookyHasher::new(3, 4).hash128(b"hello");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_and_single_byte() {
        let hasher = SpookyHasher::new(0, 0);
        assert_ne!(hasher.hash128(b""), hasher.hash128(b"\0"));
        assert_ne!(hasher.hash128(b"a"), hasher.hash128(b"b"));
    }

    #[test]
    fn no_collisions_among_short_keys() {
        let mut all = hashes(50_000, 12);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 50_000, "50 K short keys must not collide in 64 bits");
    }

    #[test]
    fn every_length_boundary_hashes_distinctly() {
        // Exercise the 32-byte chunk, 16-byte half-chunk, 8-byte word, and
        // partial-byte code paths, plus the short/long switch at 192.
        let hasher = SpookyHasher::new(0, 0);
        let mut seen = std::collections::HashSet::new();
        for len in 0..=400usize {
            let message: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert!(seen.insert(hasher.hash128(&message)), "collision at length {len}");
        }
    }

    #[test]
    fn long_path_matches_block_structure() {
        // ≥ 192 bytes takes the long path; ensure stability across calls
        // and sensitivity to a single flipped byte deep in the message.
        let hasher = SpookyHasher::new(7, 9);
        let mut message = vec![0xABu8; 1000];
        let a = hasher.hash128(&message);
        message[777] ^= 1;
        let b = hasher.hash128(&message);
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        // Flipping one input bit should flip ~half the output bits.
        let hasher = SpookyHasher::new(0, 0);
        let mut total_flips = 0u32;
        let trials = 200;
        for i in 0..trials {
            let mut message = format!("avalanche-test-key-{i}").into_bytes();
            let (a0, a1) = hasher.hash128(&message);
            message[0] ^= 1;
            let (b0, b1) = hasher.hash128(&message);
            total_flips += (a0 ^ b0).count_ones() + (a1 ^ b1).count_ones();
        }
        let mean_flips = f64::from(total_flips) / f64::from(trials);
        assert!(
            (50.0..78.0).contains(&mean_flips),
            "expected ~64 of 128 bits to flip, got {mean_flips}"
        );
    }

    #[test]
    fn output_bits_unbiased() {
        let all = hashes(20_000, 16);
        for bit in 0..64 {
            let ones = all.iter().filter(|h| (*h >> bit) & 1 == 1).count();
            assert!((8_500..11_500).contains(&ones), "bit {bit} biased: {ones}/20000 ones");
        }
    }

    #[test]
    fn distributes_uniformly_over_shards() {
        let hasher = SpookyHasher::new(0, 0);
        let shards = 16usize;
        let mut counts = vec![0u32; shards];
        for i in 0..64_000 {
            let key = format!("user{i:08}");
            let hash = hasher.hash64(key.as_bytes());
            counts[(((u128::from(hash)) * shards as u128) >> 64) as usize] += 1;
        }
        for &count in &counts {
            assert!((3_400..4_600).contains(&count), "shard imbalance: {counts:?}");
        }
    }
}
