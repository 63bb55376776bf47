//! Dependency-free XXH64 implementation used to checksum `.ugsnap`
//! snapshots.
//!
//! This is the reference xxHash64 algorithm (Yann Collet, BSD-2), small
//! enough to carry inline rather than pulling in a hashing crate the
//! offline build environment does not have.  [`Xxh64`] is the streaming
//! form: the owned snapshot reader hashes each section as it streams
//! through its fixed buffer, so the payload never has to sit in memory
//! whole.  One-shot [`xxh64`] is a single `update` on that hasher.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per round of the four accumulators.
const STRIPE: usize = 32;

#[inline]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// Streaming XXH64: feed bytes in any split with [`Xxh64::update`], read
/// the hash of everything fed so far with [`Xxh64::digest`].
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    acc: [u64; 4],
    /// Bytes fed so far.
    total: u64,
    /// The tail that does not yet fill a stripe.
    pending: [u8; STRIPE],
    pending_len: usize,
}

impl Xxh64 {
    /// A hasher with nothing fed yet.
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            acc: [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ],
            total: 0,
            pending: [0; STRIPE],
            pending_len: 0,
        }
    }

    /// Feeds `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let pending = self.pending;
            self.consume(&pending);
            self.pending_len = 0;
        }
        let tail = self.consume(data);
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// Runs the accumulators over every whole stripe of `data` and
    /// returns the bytes left over.
    fn consume<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        // Locals, so the hot loop keeps the lanes in registers.
        let [mut v1, mut v2, mut v3, mut v4] = self.acc;
        let mut stripes = data.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            v1 = round(v1, read_u64(stripe, 0));
            v2 = round(v2, read_u64(stripe, 8));
            v3 = round(v3, read_u64(stripe, 16));
            v4 = round(v4, read_u64(stripe, 24));
        }
        self.acc = [v1, v2, v3, v4];
        stripes.remainder()
    }

    /// The XXH64 of every byte fed so far.
    pub fn digest(&self) -> u64 {
        let [v1, v2, v3, v4] = self.acc;
        let mut hash = if self.total >= STRIPE as u64 {
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.acc {
                h = merge_round(h, v);
            }
            h
        } else {
            self.seed.wrapping_add(PRIME_5)
        };
        hash = hash.wrapping_add(self.total);

        let tail = &self.pending[..self.pending_len];
        let mut cursor = 0usize;
        while cursor + 8 <= tail.len() {
            hash = (hash ^ round(0, read_u64(tail, cursor)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            cursor += 8;
        }
        if cursor + 4 <= tail.len() {
            hash = (hash ^ (read_u32(tail, cursor) as u64).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            cursor += 4;
        }
        for &byte in &tail[cursor..] {
            hash = (hash ^ (byte as u64).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }

        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }
}

/// One-shot XXH64 of `data` with the given `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut hasher = Xxh64::new(seed);
    hasher.update(data);
    hasher.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known-answer vectors from the reference implementation / the
    // `xxhash` Python bindings' documentation.
    #[test]
    fn reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: exercises the 32-byte stripe loop plus every tail arm.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn any_split_of_the_input_hashes_like_one_shot() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0usize, 3, 31, 32, 33, 40, 64, 100, 200] {
            let whole = xxh64(&data[..len], 9);
            for cut in [0, 1, 7, 8, 31, 32, 33, len / 2, len] {
                let cut = cut.min(len);
                let mut h = Xxh64::new(9);
                h.update(&data[..cut]);
                for chunk in data[cut..len].chunks(5) {
                    h.update(chunk);
                }
                assert_eq!(h.digest(), whole, "len {len}, cut {cut}");
            }
        }
    }

    #[test]
    fn seed_changes_the_hash() {
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
    }

    #[test]
    fn single_bit_flip_changes_the_hash() {
        let mut data = vec![0u8; 100];
        let base = xxh64(&data, 0);
        for i in [0usize, 31, 32, 63, 95, 99] {
            data[i] ^= 1;
            assert_ne!(xxh64(&data, 0), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }

    #[test]
    fn every_length_up_to_a_few_stripes_is_stable() {
        // Smoke the length-dependent code paths: no panics, and distinct
        // prefixes hash differently.
        let data: Vec<u8> = (0..96u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            assert!(seen.insert(xxh64(&data[..len], 7)), "collision at {len}");
        }
    }
}
