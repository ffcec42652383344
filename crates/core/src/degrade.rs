//! Partial-result envelope for degraded fan-out responses.
//!
//! μSuite's services tolerate individual leaf failures differently: a
//! nearest-neighbour search can return a best-effort top-k from the
//! shards that answered, while a set intersection needs a quorum before
//! a partial union is meaningful. [`Degraded`] is the wire envelope the
//! mid-tiers use to tell the front-end *which* of those happened — the
//! value, whether any shard was missing, and the shard arithmetic so
//! load generators can account degraded successes separately from
//! full-fidelity ones.

use musuite_codec::{BufMut, Decode, DecodeError, Encode, Reader};

/// A fan-out response assembled from `shards_ok` of `shards_total`
/// leaf replies. `degraded` is `true` whenever at least one shard's
/// contribution is missing from `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded<T> {
    /// The merged response (best-effort when `degraded`).
    pub value: T,
    /// `true` if any targeted shard failed to contribute.
    pub degraded: bool,
    /// Number of shards whose replies made it into `value`.
    pub shards_ok: u32,
    /// Number of shards the fan-out targeted.
    pub shards_total: u32,
}

impl<T> Degraded<T> {
    /// A full-fidelity response: every one of `shards_total` answered.
    pub fn complete(value: T, shards_total: u32) -> Degraded<T> {
        Degraded { value, degraded: false, shards_ok: shards_total, shards_total }
    }

    /// A response assembled from `shards_ok` of `shards_total` shards;
    /// marks itself degraded iff some shard is missing.
    pub fn partial(value: T, shards_ok: u32, shards_total: u32) -> Degraded<T> {
        Degraded { value, degraded: shards_ok < shards_total, shards_ok, shards_total }
    }

    /// Maps the inner value, keeping the shard accounting.
    pub fn map<U, F: FnOnce(T) -> U>(self, f: F) -> Degraded<U> {
        Degraded {
            value: f(self.value),
            degraded: self.degraded,
            shards_ok: self.shards_ok,
            shards_total: self.shards_total,
        }
    }

    /// Discards the envelope, returning the merged value.
    pub fn into_value(self) -> T {
        self.value
    }
}

impl<T: Encode> Encode for Degraded<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.value.encode(buf);
        self.degraded.encode(buf);
        self.shards_ok.encode(buf);
        self.shards_total.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.value.encoded_len()
            + self.degraded.encoded_len()
            + self.shards_ok.encoded_len()
            + self.shards_total.encoded_len()
    }
}

impl<T: Decode> Decode for Degraded<T> {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN + 3;

    fn decode(input: &mut Reader) -> Result<Self, DecodeError> {
        Ok(Degraded {
            value: T::decode(input)?,
            degraded: bool::decode(input)?,
            shards_ok: u32::decode(input)?,
            shards_total: u32::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, to_bytes};

    #[test]
    fn complete_is_not_degraded() {
        let d = Degraded::complete(7u64, 4);
        assert!(!d.degraded);
        assert_eq!((d.shards_ok, d.shards_total), (4, 4));
    }

    #[test]
    fn partial_marks_missing_shards() {
        let d = Degraded::partial(vec![1u32, 2], 3, 4);
        assert!(d.degraded);
        let full = Degraded::partial(0u64, 4, 4);
        assert!(!full.degraded);
    }

    #[test]
    fn roundtrips_through_the_codec() {
        let d = Degraded::partial(vec![9u32, 8, 7], 2, 5);
        let decoded: Degraded<Vec<u32>> = from_bytes(&to_bytes(&d)).unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn map_preserves_accounting() {
        let d = Degraded::partial(3u32, 1, 2).map(|v| v as f32 * 0.5);
        assert!(d.degraded);
        assert_eq!(d.value, 1.5);
        assert_eq!((d.shards_ok, d.shards_total), (1, 2));
    }
}
