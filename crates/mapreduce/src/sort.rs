//! Map-side bucket sort.
//!
//! Every map task sorts each reduce bucket by key before sealing it as a
//! spill run. For the key types the merge's packed fast path covers —
//! `u32` cell ids, `u64` ranks and `(u32, u32)` record pairs —
//! [`sort_bucket`] runs a stable LSD radix sort over the key's bytes,
//! skipping every byte that is the same across the bucket (cell ids and
//! record ids of one corpus vary in their low bytes only), so a bucket
//! costs one histogram pass plus one scatter pass per varying byte and no
//! comparisons. Any other key type keeps the comparison sorts.
//!
//! The radix sort is stable, so its output equals `sort_by` on keys
//! element for element: equal keys keep emission order, which is what
//! the merge's determinism contract needs (see [`crate::merge`]).

use std::any::{Any, TypeId};

/// Buckets shorter than this take the comparison sort: below it the
/// radix sort's histogram setup costs more than it saves.
pub const RADIX_MIN_LEN: usize = 256;

/// Sort `bucket` by key. `u32`, `u64` and `(u32, u32)` keys are always
/// sorted stably: buckets of at least [`RADIX_MIN_LEN`] elements by the
/// radix sort, using `scratch` (empty on entry and on return; reuse it
/// across buckets so its allocation is made once per task), shorter ones
/// by `sort_by`. Other keys use `sort_by` when `stable`, else
/// `sort_unstable_by`.
pub fn sort_bucket<K: Ord + 'static, V>(
    bucket: &mut Vec<(K, V)>,
    scratch: &mut Vec<(K, V)>,
    stable: bool,
) {
    let key = TypeId::of::<K>();
    let radix = bucket.len() >= RADIX_MIN_LEN;
    if key == TypeId::of::<u32>() {
        if radix {
            return radix_sort(bucket, scratch, |(k, _)| u64::from(*packed::<K, u32>(k)));
        }
    } else if key == TypeId::of::<u64>() {
        if radix {
            return radix_sort(bucket, scratch, |(k, _)| *packed::<K, u64>(k));
        }
    } else if key == TypeId::of::<(u32, u32)>() {
        if radix {
            return radix_sort(bucket, scratch, |(k, _)| {
                let &(a, b) = packed::<K, (u32, u32)>(k);
                (u64::from(a) << 32) | u64::from(b)
            });
        }
    } else if !stable {
        return bucket.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
    bucket.sort_by(|a, b| a.0.cmp(&b.0));
}

/// View a key as the concrete type `sort_bucket` proved it is.
#[inline(always)]
fn packed<K: 'static, T: 'static>(key: &K) -> &T {
    (key as &dyn Any)
        .downcast_ref()
        .expect("sort_bucket checked the key's TypeId")
}

/// Stable LSD radix sort of `v` by `key`, one byte per pass, skipping
/// bytes equal across all of `v`. `scratch` must be empty; it is left
/// empty.
fn radix_sort<T>(v: &mut Vec<T>, scratch: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    debug_assert!(scratch.is_empty());
    let n = v.len();
    let Some(first) = v.first() else {
        return;
    };
    let k0 = key(first);
    let varying = v.iter().fold(0u64, |acc, e| acc | (key(e) ^ k0));
    let mut shifts = [0u32; 8];
    let mut passes = 0;
    for byte in 0..8 {
        if (varying >> (8 * byte)) & 0xff != 0 {
            shifts[passes] = 8 * byte;
            passes += 1;
        }
    }
    if passes == 0 {
        return; // every key is equal: already in emission order
    }
    let shifts = &shifts[..passes];
    // One histogram pass for every varying byte, turned into each byte
    // value's first output slot.
    let mut offsets = vec![[0usize; 256]; passes];
    for e in v.iter() {
        let k = key(e);
        for (counts, &s) in offsets.iter_mut().zip(shifts) {
            counts[((k >> s) & 0xff) as usize] += 1;
        }
    }
    for counts in &mut offsets {
        let mut next = 0;
        for c in counts.iter_mut() {
            next += std::mem::replace(c, next);
        }
    }
    scratch.reserve(n);
    // SAFETY: both buffers hold at least `n` elements of capacity (`v` by
    // its length, `scratch` by the `reserve`). `v`'s length is set to 0
    // first, so from then on neither Vec owns (or will drop) the elements:
    // they are moved bitwise, each pass reading all `n` initialized
    // elements of `src` exactly once and writing each into a distinct slot
    // of `dst` — the slots of byte value `b` are
    // `offsets[b] .. offsets[b] + count(b)` and the counts sum to `n`, so
    // every write lands in `0..n` and the `n` writes cover `0..n` exactly.
    // After the last pass `src` holds the sorted elements; they are moved
    // back into `v`'s buffer if needed and `v` takes ownership again by
    // `set_len(n)`. `key` is a pure read of the key and cannot panic, so
    // no element is dropped twice; a panic would at worst leak them.
    unsafe {
        let home = v.as_mut_ptr();
        let mut src = home;
        let mut dst = scratch.as_mut_ptr();
        v.set_len(0);
        for (slots, &s) in offsets.iter_mut().zip(shifts) {
            for i in 0..n {
                let e = src.add(i);
                let slot = &mut slots[((key(&*e) >> s) & 0xff) as usize];
                std::ptr::copy_nonoverlapping(e, dst.add(*slot), 1);
                *slot += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
        if src != home {
            std::ptr::copy_nonoverlapping(src, home, n);
        }
        v.set_len(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_sort_by<K: Ord + Clone, V: Clone>(v: &[(K, V)]) -> Vec<(K, V)> {
        let mut want = v.to_vec();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        want
    }

    #[test]
    fn other_key_types_keep_the_comparison_sort() {
        let v: Vec<(i32, usize)> = (0..2 * RADIX_MIN_LEN)
            .map(|i| (((i * 7919) % 61) as i32 - 30, i))
            .collect();
        let mut got = v.clone();
        let mut scratch = Vec::new();
        sort_bucket(&mut got, &mut scratch, true);
        assert_eq!(got, by_sort_by(&v));
        assert_eq!(scratch.capacity(), 0);
    }
}
