//! Dirty-region incremental inference cache.
//!
//! The attack's hot path evaluates thousands of masks against the *same*
//! clean image. Each evaluation is `detect(mask.apply(clean))`, and the
//! backbone NCC sweep dominates the cost — yet a mask only changes pixels
//! inside its bounding rectangle, and NCC is local. [`CachedDetector`]
//! memoizes one clean forward pass per image (keyed by content hash) and,
//! for every mask, patches only the dirty window of the cached backbone
//! activation before re-running the cheap decision layers.
//!
//! How far the incremental propagation reaches depends on the
//! architecture, via [`IncrementalDetect`]:
//!
//! * **YOLO / two-stage** — every layer after the backbone is local (or a
//!   scalar gain derived from the patched field), so the whole pass is
//!   incremental.
//! * **DETR** — the CNN stem is patched incrementally, but the encoder's
//!   self-attention connects every token to every other: the dirty region
//!   becomes the full token grid in one layer. The propagation therefore
//!   stops at the transformer, which re-runs in full on the patched field
//!   (counted in [`CacheStats::global_stage_full`]).
//!
//! Masks that touch the whole frame gain nothing from patching and fall
//! back to a plain full forward ([`CacheStats::fallbacks`]). All paths are
//! bit-identical to the uncached `detect(mask.apply(clean))` — the
//! equivalence test suite asserts `==` on predictions, not approximation.

use crate::detector::Detector;
use crate::types::Prediction;
use bea_image::{FilterMask, Image};
use bea_tensor::{DirtyRect, FeatureMap};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing how a [`CachedDetector`] spent its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Clean-pass lookups answered from the cache.
    pub hits: u64,
    /// Clean-pass lookups that had to run a full clean forward.
    pub misses: u64,
    /// Masked evaluations served by the incremental dirty-window path.
    pub incremental: u64,
    /// Masked evaluations that fell back to a plain full forward
    /// (full-frame mask or mismatched mask dimensions).
    pub fallbacks: u64,
    /// Incremental evaluations whose global stage (DETR's transformer)
    /// still had to run in full on the patched backbone field.
    pub global_stage_full: u64,
    /// Backbone cells rewritten by the incremental path, summed over all
    /// evaluations (the cached counterpart recomputes the full plane).
    pub pixels_recomputed: u64,
    /// Memoized clean passes dropped from the cache — least-recently-used
    /// entries displaced by the capacity bound plus explicit
    /// [`CachedDetector::evict`] / [`CachedDetector::clear`] calls.
    pub evictions: u64,
}

impl CacheStats {
    /// Field-wise accumulation (used to aggregate ensembles and runs).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.incremental += other.incremental;
        self.fallbacks += other.fallbacks;
        self.global_stage_full += other.global_stage_full;
        self.pixels_recomputed += other.pixels_recomputed;
        self.evictions += other.evictions;
    }

    /// The activity since an earlier snapshot of the same counters.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            incremental: self.incremental.saturating_sub(earlier.incremental),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            global_stage_full: self.global_stage_full.saturating_sub(earlier.global_stage_full),
            pixels_recomputed: self.pixels_recomputed.saturating_sub(earlier.pixels_recomputed),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Total clean-pass lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// The counters as stable `(name, value)` pairs, in declaration
    /// order — the snapshot shape metrics exporters (the serving layer's
    /// `/metrics` endpoint, telemetry consumers) iterate over without
    /// hard-coding the field list.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("incremental", self.incremental),
            ("fallbacks", self.fallbacks),
            ("global_stage_full", self.global_stage_full),
            ("pixels_recomputed", self.pixels_recomputed),
            ("evictions", self.evictions),
        ]
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} / misses {}, incremental {}, fallbacks {}, \
             global-stage-full {}, cells recomputed {}, evictions {}",
            self.hits,
            self.misses,
            self.incremental,
            self.fallbacks,
            self.global_stage_full,
            self.pixels_recomputed,
            self.evictions
        )
    }
}

/// The outcome of one incremental evaluation.
#[derive(Debug, Clone)]
pub struct IncrementalPrediction {
    /// The detections, bit-identical to `detect(perturbed)`.
    pub prediction: Prediction,
    /// Backbone cells rewritten for this evaluation.
    pub cells_recomputed: u64,
    /// `true` when a global stage (self-attention, full-image mixing) had
    /// to run in full because the dirty region reaches every output there.
    pub global_stage_full: bool,
}

/// A detector whose forward pass can be split into a cacheable clean part
/// and a dirty-window patch.
///
/// Implementations must keep [`IncrementalDetect::detect_incremental`]
/// *bit-identical* to [`Detector::detect`] on the perturbed image; the
/// cache is an optimisation, never an approximation.
pub trait IncrementalDetect: Detector {
    /// The cached intermediate of a clean forward pass (the backbone
    /// response field for all detectors in this crate).
    type Clean: Send + Sync;

    /// One full clean forward pass, returning the cacheable intermediate
    /// and the clean prediction (which must equal `self.detect(img)`).
    fn clean_forward(&self, img: &Image) -> (Self::Clean, Prediction);

    /// Detects on `perturbed`, reusing `clean` everywhere outside the
    /// dirty window (full-resolution pixel coordinates).
    fn detect_incremental(
        &self,
        clean: &Self::Clean,
        perturbed: &Image,
        dirty: &DirtyRect,
    ) -> IncrementalPrediction;
}

/// The full-resolution bounding rectangle of a mask's non-zero pixels.
pub fn mask_dirty_rect(mask: &FilterMask) -> DirtyRect {
    let mut rect = DirtyRect::empty();
    for (_, y, x, _) in mask.iter_nonzero() {
        rect = rect.union(&DirtyRect::from_point(x, y));
    }
    rect
}

/// One memoized clean pass: the detector-specific cached state plus the
/// clean prediction, shared out to callers without copying.
type CacheEntry<D> = Arc<(<D as IncrementalDetect>::Clean, Prediction)>;

/// FNV-1a content hash over an image's dimensions and raw pixel bits.
fn content_hash(img: &Image) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(img.width() as u64);
    eat(img.height() as u64);
    for &v in img.as_feature_map().as_slice() {
        eat(u64::from(v.to_bits()));
    }
    hash
}

/// A memoizing wrapper that serves [`Detector::detect_masked`] through the
/// dirty-region incremental path.
///
/// The wrapper is transparent: `name`, `detect` and `heatmap` delegate to
/// the inner detector, and `detect_masked` returns predictions identical
/// to the inner detector's `detect(mask.apply(clean))`.
///
/// # Examples
///
/// ```
/// use bea_detect::{CachedDetector, Detector, YoloConfig, YoloDetector};
/// use bea_image::FilterMask;
/// use bea_scene::SyntheticKitti;
///
/// let img = SyntheticKitti::evaluation_set().image(0);
/// let plain = YoloDetector::new(YoloConfig::with_seed(1));
/// let cached = CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
/// let mut mask = FilterMask::zeros(img.width(), img.height());
/// mask.set(0, 10, 100, 80);
/// assert_eq!(cached.detect_masked(&img, &mask), plain.detect_masked(&img, &mask));
/// assert_eq!(cached.cache_stats().unwrap().misses, 1);
/// ```
pub struct CachedDetector<D: IncrementalDetect> {
    inner: D,
    entries: Mutex<EntryMap<D>>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    incremental: AtomicU64,
    fallbacks: AtomicU64,
    global_stage_full: AtomicU64,
    pixels_recomputed: AtomicU64,
    evictions: AtomicU64,
}

/// The memoized clean passes plus the LRU clock; one mutex guards both.
struct EntryMap<D: IncrementalDetect> {
    slots: HashMap<u64, LruSlot<D>>,
    tick: u64,
}

struct LruSlot<D: IncrementalDetect> {
    entry: CacheEntry<D>,
    last_used: u64,
}

impl<D: IncrementalDetect> CachedDetector<D> {
    /// Wraps a detector with an empty, unbounded cache.
    pub fn new(inner: D) -> Self {
        Self::build(inner, None)
    }

    /// Wraps a detector with a cache bounded to at most `capacity`
    /// memoized clean images; the least-recently-used entry is evicted
    /// (counted in [`CacheStats::evictions`]) when a new image would
    /// overflow the bound. Campaigns sweeping many images use this to keep
    /// memory flat. Predictions are identical at any capacity — eviction
    /// only costs a recomputed clean pass on the next lookup.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero; use the inner detector directly
    /// instead of a cache that can hold nothing.
    pub fn with_capacity(inner: D, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        Self::build(inner, Some(capacity))
    }

    fn build(inner: D, capacity: Option<usize>) -> Self {
        Self {
            inner,
            entries: Mutex::new(EntryMap { slots: HashMap::new(), tick: 0 }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            global_stage_full: AtomicU64::new(0),
            pixels_recomputed: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the detector, discarding the cache.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Number of distinct clean images currently memoized.
    pub fn cached_images(&self) -> usize {
        self.entries.lock().expect("cache mutex poisoned").slots.len()
    }

    /// The configured capacity bound, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Drops the memoized clean pass of one image, if present. A campaign
    /// calls this after finishing a cell so long-lived shared detectors
    /// do not accumulate every image of the grid.
    pub fn evict(&self, img: &Image) -> bool {
        let key = content_hash(img);
        let mut entries = self.entries.lock().expect("cache mutex poisoned");
        let dropped = entries.slots.remove(&key).is_some();
        if dropped {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// Drops every memoized clean pass, counting each as an eviction.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("cache mutex poisoned");
        let dropped = entries.slots.len() as u64;
        entries.slots.clear();
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            global_stage_full: self.global_stage_full.load(Ordering::Relaxed),
            pixels_recomputed: self.pixels_recomputed.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The memoized clean pass for `img`, computing it on first sight.
    fn entry(&self, img: &Image) -> Arc<(D::Clean, Prediction)> {
        let key = content_hash(img);
        let mut entries = self.entries.lock().expect("cache mutex poisoned");
        entries.tick += 1;
        let tick = entries.tick;
        if let Some(slot) = entries.slots.get_mut(&key) {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&slot.entry);
        }
        if let Some(capacity) = self.capacity {
            while entries.slots.len() >= capacity {
                let oldest = entries
                    .slots
                    .iter()
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(&k, _)| k)
                    .expect("non-empty map has a minimum");
                entries.slots.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Computed under the lock: concurrent first sights of one image
        // would otherwise duplicate the most expensive pass in the system.
        let entry = Arc::new(self.inner.clean_forward(img));
        self.misses.fetch_add(1, Ordering::Relaxed);
        entries.slots.insert(key, LruSlot { entry: Arc::clone(&entry), last_used: tick });
        entry
    }

    /// Whether `mask` matches `clean`'s dimensions; a mismatch takes the
    /// uncached path so it surfaces exactly like the default one.
    fn fits(&self, clean: &Image, mask: &FilterMask) -> bool {
        mask.width() == clean.width() && mask.height() == clean.height()
    }

    /// A plain full forward on the perturbed image, counted as a fallback.
    fn fallback(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.inner.detect(&mask.apply(clean))
    }

    /// Evaluates one in-bounds mask against `clean`'s memoized pass.
    fn masked_from(
        &self,
        entry: &(D::Clean, Prediction),
        clean: &Image,
        mask: &FilterMask,
    ) -> Prediction {
        let dirty = mask_dirty_rect(mask);
        if dirty.is_empty() {
            // The identity mask: the clean prediction, no forward at all.
            return entry.1.clone();
        }
        if dirty.area() == clean.width() * clean.height() {
            // A full-frame mask dirties every backbone cell; patching
            // would recompute the whole plane anyway.
            return self.fallback(clean, mask);
        }
        let perturbed = mask.apply(clean);
        let out = self.inner.detect_incremental(&entry.0, &perturbed, &dirty);
        self.incremental.fetch_add(1, Ordering::Relaxed);
        self.pixels_recomputed.fetch_add(out.cells_recomputed, Ordering::Relaxed);
        if out.global_stage_full {
            self.global_stage_full.fetch_add(1, Ordering::Relaxed);
        }
        out.prediction
    }
}

impl<D: IncrementalDetect> Detector for CachedDetector<D> {
    /// Plain detection delegates: arbitrary (already-perturbed) images
    /// must not grow the clean-image cache.
    fn detect(&self, img: &Image) -> Prediction {
        self.inner.detect(img)
    }

    /// Batched plain detection delegates for the same reason.
    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        self.inner.detect_batch_into(imgs, out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn heatmap(&self, img: &Image) -> FeatureMap {
        self.inner.heatmap(img)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }

    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        if !self.fits(clean, mask) {
            return self.fallback(clean, mask);
        }
        let entry = self.entry(clean);
        self.masked_from(&entry, clean, mask)
    }

    /// One clean-pass lookup serves the whole population; every later
    /// in-bounds mask still counts one hit, so results and counters match
    /// the scalar [`Detector::detect_masked`] path.
    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        out.reserve(masks.len());
        let mut entry: Option<CacheEntry<D>> = None;
        for mask in masks {
            if !self.fits(clean, mask) {
                out.push(self.fallback(clean, mask));
                continue;
            }
            if entry.is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            let held = entry.get_or_insert_with(|| self.entry(clean));
            out.push(self.masked_from(held, clean, mask));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detr::{DetrConfig, DetrDetector};
    use crate::yolo::{YoloConfig, YoloDetector};
    use bea_scene::SyntheticKitti;

    fn sample_mask(width: usize, height: usize) -> FilterMask {
        let mut mask = FilterMask::zeros(width, height);
        for y in 10..20 {
            for x in (width / 2 + 4)..(width / 2 + 20) {
                mask.set(0, y, x, 70);
                mask.set(2, y, x, -55);
            }
        }
        mask
    }

    #[test]
    fn dirty_rect_bounds_nonzero_genes() {
        let mask = sample_mask(128, 64);
        let rect = mask_dirty_rect(&mask);
        assert_eq!(rect, DirtyRect::new(68, 10, 84, 20));
        assert!(mask_dirty_rect(&FilterMask::zeros(8, 8)).is_empty());
    }

    #[test]
    fn content_hash_tracks_pixels_and_shape() {
        let a = Image::filled(16, 8, [10.0; 3]);
        let mut b = a.clone();
        assert_eq!(content_hash(&a), content_hash(&b));
        b.put_pixel(3, 2, [10.0, 11.0, 10.0]);
        assert_ne!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&Image::black(8, 16)), content_hash(&Image::black(16, 8)));
    }

    #[test]
    fn zero_mask_returns_clean_prediction_without_forward() {
        let img = SyntheticKitti::evaluation_set().image(0);
        let cached = CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
        let zero = FilterMask::zeros(img.width(), img.height());
        let first = cached.detect_masked(&img, &zero);
        let second = cached.detect_masked(&img, &zero);
        assert_eq!(first, second);
        assert_eq!(first, cached.inner().detect(&img));
        let stats = cached.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.incremental, 0);
    }

    #[test]
    fn repeated_masks_hit_the_cache() {
        let img = SyntheticKitti::evaluation_set().image(1);
        let cached = CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(2)));
        let mask = sample_mask(img.width(), img.height());
        for _ in 0..3 {
            cached.detect_masked(&img, &mask);
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 1, "one clean forward for one image");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.incremental, 3);
        assert!(stats.pixels_recomputed > 0);
        assert_eq!(cached.cached_images(), 1);
    }

    #[test]
    fn full_frame_mask_falls_back() {
        let img = SyntheticKitti::evaluation_set().image(0);
        let cached = CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
        let mut mask = FilterMask::zeros(img.width(), img.height());
        for y in 0..img.height() {
            for x in 0..img.width() {
                mask.set(1, y, x, 5);
            }
        }
        let pred = cached.detect_masked(&img, &mask);
        assert_eq!(pred, cached.inner().detect(&mask.apply(&img)));
        assert_eq!(cached.stats().fallbacks, 1);
        assert_eq!(cached.stats().incremental, 0);
    }

    fn assert_batched_matches_scalar<D: IncrementalDetect>(make: impl Fn() -> D) {
        let img = SyntheticKitti::evaluation_set().image(0);
        let mut full = FilterMask::zeros(img.width(), img.height());
        for y in 0..img.height() {
            for x in 0..img.width() {
                full.set(1, y, x, 5);
            }
        }
        let mut other = sample_mask(img.width(), img.height());
        other.set(1, 30, 12, -40);
        let zero = FilterMask::zeros(img.width(), img.height());
        let local = sample_mask(img.width(), img.height());
        let masks: Vec<&FilterMask> = vec![&local, &zero, &full, &other];

        let scalar = CachedDetector::new(make());
        let expected: Vec<Prediction> =
            masks.iter().map(|m| scalar.detect_masked(&img, m)).collect();

        let batched = CachedDetector::new(make());
        let mut out = Vec::new();
        batched.detect_masked_batch_into(&img, &masks, &mut out);
        assert_eq!(out, expected, "batched masked path must be bit-identical");
        // Reuse keeps the allocation and the answers.
        batched.detect_masked_batch_into(&img, &masks, &mut out);
        assert_eq!(out, expected);

        let s = scalar.stats();
        let b = batched.stats();
        assert_eq!((b.misses, b.fallbacks), (s.misses, s.fallbacks * 2));
        assert_eq!(b.incremental, s.incremental * 2);
        assert_eq!(b.global_stage_full, s.global_stage_full * 2);
        assert_eq!(b.pixels_recomputed, s.pixels_recomputed * 2);
        // One lookup per in-bounds mask, exactly like the scalar path.
        assert_eq!(b.lookups(), s.lookups() * 2);
    }

    #[test]
    fn batched_masked_path_matches_scalar_path_and_counters() {
        assert_batched_matches_scalar(|| YoloDetector::new(YoloConfig::with_seed(2)));
        assert_batched_matches_scalar(|| DetrDetector::new(DetrConfig::with_seed(2)).unwrap());
    }

    #[test]
    fn stats_merge_and_since() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            incremental: 2,
            fallbacks: 0,
            global_stage_full: 1,
            pixels_recomputed: 100,
            evictions: 2,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.hits, 6);
        assert_eq!(b.pixels_recomputed, 200);
        assert_eq!(b.evictions, 4);
        assert_eq!(b.since(&a), a);
        assert_eq!(a.lookups(), 4);
        assert!(a.to_string().contains("hits 3"));
        assert!(a.to_string().contains("evictions 2"));
    }

    #[test]
    fn counters_snapshot_every_field_in_order() {
        let stats = CacheStats {
            hits: 1,
            misses: 2,
            incremental: 3,
            fallbacks: 4,
            global_stage_full: 5,
            pixels_recomputed: 6,
            evictions: 7,
        };
        let counters = stats.counters();
        assert_eq!(
            counters.map(|(name, _)| name),
            [
                "hits",
                "misses",
                "incremental",
                "fallbacks",
                "global_stage_full",
                "pixels_recomputed",
                "evictions",
            ]
        );
        assert_eq!(counters.map(|(_, value)| value), [1, 2, 3, 4, 5, 6, 7]);
        // The snapshot is exhaustive: merging a stats value built back
        // from its own counters doubles every field.
        let mut doubled = stats;
        doubled.merge(&stats);
        assert_eq!(
            doubled.counters().map(|(_, v)| v),
            counters.map(|(_, v)| v * 2),
            "counters() must cover every CacheStats field"
        );
    }

    #[test]
    fn capacity_one_cache_over_two_images_stays_bounded_and_bit_identical() {
        let images =
            [SyntheticKitti::evaluation_set().image(0), SyntheticKitti::evaluation_set().image(1)];
        let plain = YoloDetector::new(YoloConfig::with_seed(3));
        let cached = CachedDetector::with_capacity(YoloDetector::new(YoloConfig::with_seed(3)), 1);
        assert_eq!(cached.capacity(), Some(1));
        // Alternate between the two images: every switch displaces the
        // other image's entry, yet predictions never change.
        for round in 0..2 {
            for img in &images {
                let mask = sample_mask(img.width(), img.height());
                assert_eq!(
                    cached.detect_masked(img, &mask),
                    plain.detect(&mask.apply(img)),
                    "round {round}: cached path must stay bit-identical"
                );
                assert!(cached.cached_images() <= 1, "capacity bound violated");
            }
        }
        let stats = cached.stats();
        assert_eq!(stats.evictions, 3, "every switch after the first fill evicts");
        assert_eq!(stats.misses, 4, "alternation defeats a capacity-1 cache");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn explicit_eviction_and_clear_are_counted() {
        let img = SyntheticKitti::evaluation_set().image(2);
        let cached = CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
        let mask = sample_mask(img.width(), img.height());
        let _ = cached.detect_masked(&img, &mask);
        assert_eq!(cached.cached_images(), 1);
        assert!(cached.evict(&img));
        assert!(!cached.evict(&img), "double eviction is a no-op");
        assert_eq!(cached.cached_images(), 0);
        // Re-memoize, then clear.
        let _ = cached.detect_masked(&img, &mask);
        cached.clear();
        assert_eq!(cached.cached_images(), 0);
        let stats = cached.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 2, "eviction forces a fresh clean pass");
    }

    #[test]
    fn lru_keeps_the_recently_used_image() {
        let data = SyntheticKitti::evaluation_set();
        let images = [data.image(0), data.image(1), data.image(2)];
        let cached = CachedDetector::with_capacity(YoloDetector::new(YoloConfig::with_seed(2)), 2);
        let mask = |img: &Image| sample_mask(img.width(), img.height());
        let _ = cached.detect_masked(&images[0], &mask(&images[0])); // miss {0}
        let _ = cached.detect_masked(&images[1], &mask(&images[1])); // miss {0,1}
        let _ = cached.detect_masked(&images[0], &mask(&images[0])); // hit, 0 newest
        let _ = cached.detect_masked(&images[2], &mask(&images[2])); // miss, evicts 1
        let _ = cached.detect_masked(&images[0], &mask(&images[0])); // hit
        let stats = cached.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 2, "image 0 must survive both insertions");
        assert_eq!(stats.evictions, 1);
        assert_eq!(cached.cached_images(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = CachedDetector::with_capacity(YoloDetector::new(YoloConfig::with_seed(1)), 0);
    }
}
