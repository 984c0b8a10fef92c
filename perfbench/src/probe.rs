//! A `Detector` wrapper that times every call from outside the library.
//!
//! The campaign and transfer grids build detectors through their
//! `detector_for` closures; the traced pass hands them a [`Traced`]
//! wrapper instead of the zoo's detector. It forwards every trait method
//! to the wrapped detector unchanged (so results stay bit-identical),
//! records one span per call, and keeps a few predictions for the
//! objective replay. Dropping the wrapper closes the span of its cell or
//! transfer group.

use crate::trace::Recorder;
use bea_detect::{CacheStats, Detector, GradientObjective, InputGradient, Prediction};
use bea_image::{FilterMask, Image};
use bea_tensor::FeatureMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Predictions kept per wrapper for the objective replay.
const KEPT_PREDICTIONS: usize = 8;

/// Predictions one wrapper saw: the first single-image detect (the
/// attack's clean reference pass) and a few perturbed ones.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    pub clean: Option<Prediction>,
    pub perturbed: Vec<Prediction>,
}

pub struct Traced {
    inner: Box<dyn Detector>,
    rec: Arc<Recorder>,
    /// Id of the span this wrapper closes on drop (the cell or group).
    span: u64,
    group: u64,
    parent: u64,
    kind: &'static str,
    start: Instant,
    capture: Mutex<Capture>,
    sink: Arc<Mutex<Vec<(u64, Capture)>>>,
}

impl Traced {
    /// Wraps `inner`. `start` is when the cell began (before the model
    /// was built); the `kind` span runs from there until the drop.
    pub fn new(
        inner: Box<dyn Detector>,
        rec: Arc<Recorder>,
        kind: &'static str,
        ids: (u64, u64),
        start: Instant,
        sink: Arc<Mutex<Vec<(u64, Capture)>>>,
    ) -> Self {
        let (span, parent) = ids;
        Self {
            inner,
            rec,
            span,
            group: span,
            parent,
            kind,
            start,
            capture: Mutex::new(Capture::default()),
            sink,
        }
    }

    fn timed<R>(&self, name: &'static str, items: usize, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        self.rec.record(self.span, name, self.group, start, Instant::now(), items as u64);
        result
    }

    fn keep(&self, predictions: &[Prediction]) {
        let mut capture = self.capture.lock().expect("capture lock poisoned");
        let room = KEPT_PREDICTIONS.saturating_sub(capture.perturbed.len());
        capture.perturbed.extend(predictions.iter().take(room).cloned());
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        self.rec.record_with_id(
            self.span,
            self.parent,
            self.kind,
            self.group,
            self.start,
            Instant::now(),
            0,
        );
        if let (Ok(capture), Ok(mut sink)) = (self.capture.lock(), self.sink.lock()) {
            sink.push((self.group, capture.clone()));
        }
    }
}

impl Detector for Traced {
    fn detect(&self, img: &Image) -> Prediction {
        let prediction = self.timed("detect.single", 1, || self.inner.detect(img));
        let mut capture = self.capture.lock().expect("capture lock poisoned");
        if capture.clean.is_none() {
            capture.clean = Some(prediction.clone());
        }
        prediction
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn heatmap(&self, img: &Image) -> FeatureMap {
        self.timed("detect.heatmap", 1, || self.inner.heatmap(img))
    }

    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        let prediction = self.timed("detect.masked", 1, || self.inner.detect_masked(clean, mask));
        self.keep(std::slice::from_ref(&prediction));
        prediction
    }

    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        self.timed("detect.batch", imgs.len(), || self.inner.detect_batch_into(imgs, out));
        self.keep(out);
    }

    fn detect_batch(&self, imgs: &[&Image]) -> Vec<Prediction> {
        let out = self.timed("detect.batch", imgs.len(), || self.inner.detect_batch(imgs));
        self.keep(&out);
        out
    }

    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        self.timed("detect.masked_batch", masks.len(), || {
            self.inner.detect_masked_batch_into(clean, masks, out)
        });
        self.keep(out);
    }

    fn detect_masked_batch(&self, clean: &Image, masks: &[&FilterMask]) -> Vec<Prediction> {
        let out = self.timed("detect.masked_batch", masks.len(), || {
            self.inner.detect_masked_batch(clean, masks)
        });
        self.keep(&out);
        out
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        self.timed("detect.gradient", 1, || self.inner.input_gradient(img, objective))
    }
}

/// Detector-call span names (every method that runs a forward pass).
pub const DETECT_SPANS: [&str; 6] = [
    "detect.single",
    "detect.heatmap",
    "detect.masked",
    "detect.batch",
    "detect.masked_batch",
    "detect.gradient",
];
